// Rollback restore: rebuild a live snapshot object from a durable frame.
//
// restore() is the contract the checkpoint format exists for: given a
// FULL frame (persist/checkpoint.h) it reconstructs a registry-spec'd
// object whose observable state -- value plane, component count, growth
// watermark, and every component's payload -- matches the consistent scan
// the frame captured.  A full frame IS an initial vector in the paper's
// model (Section 2.1), so the object is built starting from it rather than
// driven there by operations:
//
//   1. build: registry::make_snapshot(frame.impl_spec, frame.initial_m,
//      frame.max_threads), i.e. the SAME spec string the checkpointed
//      service was built from (options, ablations, and plane included);
//   2. regrow: add_components() from the constructed count up to
//      frame.num_components, so growth is REPLAYED -- post-restore the
//      object sits at the same point of its grow-only lifecycle and
//      further add_components() calls continue from there;
//   3. seed: one PartialSnapshot::seed (or seed_blobs) over all
//      components writes the frame's payloads into the fresh object's
//      initial records in place.  No update protocol is replayed: no
//      record allocation, pin, getSet, CAS or camera fetch-add, and the
//      caller needs no pid.  On the versioned plane the seeded records keep
//      stamp 0, so every epoch of the restored object sees them.
//
// Cost: construction plus one pass over the frame -- it tracks the frame's
// size, not m update protocols.  Construction itself allocates per storage
// segment, not per component: Figure 1 and Figure 3 build their initial
// records in place in per-segment storage (core/record.h), one allocation
// per 1024 components for the heads and one for the records.
//
// Requirements, enforced loudly: the frame must be full (a partial frame
// cannot define the unlisted components -- std::invalid_argument), and
// the spec must rebuild on the frame's value plane (a frame written from a
// blob object does not restore into a u64 spec -- std::invalid_argument).
#pragma once

#include <memory>

#include "core/partial_snapshot.h"
#include "persist/checkpoint.h"

namespace psnap::recovery {

std::unique_ptr<core::PartialSnapshot> restore(
    const persist::CheckpointData& frame);

}  // namespace psnap::recovery
