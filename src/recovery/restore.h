// Rollback restore: rebuild a live snapshot object from a durable frame.
//
// restore() is the contract the checkpoint format exists for: given a
// FULL frame (persist/checkpoint.h) it reconstructs a registry-spec'd
// object whose observable state -- value plane, component count, growth
// watermark, and every component's payload -- matches the consistent scan
// the frame captured.  A full frame IS an initial vector in the paper's
// model (Section 2.1), so the object is built from it rather than driven
// there by operations:
//
//   1. check: the frame must be full, hold at least one component, and
//      have initial_m <= num_components (std::invalid_argument otherwise);
//   2. build: registry::make_snapshot(frame.impl_spec, InitialVector of
//      the frame's payloads, frame.max_threads), i.e. the SAME spec string
//      the checkpointed service was built from (options, ablations, and
//      plane included), at the frame's count.  Growth is not replayed:
//      constructing N components leaves the same count and storage as
//      constructing fewer and growing to N, so the object sits at the
//      frame's point of its grow-only lifecycle and further
//      add_components() calls continue from there.  The frame's initial_m
//      and the spec's m0= only bound that count: either above it throws.
//
// Each initial record is written once, with its payload, in the pass that
// constructs its storage segment.  No update protocol is replayed: no
// record allocation, pin, getSet, CAS or camera fetch-add, and the caller
// needs no pid.  On the versioned plane the restored records carry stamp
// 0, so every epoch of the restored object sees them.
//
// Cost: construction alone -- one pass over the frame's payloads, not m
// update protocols and no second pass.  Construction allocates per
// storage segment, not per component: Figure 1 and Figure 3 build their
// initial records in place in per-segment storage (core/record.h), one
// allocation per 1024 components for the heads and one for the records,
// each segment written in one pass (SegmentedArray::build).
//
// Requirements, enforced loudly: the spec must rebuild on the frame's
// value plane (a frame written from a blob object does not restore into a
// u64 spec -- std::invalid_argument), and the frame's max_threads must lie
// in 1..exec::kMaxPidCapacity (the registry throws std::invalid_argument;
// a forged header cannot abort the process).
#pragma once

#include <memory>

#include "core/partial_snapshot.h"
#include "persist/checkpoint.h"

namespace psnap::recovery {

std::unique_ptr<core::PartialSnapshot> restore(
    const persist::CheckpointData& frame);

}  // namespace psnap::recovery
