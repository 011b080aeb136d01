#include "recovery/restore.h"

#include <stdexcept>
#include <string>

#include "registry/registry.h"

namespace psnap::recovery {

std::unique_ptr<core::PartialSnapshot> restore(
    const persist::CheckpointData& frame) {
  if (!frame.is_full()) {
    throw std::invalid_argument(
        "restore: partial frame (covers " +
        std::to_string(frame.indices.size()) + " of " +
        std::to_string(frame.num_components) +
        " components); only full frames are restorable");
  }

  std::uint32_t max_threads = frame.max_threads != 0 ? frame.max_threads : 1;
  auto snap =
      registry::make_snapshot(frame.impl_spec, frame.initial_m, max_threads);
  if (snap->value_plane() != frame.value_plane) {
    throw std::invalid_argument("restore: spec '" + frame.impl_spec +
                                "' builds value plane '" +
                                std::string(snap->value_plane()) +
                                "' but the frame holds '" +
                                frame.value_plane + "'");
  }

  // Replay growth: the spec (its m0= option included) decides the
  // constructed count; the frame decides where the grow-only lifecycle
  // had got to.
  const std::uint32_t constructed = snap->num_components();
  if (constructed > frame.num_components) {
    throw std::invalid_argument(
        "restore: spec constructs m=" + std::to_string(constructed) +
        " but the frame captured m=" + std::to_string(frame.num_components) +
        " (growth is grow-only; the spec and frame disagree)");
  }
  if (constructed < frame.num_components) {
    snap->add_components(frame.num_components - constructed);
  }

  // The frame is the object's initial vector: nothing has run on the
  // fresh object yet, so one seed pass writes every payload in place.
  if (frame.value_plane == "blob") {
    snap->seed_blobs(frame.blobs);
  } else {
    snap->seed(frame.values);
  }
  return snap;
}

}  // namespace psnap::recovery
