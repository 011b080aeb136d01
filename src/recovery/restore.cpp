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
  if (frame.num_components == 0) {
    throw std::invalid_argument("restore: the frame holds no components");
  }
  if (frame.initial_m > frame.num_components) {
    throw std::invalid_argument(
        "restore: the frame's initial_m=" + std::to_string(frame.initial_m) +
        " exceeds its m=" + std::to_string(frame.num_components) +
        " (growth is grow-only)");
  }

  // The frame is the object's initial vector: the object is built at the
  // frame's count with the frame's payloads, so each initial record is
  // written once.  The registry refuses a spec whose m0= exceeds it.
  const core::InitialVector initial =
      frame.value_plane == "blob" ? core::InitialVector(frame.blobs)
                                  : core::InitialVector(frame.values);
  if (initial.count() != frame.num_components) {
    throw std::invalid_argument(
        "restore: the frame holds " + std::to_string(initial.count()) +
        " payloads for m=" + std::to_string(frame.num_components));
  }
  std::uint32_t max_threads = frame.max_threads != 0 ? frame.max_threads : 1;
  auto snap = registry::make_snapshot(frame.impl_spec, initial, max_threads);
  if (snap->value_plane() != frame.value_plane) {
    throw std::invalid_argument("restore: spec '" + frame.impl_spec +
                                "' builds value plane '" +
                                std::string(snap->value_plane()) +
                                "' but the frame holds '" +
                                frame.value_plane + "'");
  }
  return snap;
}

}  // namespace psnap::recovery
