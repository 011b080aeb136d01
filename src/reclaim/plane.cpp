#include "reclaim/plane.h"

#include "common/assert.h"

namespace psnap::reclaim {

Plane::Plane(Kind kind, std::uint32_t shards, std::uint32_t segment_components)
    : shards_(shards), segment_components_(segment_components) {
  PSNAP_ASSERT_MSG(shards >= 1 && shards <= kMaxShards,
                   "reclamation shard count out of range");
  PSNAP_ASSERT(segment_components > 0);
  if (kind == Kind::kHazard) {
    PSNAP_ASSERT_MSG(shards == 1,
                     "reclaim=hp already bounds a stalled reader per record; "
                     "shards apply to the ebr plane only");
    hp_ = std::make_unique<HazardDomain>();
    return;
  }
  ebr_.reserve(shards_);
  for (std::uint32_t s = 0; s < shards_; ++s) {
    ebr_.push_back(std::make_unique<EbrDomain>());
  }
}

std::uint64_t Plane::outstanding() const {
  std::uint64_t total = hp_ ? hp_->outstanding() : 0;
  for (const auto& d : ebr_) total += d->outstanding();
  return total;
}

}  // namespace psnap::reclaim
