#include "baseline/lock_snapshot.h"

#include "common/assert.h"

namespace psnap::baseline {

std::uint32_t LockSnapshot::append(std::uint32_t count,
                                   const core::InitialVector& initial) {
  const auto first = static_cast<std::uint32_t>(data_.size());
  core::require_component_room(first, count);
  data_.resize(first + count);
  for (std::uint32_t k = 0; k < count; ++k) {
    initial.fill<value::DirectU64>(k, data_[first + k]);
  }
  count_.store(first + count, std::memory_order_release);
  return first;
}

std::uint32_t LockSnapshot::add_components(std::uint32_t count) {
  PSNAP_ASSERT(count > 0);
  std::scoped_lock lock(mu_);
  return append(count, {});
}

void LockSnapshot::update(std::uint32_t i, std::uint64_t v) {
  std::scoped_lock lock(mu_);
  // Bounds check under the lock: add_components resizes data_ under mu_,
  // so an unlocked size() read would race the resize.
  PSNAP_ASSERT(i < data_.size());
  data_[i] = v;
}

void LockSnapshot::update_batch(std::span<const core::BatchEntry> entries) {
  std::scoped_lock lock(mu_);
  // Applying in argument order makes duplicate indices last-wins without
  // a merge pass.
  for (const core::BatchEntry& e : entries) {
    PSNAP_ASSERT(e.index < data_.size());
    data_[e.index] = e.value;
  }
}

void LockSnapshot::scan(std::span<const std::uint32_t> indices,
                        std::vector<std::uint64_t>& out,
                        core::ScanContext& /*ctx*/) {
  out.clear();
  out.reserve(indices.size());
  std::scoped_lock lock(mu_);
  for (std::uint32_t i : indices) {
    PSNAP_ASSERT(i < data_.size());
    out.push_back(data_[i]);
  }
}

}  // namespace psnap::baseline
