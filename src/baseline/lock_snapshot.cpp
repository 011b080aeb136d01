#include "baseline/lock_snapshot.h"

#include "common/assert.h"

namespace psnap::baseline {

template <class Value>
std::uint32_t LockSnapshotT<Value>::append(
    std::uint32_t count, const core::InitialVector& initial) {
  const auto first = static_cast<std::uint32_t>(data_.size());
  core::require_component_room(first, count);
  data_.resize(first + count);
  for (std::uint32_t k = 0; k < count; ++k) {
    initial.fill<Value>(k, initial_value_, data_[first + k]);
  }
  count_.store(first + count, std::memory_order_release);
  return first;
}

template <class Value>
std::uint32_t LockSnapshotT<Value>::add_components(std::uint32_t count) {
  PSNAP_ASSERT(count > 0);
  std::scoped_lock lock(mu_);
  return append(count, {});
}

template <class Value>
void LockSnapshotT<Value>::update(std::uint32_t i, std::uint64_t v) {
  std::scoped_lock lock(mu_);
  // Bounds check under the lock: add_components resizes data_ under mu_,
  // so an unlocked size() read would race the resize.
  PSNAP_ASSERT(i < data_.size());
  Value::encode(v, data_[i]);
}

template <class Value>
void LockSnapshotT<Value>::update_blob(std::uint32_t i,
                                       std::span<const std::byte> bytes) {
  if constexpr (Value::kIndirect) {
    std::scoped_lock lock(mu_);
    PSNAP_ASSERT(i < data_.size());
    Value::assign(data_[i], bytes);
  } else {
    core::PartialSnapshot::update_blob(i, bytes);
  }
}

template <class Value>
void LockSnapshotT<Value>::update_batch(
    std::span<const core::BatchEntry> entries) {
  std::scoped_lock lock(mu_);
  // Applying in argument order makes duplicate indices last-wins without
  // a merge pass.
  for (const core::BatchEntry& e : entries) {
    PSNAP_ASSERT(e.index < data_.size());
    Value::encode(e.value, data_[e.index]);
  }
}

template <class Value>
void LockSnapshotT<Value>::update_batch_blob(
    std::span<const core::BlobBatchEntry> entries) {
  if constexpr (Value::kIndirect) {
    std::scoped_lock lock(mu_);
    for (const core::BlobBatchEntry& e : entries) {
      PSNAP_ASSERT(e.index < data_.size());
      Value::assign(data_[e.index], e.bytes);
    }
  } else {
    core::PartialSnapshot::update_batch_blob(entries);
  }
}

template <class Value>
void LockSnapshotT<Value>::scan(std::span<const std::uint32_t> indices,
                                std::vector<std::uint64_t>& out,
                                core::ScanContext& /*ctx*/) {
  out.clear();
  out.reserve(indices.size());
  std::scoped_lock lock(mu_);
  for (std::uint32_t i : indices) {
    PSNAP_ASSERT(i < data_.size());
    out.push_back(Value::decode(data_[i]));
  }
}

template <class Value>
void LockSnapshotT<Value>::scan_blobs(std::span<const std::uint32_t> indices,
                                      std::vector<psnap::value::Blob>& out,
                                      core::ScanContext& ctx) {
  if constexpr (Value::kIndirect) {
    out.resize(indices.size());  // keeps element byte capacity
    std::scoped_lock lock(mu_);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      PSNAP_ASSERT(indices[k] < data_.size());
      Value::copy(data_[indices[k]], out[k]);
    }
  } else {
    core::PartialSnapshot::scan_blobs(indices, out, ctx);
  }
}

template class LockSnapshotT<psnap::value::DirectU64>;
template class LockSnapshotT<psnap::value::IndirectBlob>;

}  // namespace psnap::baseline
