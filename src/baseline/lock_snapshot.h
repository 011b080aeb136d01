// Global-mutex partial snapshot.
//
// The practical strawman: one lock serializes everything, so consistency is
// trivial and per-operation cost is O(r) plus lock traffic.  Blocking (a
// suspended lock holder stalls the system) and performs no base-object
// steps in the paper's model; the CMP bench reports wall-clock only.
//
// Value plane (primitives/value_plane.h): the mutex already serializes all
// access, so the blob plane needs no indirection here at all -- payloads
// live directly in the guarded vector, the honest lock-based counterpart.
#pragma once

#include <atomic>
#include <mutex>
#include <vector>

#include "core/growth.h"
#include "core/partial_snapshot.h"
#include "core/scan_context.h"
#include "primitives/value_plane.h"

namespace psnap::baseline {

template <class Value = psnap::value::DirectU64>
class LockSnapshotT final : public core::PartialSnapshot {
 public:
  using ValueType = typename Value::ValueType;

  LockSnapshotT(core::InitialVector initial, std::uint64_t initial_value = 0)
      : count_(0), initial_value_(initial_value) {
    append(initial.count(), initial);
  }

  std::uint32_t num_components() const override {
    return count_.load(std::memory_order_acquire);
  }
  std::string_view name() const override {
    return Value::kIndirect ? "lock-blob" : "lock";
  }
  bool is_wait_free() const override { return false; }
  bool is_local() const override { return true; }
  std::string_view value_plane() const override { return Value::kName; }

  // Growth is serialized by the global mutex (in character for this
  // baseline); the count is mirrored in an atomic so num_components() does
  // not need the lock.
  std::uint32_t add_components(std::uint32_t count) override;
  void update(std::uint32_t i, std::uint64_t v) override;
  void scan(std::span<const std::uint32_t> indices,
            std::vector<std::uint64_t>& out, core::ScanContext& ctx) override;
  void update_blob(std::uint32_t i,
                   std::span<const std::byte> bytes) override;
  void scan_blobs(std::span<const std::uint32_t> indices,
                  std::vector<psnap::value::Blob>& out,
                  core::ScanContext& ctx) override;
  // One critical section covers all k writes, so batches are trivially
  // atomic -- the lock baseline is the reference implementation the
  // batch-atomicity oracle checks the clever ones against.
  void update_batch(std::span<const core::BatchEntry> entries) override;
  void update_batch_blob(
      std::span<const core::BlobBatchEntry> entries) override;
  core::BatchAtomicity batch_atomicity() const override {
    return core::BatchAtomicity::kAtomic;
  }
  using core::PartialSnapshot::scan;
  using core::PartialSnapshot::scan_blobs;

 private:
  // Appends `count` components, each from `initial` or at the initial
  // value, under the core::kMaxComponents limit (std::length_error,
  // nothing appended); returns the first new index.  The constructor's
  // and add_components' one body.  Callers hold mu_ once the object is
  // shared.
  std::uint32_t append(std::uint32_t count,
                       const core::InitialVector& initial);

  std::mutex mu_;
  std::atomic<std::uint32_t> count_;
  std::uint64_t initial_value_;
  std::vector<ValueType> data_;
};

using LockSnapshot = LockSnapshotT<psnap::value::DirectU64>;
using LockSnapshotBlob = LockSnapshotT<psnap::value::IndirectBlob>;

}  // namespace psnap::baseline
