// Global-mutex partial snapshot.
//
// The practical strawman: one lock serializes everything, so consistency is
// trivial and per-operation cost is O(r) plus lock traffic.  Blocking (a
// suspended lock holder stalls the system) and performs no base-object
// steps in the paper's model; the CMP bench reports wall-clock only.
#pragma once

#include <atomic>
#include <mutex>
#include <vector>

#include "core/growth.h"
#include "core/partial_snapshot.h"
#include "core/scan_context.h"

namespace psnap::baseline {

class LockSnapshot final : public core::PartialSnapshot {
 public:
  explicit LockSnapshot(core::InitialVector initial) : count_(0) {
    append(initial.count(), initial);
  }

  std::uint32_t num_components() const override {
    return count_.load(std::memory_order_acquire);
  }
  std::string_view name() const override { return "lock"; }
  bool is_wait_free() const override { return false; }
  bool is_local() const override { return true; }

  // Growth is serialized by the global mutex (in character for this
  // baseline); the count is mirrored in an atomic so num_components() does
  // not need the lock.
  std::uint32_t add_components(std::uint32_t count) override;
  void update(std::uint32_t i, std::uint64_t v) override;
  void scan(std::span<const std::uint32_t> indices,
            std::vector<std::uint64_t>& out, core::ScanContext& ctx) override;
  // One critical section covers all k writes, so batches are trivially
  // atomic -- the lock baseline is the reference implementation the
  // batch-atomicity oracle checks the clever ones against.
  void update_batch(std::span<const core::BatchEntry> entries) override;
  core::BatchAtomicity batch_atomicity() const override {
    return core::BatchAtomicity::kAtomic;
  }
  using core::PartialSnapshot::scan;

 private:
  // Appends `count` components, each from `initial` or at 0, under the
  // core::kMaxComponents limit (std::length_error, nothing appended);
  // returns the first new index.  The constructor's and add_components'
  // one body.  Callers hold mu_ once the object is shared.
  std::uint32_t append(std::uint32_t count,
                       const core::InitialVector& initial);

  std::mutex mu_;
  std::atomic<std::uint32_t> count_;
  std::vector<std::uint64_t> data_;
};

}  // namespace psnap::baseline
