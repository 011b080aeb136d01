// Double-collect partial snapshot: the paper's Section 1 "simple variant of
// the original non-blocking snapshot algorithm of Afek et al.".
//
// A scan repeatedly collects the requested components and returns once two
// consecutive collects are identical.  There is no helping, so "individual
// scans may never terminate: a slow scanner can keep seeing different
// collects if fast updates are concurrently being performed" -- the
// implementation is lock-free (updates always make progress) but NOT
// wait-free.  Used as a correctness baseline at low contention, and by the
// ABL-2 ablation bench to demonstrate the starvation the helping mechanism
// exists to prevent.
//
// A scan that exceeds the configured collect cap throws StarvationError
// rather than returning an inconsistent result.
#pragma once

#include <stdexcept>
#include <vector>

#include "common/padding.h"
#include "core/growth.h"
#include "core/partial_snapshot.h"
#include "core/record.h"
#include "core/scan_context.h"
#include "primitives/primitives.h"
#include "reclaim/ebr.h"

namespace psnap::baseline {

class StarvationError : public std::runtime_error {
 public:
  explicit StarvationError(std::uint64_t collects)
      : std::runtime_error("scan starved after " + std::to_string(collects) +
                           " collects"),
        collects(collects) {}

  std::uint64_t collects;
};

class DoubleCollectSnapshot final : public core::PartialSnapshot {
 public:
  // max_collects_per_scan == 0 means retry forever.
  DoubleCollectSnapshot(core::InitialVector initial,
                        std::uint32_t max_processes,
                        std::uint64_t max_collects_per_scan = 0);
  ~DoubleCollectSnapshot() override;

  std::uint32_t num_components() const override { return size_.load(); }
  std::string_view name() const override { return "double-collect"; }
  bool is_wait_free() const override { return false; }
  bool is_local() const override { return true; }

  std::uint32_t add_components(std::uint32_t count) override;
  void update(std::uint32_t i, std::uint64_t v) override;
  void scan(std::span<const std::uint32_t> indices,
            std::vector<std::uint64_t>& out, core::ScanContext& ctx) override;
  // Batched updates share one EBR pin and one retire wave, but each of
  // the k exchanges still linearizes on its own (there is no helping
  // round here to amortize) -- kAmortized.
  void update_batch(std::span<const core::BatchEntry> entries) override;
  core::BatchAtomicity batch_atomicity() const override {
    return core::BatchAtomicity::kAmortized;
  }
  using core::PartialSnapshot::scan;

 private:
  // Plain (value, tag) records: no embedded views, that is the point.
  struct SimpleRecord {
    std::uint64_t value = 0;
    std::uint64_t counter = 0;
    std::uint32_t pid = core::kInitPid;
  };

  // Publishes a fresh record for component i on behalf of `pid` and
  // retires the one it replaces.
  void publish(std::uint32_t i, std::uint64_t v, std::uint32_t pid);
  // Builds components [first, first + count), one initial record each,
  // for the constructor and add_components.
  void build_components(std::uint32_t first, std::uint32_t count,
                        const core::InitialVector& initial);

  core::GrowableSize size_;
  std::uint32_t n_;
  std::uint64_t max_collects_;
  core::ComponentStorage<primitives::Register<const SimpleRecord*>> r_;
  reclaim::EbrDomain ebr_;
  core::PerPidStorage<CachelinePadded<std::uint64_t>> counter_;
};

}  // namespace psnap::baseline
