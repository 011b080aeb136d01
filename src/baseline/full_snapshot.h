// Complete-scan snapshot baseline (Afek et al. [1], as recapped in the
// paper's Section 3, with the Section 3 helping rule).
//
// This is the implementation the paper calls "wasteful": a snapshot object
// trivially implements a partial snapshot object by extracting the
// requested components from a complete scan (Section 1).  Every embedded
// scan reads all m components, every update carries a full m-entry view,
// and therefore both operations cost Omega(m) no matter how small the
// partial scan's argument set is.  The LOC and CMP benches plot it against
// the paper's algorithms to reproduce the locality argument, which needs
// only word-sized components: this baseline has the u64 plane alone.
#pragma once

#include <cstdint>
#include <vector>

#include "common/padding.h"
#include "core/growth.h"
#include "core/partial_snapshot.h"
#include "core/record.h"  // kInitPid
#include "core/scan_context.h"
#include "primitives/primitives.h"
#include "reclaim/ebr.h"
#include "reclaim/pool.h"

namespace psnap::baseline {

class FullSnapshot final : public core::PartialSnapshot {
 public:
  FullSnapshot(core::InitialVector initial, std::uint32_t max_processes);
  ~FullSnapshot() override;

  std::uint32_t num_components() const override { return size_.load(); }
  std::string_view name() const override { return "full-snapshot"; }
  bool is_wait_free() const override { return true; }
  bool is_local() const override { return false; }

  std::uint32_t add_components(std::uint32_t count) override;
  void update(std::uint32_t i, std::uint64_t v) override;
  void scan(std::span<const std::uint32_t> indices,
            std::vector<std::uint64_t>& out, core::ScanContext& ctx) override;
  // Batched updates share ONE embedded full scan (the Omega(m) helping
  // cost, paid once for k writes) and publish k records by exchange --
  // kAmortized.
  void update_batch(std::span<const core::BatchEntry> entries) override;
  core::BatchAtomicity batch_atomicity() const override {
    return core::BatchAtomicity::kAmortized;
  }
  using core::PartialSnapshot::scan;

 private:
  struct FullRecord {
    std::uint64_t value = 0;
    std::uint64_t counter = 0;
    std::uint32_t pid = core::kInitPid;
    // All components up to the count the publishing operation captured.
    // Growth keeps this sound: a borrowed record belongs to an operation
    // that started after the borrower, so its full_view covers at least
    // the borrower's captured count (counts are monotone and captured
    // with seq_cst loads -- see embedded_full_scan).
    std::vector<std::uint64_t> full_view;

    bool is_initial() const { return pid == core::kInitPid; }
  };

  using Slot = primitives::Register<const FullRecord*>;

  // Builds components [first, first + count), one initial record each,
  // for the constructor and add_components.
  void build_components(std::uint32_t first, std::uint32_t count,
                        const core::InitialVector& initial);

  // Fills the context's values with components [0, m) for the count m the
  // caller captured at operation start.
  std::vector<std::uint64_t>& embedded_full_scan(core::ScanContext& ctx,
                                                 std::uint32_t m);

  // Publishes `value` at component i by exchange, recording the embedded
  // scan `vals` and the operation's `counter`.
  void publish(std::uint32_t i, std::uint64_t value, std::uint64_t counter,
               std::uint32_t pid, const std::vector<std::uint64_t>& vals);

  core::GrowableSize size_;
  std::uint32_t n_;
  // Pool before ebr_: ~EbrDomain flushes retired records into it.  Pooled
  // records keep their full_view capacity, so steady-state updates are
  // allocation-free even though every record carries all m values.
  reclaim::Pool<FullRecord> record_pool_;
  core::ComponentStorage<Slot> r_;
  reclaim::EbrDomain ebr_;
  core::PerPidStorage<CachelinePadded<std::uint64_t>> counter_;
};

}  // namespace psnap::baseline
