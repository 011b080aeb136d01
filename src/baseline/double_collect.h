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
//
// Value plane (primitives/value_plane.h): the record already carries the
// payload behind the published pointer, so the blob plane just swaps the
// record's value field for an owned byte buffer.
#pragma once

#include <stdexcept>
#include <vector>

#include "common/padding.h"
#include "core/growth.h"
#include "core/partial_snapshot.h"
#include "core/record.h"
#include "core/scan_context.h"
#include "primitives/primitives.h"
#include "primitives/value_plane.h"
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

template <class Value = psnap::value::DirectU64>
class DoubleCollectSnapshotT final : public core::PartialSnapshot {
 public:
  using ValueType = typename Value::ValueType;

  // max_collects_per_scan == 0 means retry forever.
  DoubleCollectSnapshotT(core::InitialVector initial,
                         std::uint32_t max_processes,
                         std::uint64_t max_collects_per_scan = 0,
                         std::uint64_t initial_value = 0);
  ~DoubleCollectSnapshotT() override;

  std::uint32_t num_components() const override { return size_.load(); }
  std::string_view name() const override {
    return Value::kIndirect ? "double-collect-blob" : "double-collect";
  }
  bool is_wait_free() const override { return false; }
  bool is_local() const override { return true; }
  std::string_view value_plane() const override { return Value::kName; }

  std::uint32_t add_components(std::uint32_t count) override;
  void update(std::uint32_t i, std::uint64_t v) override;
  void scan(std::span<const std::uint32_t> indices,
            std::vector<std::uint64_t>& out, core::ScanContext& ctx) override;
  void update_blob(std::uint32_t i,
                   std::span<const std::byte> bytes) override;
  void scan_blobs(std::span<const std::uint32_t> indices,
                  std::vector<psnap::value::Blob>& out,
                  core::ScanContext& ctx) override;
  // Batched updates share one EBR pin and one retire wave, but each of
  // the k exchanges still linearizes on its own (there is no helping
  // round here to amortize) -- kAmortized.
  void update_batch(std::span<const core::BatchEntry> entries) override;
  void update_batch_blob(
      std::span<const core::BlobBatchEntry> entries) override;
  core::BatchAtomicity batch_atomicity() const override {
    return core::BatchAtomicity::kAmortized;
  }
  using core::PartialSnapshot::scan;
  using core::PartialSnapshot::scan_blobs;

 private:
  // Plain (value, tag) records: no embedded views, that is the point.
  struct SimpleRecord {
    ValueType value{};
    std::uint64_t counter = 0;
    std::uint32_t pid = core::kInitPid;
  };

  SimpleRecord* make_record(std::uint64_t counter, std::uint32_t pid) {
    auto* rec = new SimpleRecord();
    rec->counter = counter;
    rec->pid = pid;
    return rec;
  }

  template <class Fill>
  void do_update(std::uint32_t i, Fill&& fill);
  // Builds components [first, first + count), one initial record each,
  // for the constructor and add_components.
  void build_components(std::uint32_t first, std::uint32_t count,
                        const core::InitialVector& initial);
  template <class EntryT, class Fill>
  void do_update_batch(std::span<const EntryT> entries, Fill&& fill);
  // Runs the double collect; `extract` receives a lookup from a requested
  // index to its record in the stable collect (still EBR-pinned).
  template <class Extract>
  void do_scan(std::span<const std::uint32_t> indices,
               core::ScanContext& ctx, Extract&& extract);

  core::GrowableSize size_;
  std::uint32_t n_;
  std::uint64_t initial_value_;
  std::uint64_t max_collects_;
  core::ComponentStorage<primitives::Register<const SimpleRecord*>> r_;
  reclaim::EbrDomain ebr_;
  core::PerPidStorage<CachelinePadded<std::uint64_t>> counter_;
};

using DoubleCollectSnapshot = DoubleCollectSnapshotT<psnap::value::DirectU64>;
using DoubleCollectSnapshotBlob =
    DoubleCollectSnapshotT<psnap::value::IndirectBlob>;

}  // namespace psnap::baseline
