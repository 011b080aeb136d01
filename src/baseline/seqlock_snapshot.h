// Global-seqlock partial snapshot.
//
// A single version counter guards the whole vector: writers make it odd,
// write, make it even; readers retry whenever the version moved.  Readers
// are invisible (no writes), which makes scans cheap at low update rates
// -- and starvation-prone at high ones, exactly like the double-collect
// algorithm but with a single global conflict domain instead of a per-
// component one.  A scan exceeding the retry cap throws StarvationError.
//
// Value plane (primitives/value_plane.h): this baseline stored RAW WORDS
// in its component registers, so it is the one implementation that needs
// primitives::ValueCell -- on the blob plane each cell becomes an atomic
// pointer to an immutable, pooled, EBR-reclaimed BlobNode.  An update
// builds the node and exchange()s it in inside the writer section; a
// reader dereferences under an EBR pin (held across the retry loop).
// Cost of the indirection: one extra acquire dereference per read, one
// pool acquire per update; step counts are unchanged.  The two planes are
// u64 and blob; bench_value_plane measures the blob plane's indirection.
#pragma once

#include <type_traits>
#include <vector>

#include "baseline/double_collect.h"  // StarvationError
#include "core/growth.h"
#include "core/partial_snapshot.h"
#include "core/scan_context.h"
#include "primitives/primitives.h"
#include "primitives/value_cell.h"
#include "primitives/value_plane.h"
#include "reclaim/ebr.h"
#include "reclaim/pool.h"

namespace psnap::baseline {

template <class Value = psnap::value::DirectU64>
class SeqlockSnapshotT final : public core::PartialSnapshot {
 public:
  using ValueType = typename Value::ValueType;

  // max_attempts_per_scan == 0 means retry forever.
  SeqlockSnapshotT(core::InitialVector initial,
                   std::uint64_t max_attempts_per_scan = 0);
  ~SeqlockSnapshotT() override;

  std::uint32_t num_components() const override { return size_.load(); }
  std::string_view name() const override {
    return Value::kIndirect ? "seqlock-blob" : "seqlock";
  }
  bool is_wait_free() const override { return false; }
  bool is_local() const override { return true; }
  std::string_view value_plane() const override { return Value::kName; }

  // Growth needs no version bump: new slots are initialized before the
  // count is published, and a reader only collects indices below the count
  // it captured at scan entry, so no value a reader has collected ever
  // changes because of a grow.
  std::uint32_t add_components(std::uint32_t count) override;
  void update(std::uint32_t i, std::uint64_t v) override;
  void scan(std::span<const std::uint32_t> indices,
            std::vector<std::uint64_t>& out, core::ScanContext& ctx) override;
  void update_blob(std::uint32_t i,
                   std::span<const std::byte> bytes) override;
  void scan_blobs(std::span<const std::uint32_t> indices,
                  std::vector<psnap::value::Blob>& out,
                  core::ScanContext& ctx) override;
  // Batched updates: both planes are kAtomic here, because the global
  // writer section is a natural multi-component critical section -- all k
  // writes land inside one odd/even window, so a scan either retries past
  // the whole batch or sees none of it.
  void update_batch(std::span<const core::BatchEntry> entries) override;
  void update_batch_blob(
      std::span<const core::BlobBatchEntry> entries) override;
  core::BatchAtomicity batch_atomicity() const override {
    return core::BatchAtomicity::kAtomic;
  }
  using core::PartialSnapshot::scan;
  using core::PartialSnapshot::scan_blobs;

 private:
  using Cell = primitives::ValueCell<Value, primitives::Instrumented>;

  // Reclamation state of the indirect plane (absent on the direct plane).
  // Pool before ebr: ~EbrDomain flushes retired nodes into the pool.
  struct BlobPlane {
    reclaim::Pool<primitives::BlobNode> pool;
    reclaim::EbrDomain ebr;
  };
  struct NoPlane {};

  // Builds components [first, first + count) for the constructor and
  // add_components: the raw word on the u64 plane, an initial node on the
  // blob plane.
  void build_components(std::uint32_t first, std::uint32_t count,
                        const core::InitialVector& initial);

  template <class Fill>
  void do_update(std::uint32_t i, Fill&& fill);
  template <class EntryT, class Fill>
  void do_update_batch(std::span<const EntryT> entries, Fill&& fill);
  // Runs the seqlock retry loop; `collect` re-reads the components into
  // the caller's buffers on each attempt (overwriting in place).
  template <class Collect>
  void do_scan(std::span<const std::uint32_t> indices, std::uint32_t m,
               Collect&& collect);

  core::GrowableSize size_;
  std::uint64_t max_attempts_;
  primitives::CasObject<std::uint64_t> version_;
  core::ComponentStorage<Cell> data_;
  [[no_unique_address]] std::conditional_t<Value::kIndirect, BlobPlane,
                                           NoPlane>
      plane_;
};

using SeqlockSnapshot = SeqlockSnapshotT<psnap::value::DirectU64>;
using SeqlockSnapshotBlob = SeqlockSnapshotT<psnap::value::IndirectBlob>;

}  // namespace psnap::baseline
