// Figure 1: wait-free partial snapshot from registers.
//
// Per component i, a register R[i] holds (a pointer to) an immutable record
// (value, view, counter, id).  Updates write a fresh record whose view is
// the result of an *embedded partial scan* covering the union of the
// component sets announced by currently-active scanners; scanners announce
// in A[pid] and register themselves in an active set around their embedded
// scan.  An embedded scan terminates when either
//
//   (1) two consecutive collects are identical (the values were
//       simultaneously present between the collects), or
//   (2) the same process has been observed to publish two records that
//       each *appeared as a change* during this scan ("moved twice"): the
//       later of the two belongs to an update whose own embedded scan
//       started after this one, so its view may be borrowed (it covers our
//       announced components -- asserted at extraction time).  This is the
//       multi-writer-sound reading of the paper's "three different values
//       written by the same process have been seen (in any locations)";
//       see the implementation comment for why the literal reading is a
//       single-writer artifact.
//
// Linearization (paper Section 3): updates at their register write; a
// condition-(1) embedded scan between its two identical collects; a
// condition-(2) embedded scan at the linearization point of the embedded
// scan it borrows from; a scan at its embedded scan.
//
// Runtime policy (see primitives.h): RegisterPartialSnapshotT<Instrumented>
// is the step-counted, sim-safe build; the Release instantiation
// ("fig1_register_fast") publishes records with release exchanges and
// collects with acquire loads -- the memory-order downgrade arguments are
// at the use sites in register_psnap.cpp and tabulated in README.md.
//
// Value plane (see primitives/value_plane.h): the second template
// parameter picks the payload representation.  DirectU64 is the paper's
// word component, bit-identical to the historical code; IndirectBlob
// embeds a variable-size byte payload in the record, riding the same
// publication, helping, pooling, and crash-unwind machinery -- the
// algorithm synchronizes on record identity, never on payload shape, so
// nothing in the protocol changes and step counts are plane-invariant.
//
// Steady-state updates and scans are allocation-free: Records and
// announcement IndexSets recycle through reclaim::Pool free lists (on the
// blob plane the payload buffers keep their capacity across record lives).
//
// Dynamic runtime: components live in grow-only segmented storage, so
// add_components() extends the vector at runtime (never invalidating a
// concurrent reader's pointers) and num_components() is a monotone count;
// per-pid state (announcements, counters) is likewise segment-backed and
// keyed by dynamically registered pids (exec::ThreadRegistry), with
// max_processes only an upper bound on concurrently live pids.
#pragma once

#include <vector>

#include "activeset/register_active_set.h"
#include "common/padding.h"
#include "core/growth.h"
#include "core/partial_snapshot.h"
#include "core/record.h"
#include "core/scan_context.h"
#include "exec/pid_bound.h"
#include "primitives/primitives.h"
#include "primitives/value_plane.h"
#include "reclaim/ebr.h"
#include "reclaim/pool.h"

namespace psnap::core {

template <class Policy = primitives::Instrumented,
          class Value = value::DirectU64>
class RegisterPartialSnapshotT final : public PartialSnapshot {
 public:
  using ValueType = typename Value::ValueType;
  using Rec = RecordT<ValueType>;
  using ViewV = ViewT<ValueType>;

  // Figure 1 owns the register-only active set in the same runtime
  // policy, as the paper's Figure 1 does.  `bound` is the per-pid walk
  // bound (exec/pid_bound.h): it bounds that active set's collect and
  // sizes the condition-(2) helping table, so both cost O(live pids) under
  // the default watermark bound.
  RegisterPartialSnapshotT(InitialVector initial,
                           std::uint32_t max_processes,
                           exec::PidBound bound = {});
  ~RegisterPartialSnapshotT() override;

  std::uint32_t num_components() const override { return size_.load(); }
  std::string_view name() const override {
    if constexpr (Value::kIndirect) {
      return Policy::kCountsSteps ? "fig1-register-blob"
                                  : "fig1-register-blob-fast";
    } else {
      return Policy::kCountsSteps ? "fig1-register" : "fig1-register-fast";
    }
  }
  bool is_wait_free() const override { return true; }
  // Scans are contention-local but the helping machinery makes update cost
  // depend on scanner announcements, not on m; scan steps never depend on
  // m either.  (The active-set term is the register active set's collect:
  // O(live pids) under the watermark bound; activeset/register_active_set.h
  // explains the substitution.)
  bool is_local() const override { return true; }
  std::string_view value_plane() const override { return Value::kName; }

  std::uint32_t add_components(std::uint32_t count) override;
  void update(std::uint32_t i, std::uint64_t v) override;
  void scan(std::span<const std::uint32_t> indices,
            std::vector<std::uint64_t>& out, ScanContext& ctx) override;
  void update_blob(std::uint32_t i,
                   std::span<const std::byte> bytes) override;
  void scan_blobs(std::span<const std::uint32_t> indices,
                  std::vector<value::Blob>& out, ScanContext& ctx) override;
  using PartialSnapshot::scan;
  using PartialSnapshot::scan_blobs;

  activeset::RegisterActiveSetT<Policy>& active_set() { return as_; }

  // Pool observability for the allocation tests.
  const reclaim::Pool<Rec>& record_pool() const { return record_pool_; }

 private:
  // Runs the embedded partial scan over `args` (sorted unique), filling
  // the context's plane view with a sorted view covering at least
  // `args`... for condition (1) exactly `args`; for condition (2) whatever
  // the borrowed view covers (a superset of every set announced by
  // scanners that joined before this embedded scan began -- which is what
  // scan() relies on).
  const ViewV& embedded_scan(std::span<const std::uint32_t> args,
                             ScanContext& ctx);

  // The one update body; `fill` writes the new payload into the record
  // (u64 encoding or blob bytes).
  template <class Fill>
  void do_update(std::uint32_t i, Fill&& fill);
  // Builds components [first, first + count) -- initial records, then
  // heads (core/record.h) -- for the constructor and add_components.
  void build_components(std::uint32_t first, std::uint32_t count,
                        const InitialVector& initial) {
    build_initial_records<Value>(initial_records_, r_, first, count,
                                 initial);
  }
  // The one scan body; `emit(k, value)` receives indices[k]'s value in the
  // final view (u64 decoding or blob copies).
  template <class Emit>
  void do_scan(std::span<const std::uint32_t> indices, ScanContext& ctx,
               Emit&& emit);

  // Published component count (monotone; see core/growth.h).
  GrowableSize size_;
  std::uint32_t n_;
  // Per-pid walk bound: sizes the embedded scan's moved-twice table (with
  // mid-scan regrowth when a fresh pid publishes; see seen_tracker in
  // register_psnap.cpp) and bounds the destructor's announcement sweep.
  exec::PidBound bound_;
  // Declaration order is teardown order, reversed: ebr_ is destroyed first
  // and flushes its retired nodes into the pools; the pools then dispose
  // of their free lists; the initial-record storage goes last, because
  // displaced initial records sit in those lists and in the heads until
  // then (RecordHeader::dispose skips them).
  //
  // The initial records (core/record.h), built in place: one allocation
  // per segment.  Padded like r_'s heads: a recycled initial record is
  // rewritten by its next updater while scanners read its neighbours.
  ComponentStorage<CachelinePadded<Rec>> initial_records_;
  reclaim::Pool<Rec> record_pool_;
  reclaim::Pool<IndexSet> announce_pool_;
  // CachelinePadded: a Register is 16 bytes; without padding four
  // components (or four processes' announcement slots) would share a line
  // and false-share under concurrent traffic, matching counter_'s
  // treatment.  Segmented (grow-only) storage: slot addresses are stable
  // forever, so concurrent readers survive growth.
  ComponentStorage<
      CachelinePadded<primitives::Register<const Rec*, Policy>>>
      r_;
  PerPidStorage<
      CachelinePadded<primitives::Register<const IndexSet*, Policy>>>
      a_;
  activeset::RegisterActiveSetT<Policy> as_;
  reclaim::EbrDomain ebr_;
  // Per-process publication counters (only the owner writes; reads by the
  // owner only), giving unique (pid, counter) record tags.  Counters are
  // keyed by pid, so a thread that re-registers under a reused pid simply
  // continues that pid's counter sequence -- tags stay unique.
  PerPidStorage<CachelinePadded<std::uint64_t>> counter_;
};

using RegisterPartialSnapshot =
    RegisterPartialSnapshotT<primitives::Instrumented>;
using RegisterPartialSnapshotFast =
    RegisterPartialSnapshotT<primitives::Release>;
using RegisterPartialSnapshotBlob =
    RegisterPartialSnapshotT<primitives::Instrumented, value::IndirectBlob>;
using RegisterPartialSnapshotBlobFast =
    RegisterPartialSnapshotT<primitives::Release, value::IndirectBlob>;

}  // namespace psnap::core
