// Figure 3: partial snapshot with local scans, from compare&swap and
// fetch&increment (Section 4.2) -- the paper's headline algorithm.
//
// Differences from Figure 1:
//
//   * each component R[i] is a compare&swap object; an update reads the old
//     record first and publishes with CAS(old, new).  A failed CAS leaves
//     no trace and the update linearizes immediately before the competing
//     successful CAS on the same component;
//   * the embedded scan's condition (2) triggers on three different values
//     seen *in some single location* (rather than by one process anywhere),
//     and borrows the view of the *third* value seen there.  Because
//     updates publish with CAS, the update that installed the third value
//     read the component after the second value was installed -- i.e. after
//     this embedded scan began -- so its embedded scan (and getSet) started
//     after ours, making the borrow safe;
//   * the active set is the Figure 2 algorithm, making join/leave O(1).
//
// Consequence (Theorem 3): a partial scan of r components terminates within
// 2r+1 collects of r reads each -- O(r^2) worst case, independent of both m
// and the contention.  That locality is what the LOC/T3 benches measure and
// what the access-log tests assert.
//
// The r reads of a collect overlap their cache misses on the EBR plane: a
// block of kReadBlock heads is loaded and their records prefetched before
// the first is dereferenced, so a collect waits on about r / kReadBlock
// memory latencies instead of r.  The loads still run in index order, so
// the step sequence is exactly the serial loop's.  Under hp a read is one
// validated location at a time (Op::protect, then dereference).  The
// versioned scan below blocks its head loads the same way and pipelines
// the blocks: it gathers block k+1 (loads its heads, prefetches their
// records) before it reads block k's versions, so one block's head misses
// overlap the previous block's record misses.  Same 1 + 2r steps; only
// the order moves.  Its heads are also dense, four to a line (HeadSlot
// below), where the collect planes keep one head per line.
//
// Runtime policy (see primitives.h): CasPartialSnapshotT<Instrumented> is
// the step-counted, sim-safe build; CasPartialSnapshotT<Release>
// ("fig3_cas_fast") swaps seq_cst for acquire/release and drops the
// accounting.  Release-mode soundness is argued at each use site in
// cas_psnap.cpp; the skeleton is that every synchronization decision here
// is (a) publication of an immutable record through one atomic word, read
// with acquire, or (b) a CAS/F&I, which remains an RMW on the newest value
// in its location's modification order even at acq_rel.
//
// Value plane (see primitives/value_plane.h): the second template
// parameter picks the payload representation -- DirectU64 (the historical
// word component, bit-identical) or IndirectBlob (variable-size byte
// payloads embedded in the CAS'd record).  The CAS compares record
// IDENTITY, not payload bytes, so the protocol -- including the per-
// location condition (2) -- is untouched, and step counts are
// plane-invariant.
//
// Versioned plane (VersionedU64; see primitives/version_chain.h): the
// records double as version-chain nodes and a camera epoch replaces the
// whole announce/join/collect machinery on BOTH sides.  An update becomes
// help-stamp + one CAS + lazy chain trim (constant interference,
// independent of how many scanners are live -- collect-mode updates pay
// an embedded scan over the union of all announced sets); a scan becomes
// one camera fetch-add plus one chain read per requested component (O(r),
// beating Theorem 3's O(r^2) collect bound, with no helping round at
// all).  Wait-freedom is preserved: the update keeps fig3's try-once CAS
// (a failed update still linearizes immediately before the winner), and
// the chain walk is bounded by the nodes stamped after the scan's epoch.
//
// Steady-state updates and scans are allocation-free: Records and
// announcement IndexSets are recycled through reclaim::Pool free lists
// (their embedded vectors -- and the blob plane's payload buffers -- keep
// capacity across lives), and all transient scratch lives in the caller's
// ScanContext.
//
// Reclamation plane (options use_hp / reclaim_shards; reclaim/plane.h):
// every operation body protects its reads and recycles its records through
// one reclaim::Plane -- EBR sharded by component segment, so an operation
// pins only the shards its components map to and a stalled reader's blast
// radius is one shard, or hazard pointers, where a stalled reader blocks
// at most the handful of records it has protected.  Every counted step is
// the same base-object operation on either plane; hp's hazard
// publications and validation re-reads are non-steps (peek_sync), exactly
// like EBR's pins.  Where the protocol itself must differ, it branches on
// plane_.validates_each_read(), read once per operation: the collect's
// block size (1 under hp, copying each entry while its hazard stands), the
// versioned scan's depth-2 restart walk, the per-entry batch fallback, and
// the failed versioned update's re-protected stamp fix.  One restriction,
// enforced at construction: the versioned plane requires reclaim_shards ==
// 1 (batch helping crosses components, hence shards; hp is the versioned
// plane's tail-latency answer instead).
// Dynamic runtime: components live in grow-only segmented storage
// (add_components() never invalidates a concurrent reader's pointers,
// num_components() is a monotone count) and per-pid state keys off
// dynamically registered pids -- see core/growth.h and
// exec/thread_registry.h.
#pragma once

#include <memory>
#include <type_traits>
#include <vector>

#include "activeset/faicas_active_set.h"
#include "common/padding.h"
#include "core/growth.h"
#include "core/partial_snapshot.h"
#include "core/record.h"
#include "core/scan_context.h"
#include "primitives/primitives.h"
#include "primitives/value_plane.h"
#include "reclaim/plane.h"
#include "reclaim/pool.h"

namespace psnap::core {

// Construction options, shared by every (Policy, Value) instantiation --
// a standalone type so registry factories can build one Options and hand
// it to whichever plane the spec selected.
struct CasSnapshotOptions {
  // Options forwarded to the embedded Figure 2 active set.  Its per-pid
  // walk bound (exec/pid_bound.h) also bounds the destructor's
  // announcement sweep.
  activeset::FaiCasOptions active_set;
  // Reclaim through hazard pointers instead of EBR (registry option
  // reclaim=hp).  Forces reclaim_shards == 1.
  bool use_hp = false;
  // EBR shard count (registry option shards=<k>): independent reclamation
  // domains keyed by component segment.  1 = the classic global domain.
  // Rejected on the versioned plane (batch helping crosses shards).
  std::uint32_t reclaim_shards = 1;
};

template <class Policy = primitives::Instrumented,
          class Value = value::DirectU64>
class CasPartialSnapshotT final : public PartialSnapshot {
 public:
  using ValueType = typename Value::ValueType;
  using Rec = RecordFor<Value>;
  using ViewV = ViewT<ValueType>;
  using Options = CasSnapshotOptions;

  // EBR read loops (collects and the versioned scan) load this many heads,
  // prefetch their records, and only then dereference them.  The versioned
  // scan keeps two such blocks in flight.
  static constexpr std::size_t kReadBlock = 16;

  CasPartialSnapshotT(InitialVector initial, std::uint32_t max_processes);
  CasPartialSnapshotT(InitialVector initial, std::uint32_t max_processes,
                      Options options);
  ~CasPartialSnapshotT() override;

  std::uint32_t num_components() const override { return size_.load(); }
  std::string_view name() const override {
    if constexpr (Value::kVersioned) {
      if (options_.use_hp) {
        return Policy::kCountsSteps ? "fig3-cas-versioned-hp"
                                    : "fig3-cas-versioned-hp-fast";
      }
      return Policy::kCountsSteps ? "fig3-cas-versioned"
                                  : "fig3-cas-versioned-fast";
    } else if constexpr (Value::kIndirect) {
      if (options_.use_hp) {
        return Policy::kCountsSteps ? "fig3-cas-blob-hp"
                                    : "fig3-cas-blob-hp-fast";
      }
      return Policy::kCountsSteps ? "fig3-cas-blob" : "fig3-cas-blob-fast";
    } else {
      if (options_.use_hp) {
        return Policy::kCountsSteps ? "fig3-cas-hp" : "fig3-cas-hp-fast";
      }
      return Policy::kCountsSteps ? "fig3-cas" : "fig3-cas-fast";
    }
  }
  // The collect protocol stays wait-free on either reclamation plane (hp
  // validation re-reads are non-steps, and each hazard publication is
  // validated against the one counted load it protects).  The versioned
  // plane under hp is only lock-free: a scan whose component's chain
  // outruns its protected depth restarts with a fresh epoch, which some
  // concurrent update's progress caused.
  bool is_wait_free() const override {
    return !(Value::kVersioned && options_.use_hp);
  }
  bool is_local() const override { return true; }
  std::string_view value_plane() const override { return Value::kName; }
  std::string_view reclaim_plane() const override { return plane_.name(); }
  std::uint32_t reclaim_shards() const override { return plane_.num_shards(); }
  std::uint64_t reclaim_outstanding() const override {
    return plane_.outstanding();
  }

  std::uint32_t add_components(std::uint32_t count) override;
  void update(std::uint32_t i, std::uint64_t v) override;
  void scan(std::span<const std::uint32_t> indices,
            std::vector<std::uint64_t>& out, ScanContext& ctx) override;
  void update_blob(std::uint32_t i,
                   std::span<const std::byte> bytes) override;
  // Batched updates.  Collect planes amortize: ONE getSet + announced-set
  // union + embedded scan (the helping round) is shared by all k records,
  // which then publish with fig3's per-entry try-once CAS -- kAmortized.
  // The versioned plane is kAtomic: the k chain nodes share one stamp
  // through a pooled batch descriptor, fixed only after every node is
  // installed (helpers included), so a scan's epoch falls entirely before
  // or entirely after the whole batch.
  void update_batch(std::span<const BatchEntry> entries) override;
  void update_batch_blob(std::span<const BlobBatchEntry> entries) override;
  // Under hp the versioned batch path falls back to per-entry singleton
  // publication (the descriptor's install helping would dereference other
  // components' heads unprotected), so only ebr-reclaimed versioned
  // batches are atomic; entries still never drop (each retries to CAS
  // success).
  BatchAtomicity batch_atomicity() const override {
    return (Value::kVersioned && !options_.use_hp) ? BatchAtomicity::kAtomic
                                                   : BatchAtomicity::kAmortized;
  }
  void scan_blobs(std::span<const std::uint32_t> indices,
                  std::vector<value::Blob>& out, ScanContext& ctx) override;
  std::uint64_t scan_versioned(std::span<const std::uint32_t> indices,
                               std::vector<std::uint64_t>& out,
                               ScanContext& ctx) override;
  using PartialSnapshot::scan;
  using PartialSnapshot::scan_blobs;
  using PartialSnapshot::scan_versioned;

  activeset::FaiCasActiveSetT<Policy>& active_set() { return *as_; }

  // Pool observability for the allocation tests.
  const reclaim::Pool<Rec>& record_pool() const { return record_pool_; }

  // A deliberately stalled reader, for the RCL bench and the reclamation
  // tests (reclaim::Plane::Parked over this object's heads): on EBR it
  // pins the meta shard plus the shards of `indices`; on hp it protects
  // the current heads of up to kHazardsPerThread of them.
  class ParkedReader : public reclaim::Plane::Parked {
   public:
    ParkedReader(CasPartialSnapshotT& snap,
                 std::span<const std::uint32_t> indices)
        : Parked(snap.plane_, indices, [&snap](std::uint32_t i) -> auto& {
            return *snap.r_.at(i);
          }) {}
  };

 private:
  using Op = reclaim::Plane::Op;

  // A component head: one CAS object holding the current record.
  //
  // Collect-plane heads are CachelinePadded.  A CasObject is 16 bytes, so
  // four components would share a line, and a collect-plane update both
  // CASes its own head and collects other heads in its embedded scan:
  // concurrent updates to distinct components would false-share.
  // Per-component isolation matches counter_'s treatment.
  //
  // Versioned-plane heads are dense (Unpadded, four per line).  A
  // versioned scan reads r heads and then their records, and nothing else
  // of the collect machinery, so at large m the padded array (64 bytes per
  // component, 4 MiB at m = 65536) outgrows L2 and every head in a window
  // is its own miss; dense, the same window touches a quarter of the
  // lines.  Versioned writers touch their head line once per update, for
  // the CAS, so the sharing they now pay is small beside what scanners
  // save (README.md, "Read loops overlap their cache misses", has the
  // numbers).
  using HeadCas = primitives::CasObject<const Rec*, Policy>;
  using HeadSlot = std::conditional_t<Value::kVersioned, Unpadded<HeadCas>,
                                      CachelinePadded<HeadCas>>;
  // Layout guards: neither plane's head layout may change by accident.
  static_assert(!Value::kVersioned ||
                    (sizeof(HeadSlot) == sizeof(HeadCas) &&
                     kCachelineBytes / sizeof(HeadSlot) == 4),
                "versioned heads are dense: four CasObjects per line");
  static_assert(Value::kVersioned ||
                    (alignof(HeadSlot) == kCachelineBytes &&
                     sizeof(HeadSlot) == kCachelineBytes),
                "collect-plane heads are padded: one per line");

  // An initial record's storage slot (core/record.h), by HeadSlot's rule:
  // one record per line on the collect planes, where a recycled initial
  // record is rewritten by its next updater while scanners read its
  // neighbours; dense on the versioned plane, whose scans touch a window
  // of records and nothing else.
  using RecordSlot = std::conditional_t<Value::kVersioned, Unpadded<Rec>,
                                        CachelinePadded<Rec>>;
  static_assert(!Value::kVersioned ||
                    (sizeof(RecordSlot) == sizeof(Rec) &&
                     alignof(RecordSlot) == alignof(Rec)),
                "versioned initial records are dense");
  static_assert(Value::kVersioned ||
                    (alignof(RecordSlot) == kCachelineBytes &&
                     sizeof(RecordSlot) == kCachelineBytes),
                "collect-plane initial records are padded: one per line");

  // Builds components [first, first + count) -- initial records, then
  // heads (core/record.h) -- for the constructor and add_components.
  void build_components(std::uint32_t first, std::uint32_t count,
                        const InitialVector& initial) {
    build_initial_records<Value>(initial_records_, r_, first, count,
                                 initial);
  }

  // The versioned plane's batch descriptor (primitives::BatchControl):
  // entry table + shared stamp, pooled like the records it publishes.
  // resolve() routes helpers (readers/updaters that hit an unresolved
  // member through ensure_stamped) into the owner's install engine.
  struct BatchDesc final : primitives::BatchControl {
    CasPartialSnapshotT* owner = nullptr;
    primitives::BatchSlots<Rec> slots;
    void resolve() const override { owner->resolve_batch(*this); }
  };

  // Installs every pending entry and fixes the shared stamp (the engine in
  // version_chain.h); safe to call from any pinned thread.
  void resolve_batch(const BatchDesc& desc);

  // The one batch-update body; `fill(slot, value_out)` writes entry
  // `slot`'s payload.
  template <class EntryT, class Fill>
  void do_update_batch(std::span<const EntryT> entries, Fill&& fill);
  // Fills the context's plane view with the embedded-scan result and
  // returns it.
  const ViewV& embedded_scan(Op& op, std::span<const std::uint32_t> args,
                             ScanContext& ctx);
  // An update's helping round, shared by every record a call publishes:
  // getSet, the union of the announced index sets, and one embedded scan
  // over that union.
  const ViewV& help(Op& op, ScanContext& ctx);
  // Publishes `rec` over `old` on component i with fig3's try-once CAS and
  // retires the record it displaced.  Returns whether `rec` went live; if
  // not, it unwinds to the pool.
  bool publish(std::uint32_t i, const Rec* old,
               typename reclaim::Pool<Rec>::Handle& rec);

  // The one update body; `fill` writes the new payload into the record.
  template <class Fill>
  void do_update(std::uint32_t i, Fill&& fill);
  // The versioned plane's singleton update; returns whether the CAS
  // published (false = linearized immediately before the winner).  Batch
  // code retries it until true -- versioned batches must not drop writes.
  template <class Fill>
  bool do_update_versioned(std::uint32_t i, Fill&& fill);
  // The one scan body; `emit(k, value)` receives indices[k]'s value in the
  // final view (u64 decoding or blob copies).
  template <class Emit>
  void do_scan(std::span<const std::uint32_t> indices, ScanContext& ctx,
               Emit&& emit);
  // The versioned plane's scan body: camera fetch-add + one chain read
  // per requested component.  Returns the epoch.
  std::uint64_t do_scan_versioned(std::span<const std::uint32_t> indices,
                                  std::vector<std::uint64_t>& out);

  // The calling thread's hazard-slot convention (hp plane).  One slot per
  // concurrently-live protection a single operation needs: the old record
  // held through an update's CAS, the announcement being copied, the
  // record a collect is reading, and a chain predecessor / post-CAS
  // self-stamp target.
  static constexpr std::uint32_t kHazOld = 0;
  static constexpr std::uint32_t kHazAnnounce = 1;
  static constexpr std::uint32_t kHazRecord = 2;
  static constexpr std::uint32_t kHazPrev = 3;

  // Published component count (monotone; see core/growth.h).
  GrowableSize size_;
  std::uint32_t n_;
  Options options_;
  // Declaration order is teardown order, reversed: plane_ is destroyed
  // first and flushes its retired nodes into the pools; the pools then
  // dispose of their free lists; the initial-record storage goes last,
  // because displaced initial records sit in those lists and in the heads
  // until then (RecordHeader::dispose skips them).
  //
  // The initial records, built in place: one allocation per segment.
  ComponentStorage<RecordSlot> initial_records_;
  reclaim::Pool<Rec> record_pool_;
  reclaim::Pool<IndexSet> announce_pool_;
  reclaim::Pool<BatchDesc> batch_pool_;
  // The component heads.  Segmented (grow-only) storage: slot addresses
  // are stable forever, so concurrent readers survive growth.
  ComponentStorage<HeadSlot> r_;
  // The paper's S[1..n] announcement registers (per-process single-writer,
  // padded for the same reason), keyed by registered pid.
  PerPidStorage<
      CachelinePadded<primitives::Register<const IndexSet*, Policy>>>
      s_;
  std::unique_ptr<activeset::FaiCasActiveSetT<Policy>> as_;
  // EBR over component-segment shards (one by default), or hazard
  // pointers when options.use_hp.
  reclaim::Plane plane_;
  PerPidStorage<CachelinePadded<std::uint64_t>> counter_;
  // The owner's in-flight batch descriptor, per pid (versioned plane): set
  // before the first install, cleared after the descriptor retires.  Its
  // only readers are the destructor's crash sweep (an injected halt
  // mid-batch leaves the descriptor here, so the quiescent teardown can
  // free the uninstalled nodes) -- helpers reach the descriptor through
  // the member nodes' batch pointers, never through this slot.
  PerPidStorage<CachelinePadded<std::atomic<BatchDesc*>>> active_batch_;
  // The versioned plane's camera (empty on the other planes).
  [[no_unique_address]] std::conditional_t<Value::kVersioned,
                                           primitives::VersionCamera<Policy>,
                                           primitives::NoCamera>
      camera_;
};

using CasPartialSnapshot = CasPartialSnapshotT<primitives::Instrumented>;
using CasPartialSnapshotFast = CasPartialSnapshotT<primitives::Release>;
using CasPartialSnapshotBlob =
    CasPartialSnapshotT<primitives::Instrumented, value::IndirectBlob>;
using CasPartialSnapshotBlobFast =
    CasPartialSnapshotT<primitives::Release, value::IndirectBlob>;
using CasPartialSnapshotVersioned =
    CasPartialSnapshotT<primitives::Instrumented, value::VersionedU64>;
using CasPartialSnapshotVersionedFast =
    CasPartialSnapshotT<primitives::Release, value::VersionedU64>;

}  // namespace psnap::core
