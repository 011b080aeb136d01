#include "core/cas_psnap.h"

#include <algorithm>
#include <memory>

#include "common/assert.h"
#include "core/op_stats.h"
#include "exec/capacity.h"
#include "exec/exec.h"

namespace psnap::core {

namespace {

// CAS-mode condition-(2) bookkeeping record: per location, the distinct
// record TAGS seen there in first-seen order.  Tags ((pid, counter) pairs)
// rather than pointers, because tag equality is record identity on BOTH
// reclamation planes: published tags are never reused, initial records'
// (kInitPid, index) can collide with no real pid, and -- unlike pointers
// under hp, where an address can be recycled into a fresh publication
// between collects -- a tag read from a protected record stays meaningful
// after the protection moves on.  Three distinct tags take three collects,
// so the table is built only when a third collect starts, from the tags
// the first two collects left in the collect buffers.
struct PerLocation {
  std::uint64_t ctrs[3];
  std::uint32_t pids[3];
  std::uint32_t count;
};

// Starts the cache misses of a record a read loop is about to dereference:
// the line holding its first field (the value) and the line holding the
// last field the loop reads -- the tag's pid on the collect planes, the
// version word on the versioned plane.  A record can straddle two lines
// (the 48-byte versioned record does for 2 of the 4 16-byte malloc
// alignments, and for half the slots of the dense initial-record storage),
// and one prefetch would leave the second miss serial.
template <class Rec>
void prefetch_record(const Rec* rec) {
  __builtin_prefetch(rec);
  if constexpr (requires { rec->version; }) {
    __builtin_prefetch(&rec->version);
  } else {
    __builtin_prefetch(&rec->pid);
  }
}

}  // namespace

template <class Policy, class Value>
CasPartialSnapshotT<Policy, Value>::CasPartialSnapshotT(
    InitialVector initial, std::uint32_t max_processes)
    : CasPartialSnapshotT(initial, max_processes, Options{}) {}

template <class Policy, class Value>
CasPartialSnapshotT<Policy, Value>::CasPartialSnapshotT(
    InitialVector initial, std::uint32_t max_processes, Options options)
    : size_(initial.count()),
      n_(max_processes),
      options_(options),
      record_pool_(options.use_hp ? 1 : options.reclaim_shards),
      as_(std::make_unique<activeset::FaiCasActiveSetT<Policy>>(
          max_processes, options.active_set)),
      plane_(options.use_hp ? reclaim::Plane::Kind::kHazard
                            : reclaim::Plane::Kind::kEbr,
             options.reclaim_shards, kComponentSegmentSize) {
  PSNAP_ASSERT(initial.count() > 0 && n_ > 0);
  PSNAP_ASSERT_MSG(n_ <= exec::kMaxPidCapacity,
                   "max_processes exceeds the pid-slot capacity");
  // The registry rejects this spelling before construction; the assert is
  // the backstop for direct construction.
  PSNAP_ASSERT_MSG(!(Value::kVersioned && options.reclaim_shards > 1),
                   "the versioned plane requires shards == 1 (batch "
                   "helping dereferences records on arbitrary components; "
                   "use reclaim=hp for bounded tail latency instead)");
  build_components(0, initial.count(), initial);
}

template <class Policy, class Value>
CasPartialSnapshotT<Policy, Value>::~CasPartialSnapshotT() {
  // Published records/announcements are owned here; everything in flight
  // through plane_ drains into the pools when plane_ is destroyed.  Record
  // frees go through Rec::dispose, which leaves storage-owned initial
  // records to initial_records_.
  const std::uint32_t m = size_.load();
  for (std::uint32_t i = 0; i < m; ++i) {
    const Rec* head = r_.at(i)->peek();
    if constexpr (Value::kVersioned) {
      // Chain-trim invariant: the only unretired nodes of a chain are the
      // head and its prev (everything older went through the pool when it
      // was displaced), so the destructor owns exactly those two.
      Rec::dispose(head->prev.load(std::memory_order_relaxed));
    }
    Rec::dispose(head);
  }
  // Any pid that ever announced is below the bound (its acquisition
  // raised the watermark first; destruction is quiescent).
  const std::uint32_t pids = options_.active_set.bound.get(n_);
  for (std::uint32_t p = 0; p < pids; ++p) {
    if (const auto* reg = s_.try_at(p)) delete (*reg)->peek();
  }
  if constexpr (Value::kVersioned) {
    // Crash sweep: a thread halted mid-update_batch leaves its descriptor
    // in the per-pid slot.  Installed members belong to their chains
    // (freed above or already recycled); the never-installed nodes and the
    // descriptor itself are reachable only from here.
    for (std::uint32_t p = 0; p < pids; ++p) {
      auto* slot = active_batch_.try_at(p);
      if (slot == nullptr) continue;
      BatchDesc* desc = (*slot)->load(std::memory_order_relaxed);
      if (desc == nullptr) continue;
      for (std::uint32_t e = 0; e < desc->slots.size(); ++e) {
        auto& entry = desc->slots[e];
        if (entry.node != nullptr &&
            !entry.installed.load(std::memory_order_relaxed)) {
          Rec::dispose(entry.node);
        }
      }
      delete desc;
    }
  }
}

template <class Policy, class Value>
std::uint32_t CasPartialSnapshotT<Policy, Value>::add_components(
    std::uint32_t count) {
  // The constructor's build, at 0; nobody can read a new slot until
  // grow_components publishes the count.
  return grow_components(size_, count,
                         [this](std::uint32_t first, std::uint32_t k) {
                           build_components(first, k, {});
                         });
}

template <class Policy, class Value>
auto CasPartialSnapshotT<Policy, Value>::embedded_scan(
    Op& op, std::span<const std::uint32_t> args, ScanContext& ctx)
    -> const ViewV& {
  OpStats& stats = tls_op_stats();
  stats.embedded_args = args.size();
  if (args.empty()) return kEmptyView<ValueType>;
  ViewV& view = view_for<ValueType>(ctx);

  // Condition-(2) bookkeeping: per *location*, the distinct records seen
  // there in first-seen order; the third one's view is borrowed.
  // Three distinct values in one location are necessarily two changes over
  // time (a location shows one value per collect), so the second and third
  // were installed during this scan, and -- because updates publish with
  // CAS -- the third value's updater read the component after the second
  // was installed, i.e. after this scan began (Section 4.2's argument).
  // Release-mode note: "distinct values" is pointer inequality on one
  // location, and the borrow dereferences a pointer obtained by an acquire
  // load from that location, so the borrowed record's view is fully
  // visible; no cross-location ordering is consumed here.
  // Three distinct tags take three collects, so nothing can fire in the
  // first two: the table is taken and filled when the third starts.
  std::span<PerLocation> seen_loc;

  // Paper: "let (v, view, c, id) be the third value seen in that
  // location".  Unlike Figure 1 this is by observation order, not by
  // highest counter.  Distinctness is judged by tag (see PerLocation).
  auto note_loc = [&seen_loc](std::size_t j, std::uint32_t rec_pid,
                              std::uint64_t rec_ctr) -> bool {
    PerLocation& s = seen_loc[j];
    for (std::uint32_t k = 0; k < s.count; ++k) {
      if (s.pids[k] == rec_pid && s.ctrs[k] == rec_ctr) return false;
    }
    s.pids[s.count] = rec_pid;
    s.ctrs[s.count] = rec_ctr;
    ++s.count;
    return s.count == 3;
  };

  // Collect state: the record pointers of the current collect, and the
  // tags of the current and previous ones.  The double-collect exit
  // compares TAGS -- under hp a previous collect's pointer may already
  // dangle (and its address may even have been recycled into a fresh
  // publication), while tags read from protected records stay meaningful
  // forever.  The pointers are only dereferenced where protection is live:
  // cur[j] inside the collect that loaded it (EBR: the whole function is
  // pinned).
  std::span<const Rec*> cur = ctx.arena.take<const Rec*>(args.size());
  std::span<std::uint64_t> prev_ctr = ctx.arena.take<std::uint64_t>(args.size());
  std::span<std::uint64_t> cur_ctr = ctx.arena.take<std::uint64_t>(args.size());
  std::span<std::uint32_t> prev_pid = ctx.arena.take<std::uint32_t>(args.size());
  std::span<std::uint32_t> cur_pid = ctx.arena.take<std::uint32_t>(args.size());
  std::uint64_t collect = 0;

  const std::uint64_t collect_bound = 2ull * args.size() + 3;
  const bool validates = plane_.validates_each_read();

  while (true) {
    ++stats.collects;
    if (++collect == 3) {
      // Two swaps in, cur_* holds the first collect's tags and prev_* the
      // second's: noted in that order, which is the order observed.
      seen_loc = ctx.arena.take<PerLocation>(args.size());
      for (std::size_t j = 0; j < args.size(); ++j) {
        (void)note_loc(j, cur_pid[j], cur_ctr[j]);
        (void)note_loc(j, prev_pid[j], prev_ctr[j]);
      }
    }
    // Theorem 3's wait-freedom argument: every pair of differing
    // consecutive collects means some location changed, and a location can
    // change at most twice before its third distinct value fires
    // condition (2); hence at most 2r+1 collects.
    PSNAP_ASSERT_MSG(stats.collects <= collect_bound,
                     "figure-3 embedded scan exceeded its collect bound");
    if (validates) view.resize(args.size());
    const Rec* borrow = nullptr;
    // Blocked reads.  Under EBR (the whole function is pinned) a block of
    // heads is loaded into cur[] and their records prefetched before the
    // first one is dereferenced, so the block's cache misses overlap
    // instead of queueing one behind the other.  The counted loads still
    // run in index order, one per location, and dereferences are not
    // steps, so the collect's step sequence is unchanged.  Under hp a block
    // is ONE location: a hazard must be validated (Op::protect) before its
    // record is dereferenced, and the next location reuses the hazard
    // slot, so hp reads one validated location at a time.
    const std::size_t block = validates ? 1 : kReadBlock;
    for (std::size_t base = 0; base < args.size(); base += block) {
      const std::size_t end = std::min(args.size(), base + block);
      if (borrow != nullptr) {
        // Collect-length parity after the borrow fired: the remaining
        // locations are still read (one counted step each, as always), but
        // nothing is noted, prefetched or dereferenced -- under hp these
        // loads carry no hazard.  (The rest of the borrow's own block was
        // already loaded by its gather below.)
        for (std::size_t j = base; j < end; ++j) (void)r_.at(args[j])->load();
        continue;
      }
      for (std::size_t j = base; j < end; ++j) {
        cur[j] = op.protect(*r_.at(args[j]), kHazRecord);
        prefetch_record(cur[j]);
      }
      for (std::size_t j = base; j < end && borrow == nullptr; ++j) {
        const Rec* rec = cur[j];
        cur_pid[j] = rec->pid;
        cur_ctr[j] = rec->counter;
        if (validates) {
          // Copy the entry NOW, while the kHazRecord hazard still covers
          // rec.  At the double-collect exit these per-entry copies ARE the
          // result: tag equality across the last two collects proves both
          // read the same records, but the records themselves may be
          // recycled the moment the hazard moves to the next location.
          view[j].index = args[j];
          Value::copy(rec->value, view[j].value);
        }
        if (collect >= 3 && note_loc(j, cur_pid[j], cur_ctr[j])) {
          borrow = rec;
          stats.borrowed = true;
          // Copy (capacity-reusing, down to the blob plane's per-entry byte
          // buffers) rather than reference, and IMMEDIATELY: under EBR the
          // borrowed record is only guaranteed live while this operation
          // stays pinned; under hp it is only safe while the hazard that
          // just validated it still stands.
          // (Versioned records carry no view: that plane never collects.)
          if constexpr (!Value::kVersioned) view = borrow->view;
        }
      }
    }
    if (borrow != nullptr) return view;
    if (collect >= 2 &&
        std::equal(cur_pid.begin(), cur_pid.end(), prev_pid.begin()) &&
        std::equal(cur_ctr.begin(), cur_ctr.end(), prev_ctr.begin())) {
      if (validates) return view;  // filled under protection above
      // resize+assign rather than clear+push_back keeps existing entries'
      // payload capacity (a blob-plane entry re-fills in place).
      view.resize(args.size());
      for (std::size_t j = 0; j < args.size(); ++j) {
        view[j].index = args[j];
        Value::copy(cur[j]->value, view[j].value);
      }
      return view;
    }
    std::swap(prev_pid, cur_pid);
    std::swap(prev_ctr, cur_ctr);
  }
}

template <class Policy, class Value>
auto CasPartialSnapshotT<Policy, Value>::help(Op& op, ScanContext& ctx)
    -> const ViewV& {
  as_->get_set(ctx.scanners);
  tls_op_stats().getset_size = ctx.scanners.size();

  op.pin_meta();
  ctx.union_args.clear();
  for (std::uint32_t p : ctx.scanners) {
    // try_at: a pid that joined without ever announcing has no slot; an
    // absent segment reads as "no announcement" without allocating on the
    // update path.  (A scanner always announces before joining, and its
    // segment install happens-before the join its getSet observed.)
    const auto* slot = s_.try_at(p);
    if (slot == nullptr) continue;
    // hp: a validated hazard covers the announcement while its indices are
    // copied (EBR: the meta pin covers announcements wholesale).
    const IndexSet* announced = op.protect(**slot, kHazAnnounce);
    if (announced != nullptr) {
      ctx.union_args.insert(ctx.union_args.end(), announced->indices.begin(),
                            announced->indices.end());
    }
  }
  canonicalize(ctx.union_args);

  op.pin_components(ctx.union_args);
  return embedded_scan(op, ctx.union_args, ctx);
}

template <class Policy, class Value>
bool CasPartialSnapshotT<Policy, Value>::publish(
    std::uint32_t i, const Rec* old, typename reclaim::Pool<Rec>::Handle& rec) {
  // Release mode: the CAS is acq_rel -- release so the record built before
  // it is visible to any acquire load of R[i] that sees it, acquire so the
  // displaced record may be handed to reclamation.
  if (r_.at(i)->compare_and_swap(old, rec.get()) != old) {
    // Linearized immediately before the update that beat us; our record
    // was never published, so it returns straight to the pool.
    tls_op_stats().cas_failed = true;
    return false;
  }
  rec.release();
  plane_.recycle(record_pool_, old, i);
  return true;
}

template <class Policy, class Value>
template <class Fill>
void CasPartialSnapshotT<Policy, Value>::do_update(std::uint32_t i,
                                                   Fill&& fill) {
  if constexpr (Value::kVersioned) {
    tls_op_stats().reset();
    // fig3's try-once publication, unchanged: a failed singleton update
    // has already linearized immediately before its winner, so it does
    // not retry (batch code does -- see do_update_batch).
    (void)do_update_versioned(i, fill);
  } else {
    PSNAP_ASSERT(i < size_.load());
    std::uint32_t pid = exec::ctx().pid;
    PSNAP_ASSERT(pid < n_);
    tls_op_stats().reset();
    ScanContext& ctx = pid_scan_context();
    ctx.begin();
    Op op(plane_);
    op.pin_component(i);

    // Figure 3 reads the current record before anything else; the CAS at the
    // end succeeds only if the component was not updated in between.
    // Release mode: acquire load; the record is only compared by address
    // until the CAS, and if dereferenced (retire path) the acquire pairs
    // with the publishing CAS's release.  hp: the head stays protected in
    // kHazOld through the CAS below, which also closes the ABA window -- a
    // protected record cannot be recycled, so the CAS can only succeed
    // against the very record this load read.
    const Rec* old = op.protect(*r_.at(i), kHazOld);
    const ViewV& view = help(op, ctx);

    // Counter is bumped only when the record is actually published
    // (paper: "if the compare&swap was successful then counter++"); tags of
    // *published* records stay unique either way, because a failed record is
    // never visible to anyone.
    //
    // The record comes from the pool (capacity-reusing; zero steady-state
    // allocations) and goes back to it on every non-publishing exit -- the
    // CAS-failure path and an injected halt at the publish step both unwind
    // through the Handle instead of leaking.
    auto rec = plane_.acquire(record_pool_, i);
    fill(rec->value);
    rec->counter = counter_.at(pid).value + 1;
    rec->pid = pid;
    rec->view = view;  // capacity-reusing copy into the recycled vector
    if (publish(i, old, rec)) ++counter_.at(pid).value;
  }
}

template <class Policy, class Value>
template <class Fill>
bool CasPartialSnapshotT<Policy, Value>::do_update_versioned(std::uint32_t i,
                                                             Fill&& fill) {
  if constexpr (!Value::kVersioned) {
    (void)i;
    (void)fill;
    PSNAP_ASSERT_MSG(false, "do_update_versioned on a non-versioned plane");
    return true;
  } else {
    // Versioned plane: append one node to the component's version chain.
    // No getSet, no embedded scan -- the write path's interference is a
    // constant handful of steps no matter how many scanners are live.
    // Callers reset tls_op_stats(); batch code invokes this in a retry
    // loop, so the stats accumulate across attempts by design.
    PSNAP_ASSERT(i < size_.load());
    std::uint32_t pid = exec::ctx().pid;
    PSNAP_ASSERT(pid < n_);
    Op op(plane_);
    op.pin_component(i);  // == pin(0): one shard

    // hp: the head stays protected in kHazOld through the stamp fix and
    // the CAS (which also closes the ABA window, as in the collect path).
    const Rec* old = op.protect(*r_.at(i), kHazOld);
    // Fix the displaced head's version BEFORE publishing over it: chain
    // versions then never decrease in publication order, which is what
    // the reader walk's termination and cut arguments rest on
    // (version_chain.h).
    primitives::ensure_stamped<Policy>(*old, camera_);

    auto rec = plane_.acquire(record_pool_, i);
    fill(rec->value);
    rec->counter = counter_.at(pid).value + 1;
    rec->pid = pid;
    rec->version.store(primitives::kUnstamped, std::memory_order_relaxed);
    rec->prev.store(old, std::memory_order_relaxed);
    // A recycled record may have been a batch member in a previous life;
    // a singleton publication must not route stampers to a stale
    // descriptor.
    rec->batch.store(nullptr, std::memory_order_relaxed);

    // A failed update's node -- never published -- unwinds straight back
    // to the pool through the Handle.
    Rec* node = rec.get();
    const Rec* prev = r_.at(i)->compare_and_swap(old, node);
    if (prev == old) {
      rec.release();
      ++counter_.at(pid).value;
      // Lazy chain trim.  With `node` now head and `old` its prev, no
      // reader pinned from here on can reach past `old` (its stamp
      // predates every future epoch), so exactly old->prev retires; the
      // live unretired set per component stays {head, head->prev}.  This
      // runs before the self-stamp's first step on purpose: an injected
      // halt below can orphan no node.  old->prev is safe to read on both
      // planes: old is still protected (kHazOld / the pin).
      if (const Rec* trim = old->prev.load(std::memory_order_relaxed)) {
        plane_.recycle(record_pool_, trim, i);
      }
      // Self-stamp (the update's linearization point, unless a racing
      // reader or displacer already fixed it).  `node` left our ownership
      // at the CAS.  EBR: the pin still covers it.  hp: re-protect before
      // dereferencing; if the head is still `node` the hazard is valid (a
      // head is never retired).  If it moved on, skip: whoever displaced
      // `node` ensure_stamped it BEFORE its CAS, so the stamp is already
      // fixed.  (If node's address was recycled into a fresh publication
      // on this same component, the stamp call lands on a live head --
      // exactly what any concurrent reader may do, and a no-op once that
      // record is stamped.)
      if (op.hold(node, kHazPrev, *r_.at(i), node)) {
        primitives::ensure_stamped<Policy>(*node, camera_);
      }
      return true;
    }
    tls_op_stats().cas_failed = true;
    // A failed update linearizes immediately before the update that
    // beat it, so the winner's linearization point -- its stamp fix,
    // which lazy stamping would otherwise leave floating -- must be
    // pinned before this op responds.  Otherwise a scan invoked after
    // our response can fetch an epoch below the winner's eventual
    // stamp and observe the pre-race value, ordering both updates
    // after an operation that real-time-follows this one.  `prev` is
    // the head our CAS observed: either the winner itself (stamp it
    // here), or a later node whose publisher already fixed the
    // winner's stamp before displacing it -- ensure_stamped settles
    // both, and resolves the batch first when the winner is a batch
    // member.  hp cannot deref the unprotected `prev`; it re-reads the
    // CURRENT head under a hazard instead, which settles the winner by
    // the same induction (every displaced node was stamped by its
    // displacer pre-CAS, so stamping the current head pins the whole
    // prefix, the winner included).
    if (plane_.validates_each_read()) {
      const Rec* head = op.protect(*r_.at(i), kHazPrev);
      primitives::ensure_stamped<Policy>(*head, camera_);
    } else {
      primitives::ensure_stamped<Policy>(*prev, camera_);
    }
    return false;
  }
}

template <class Policy, class Value>
void CasPartialSnapshotT<Policy, Value>::update(std::uint32_t i,
                                                std::uint64_t v) {
  do_update(i, [v](ValueType& out) { Value::encode(v, out); });
}

template <class Policy, class Value>
void CasPartialSnapshotT<Policy, Value>::resolve_batch(const BatchDesc& desc) {
  if constexpr (Value::kVersioned) {
    primitives::batch_install_and_resolve<Policy>(
        desc.slots.data(), desc.slots.size(), desc, camera_,
        [this](std::uint32_t i) -> auto& { return *r_.at(i); },
        [this](const Rec* displaced) {
          // Lazy chain trim, as in the singleton update: with the batch
          // node now head and `displaced` its prev, nothing older than
          // `displaced` is reachable by any future reader.
          if (const Rec* trim =
                  displaced->prev.load(std::memory_order_relaxed)) {
            // The versioned plane forces one shard, so the meta shard is
            // every component's shard.
            plane_.recycle_meta(record_pool_, trim);
          }
        });
  } else {
    (void)desc;
    PSNAP_ASSERT_MSG(false, "resolve_batch on a non-versioned plane");
  }
}

template <class Policy, class Value>
template <class EntryT, class Fill>
void CasPartialSnapshotT<Policy, Value>::do_update_batch(
    std::span<const EntryT> entries, Fill&& fill) {
  if (entries.empty()) return;
  std::uint32_t pid = exec::ctx().pid;
  PSNAP_ASSERT(pid < n_);
  const std::uint32_t m = size_.load();
  for (const EntryT& e : entries) PSNAP_ASSERT(e.index < m);

  if (plane_.validates_each_read()) {
    // hp fallback: per-entry singleton publication, decided BEFORE the
    // ScanContext is touched (do_update/do_update_versioned begin() the
    // shared context themselves, which would clobber any merged-entry
    // scratch held across them).  Entries apply in order, so duplicate
    // indices degenerate to last-wins exactly like the merged path below.
    // The versioned batch contract -- no dropped writes -- is kept by
    // retrying each entry to CAS success; collect entries keep fig3's
    // try-once CAS.  No descriptor is ever created under hp, so the
    // install engine's cross-component helping (which dereferences other
    // components' heads without a hazard) never runs -- the atomicity
    // downgrade batch_atomicity() reports.
    for (const EntryT& e : entries) {
      if constexpr (Value::kVersioned) {
        tls_op_stats().reset();
        while (!do_update_versioned(e.index,
                                    [&](ValueType& out) { fill(e, out); })) {
        }
      } else {
        do_update(e.index, [&](ValueType& out) { fill(e, out); });
      }
    }
    // batch_size reports DISTINCT components, like the merged path.
    std::uint32_t distinct = 0;
    for (std::size_t a = 0; a < entries.size(); ++a) {
      bool seen = false;
      for (std::size_t b = 0; b < a && !seen; ++b) {
        seen = entries[b].index == entries[a].index;
      }
      if (!seen) ++distinct;
    }
    tls_op_stats().batch_size = distinct;
    return;
  }

  OpStats& stats = tls_op_stats();
  stats.reset();
  ScanContext& ctx = pid_scan_context();
  ctx.begin();
  Op op(plane_);
  op.pin_meta();
  for (const EntryT& e : entries) op.pin_component(e.index);

  // Coalesce duplicate indices, later entries winning -- a batch is one
  // protocol instance, so "apply in order" degenerates to last-wins per
  // component.  Linear scan: batches are small (the coalescing front-end
  // caps them) and the scratch is arena storage, so this is branchy but
  // allocation-free.
  std::span<const EntryT*> merged =
      ctx.arena.take<const EntryT*>(entries.size());
  std::uint32_t count = 0;
  for (const EntryT& e : entries) {
    std::uint32_t j = 0;
    while (j < count && merged[j]->index != e.index) ++j;
    merged[j] = &e;
    if (j == count) ++count;
  }
  stats.batch_size = count;

  if constexpr (Value::kVersioned) {
    // Ascending component order is the install engine's help-ordering
    // invariant (version_chain.h): recursion across overlapping batches
    // strictly increases the index, so helping terminates.
    std::sort(merged.begin(), merged.begin() + count,
              [](const EntryT* a, const EntryT* b) {
                return a->index < b->index;
              });

    auto desc_handle = plane_.acquire_meta(batch_pool_);
    BatchDesc* desc = desc_handle.get();
    desc->owner = this;
    desc->version.store(primitives::kUnstamped, std::memory_order_relaxed);
    desc->slots.reset(count);
    for (std::uint32_t j = 0; j < count; ++j) {
      desc->slots[j].index = merged[j]->index;
    }
    // Publish the descriptor for the crash sweep BEFORE any node leaves
    // the pool: from here on, every acquired node is reachable from the
    // slot table, so an injected halt anywhere below leaks nothing (the
    // destructor frees never-installed nodes; helpers finish the rest).
    active_batch_.at(pid)->store(desc_handle.release(),
                                 std::memory_order_release);

    for (std::uint32_t j = 0; j < count; ++j) {
      auto rec = plane_.acquire(record_pool_, merged[j]->index);
      fill(*merged[j], rec->value);
      // Tags of published records stay unique: one counter stride per
      // member, bumped below once the whole table is handed over.
      rec->counter = counter_.at(pid).value + 1 + j;
      rec->pid = pid;
      rec->version.store(primitives::kUnstamped, std::memory_order_relaxed);
      rec->prev.store(nullptr, std::memory_order_relaxed);
      rec->batch.store(desc, std::memory_order_relaxed);
      desc->slots[j].node = rec.release();
    }
    counter_.at(pid).value += count;

    // ONE helping round for the k writes: install every entry (ascending,
    // with concurrent helpers), then fix the one shared stamp -- the
    // batch's linearization point.
    resolve_batch(*desc);

    // Copy the shared stamp into each member's own version word so the
    // read fast path never dereferences the descriptor again, then retire
    // the descriptor through its pool (one grace period for the batch).
    const std::uint64_t stamp =
        desc->version.load(std::memory_order_acquire);
    stats.epoch = stamp;
    for (std::uint32_t j = 0; j < count; ++j) {
      primitives::stamp_version<Policy>(*desc->slots[j].node, stamp);
    }
    active_batch_.at(pid)->store(nullptr, std::memory_order_relaxed);
    plane_.recycle_meta(batch_pool_, desc);
    return;
  } else {
    // Collect planes: the amortization is ONE getSet + announced-set
    // union + embedded scan (the helping round) shared by every record of
    // the batch.  Each record still publishes with fig3's try-once CAS,
    // so entries linearize individually (kAmortized).
    //
    // Phase 1: read each component's current record BEFORE the helping
    // round -- the condition-(2) borrow argument needs a published
    // record's embedded scan to have started after its old-value read,
    // exactly as in the singleton protocol.
    std::span<const Rec*> olds = ctx.arena.take<const Rec*>(count);
    for (std::uint32_t j = 0; j < count; ++j) {
      olds[j] = r_.at(merged[j]->index)->load();
    }

    // Phase 2: the shared helping round.
    const ViewV& view = help(op, ctx);

    // Phase 3: one pooled record and one publication per entry.  Every
    // record of the batch carries the SAME counter -- the counter is an
    // operation sequence number.  The records sit on distinct components,
    // so condition (2)'s per-location tags still tell them apart.
    const std::uint64_t batch_counter = counter_.at(pid).value + 1;
    ++counter_.at(pid).value;
    for (std::uint32_t j = 0; j < count; ++j) {
      const std::uint32_t i = merged[j]->index;
      auto rec = plane_.acquire(record_pool_, i);
      fill(*merged[j], rec->value);
      rec->counter = batch_counter;
      rec->pid = pid;
      rec->view = view;
      (void)publish(i, olds[j], rec);
    }
  }
}

template <class Policy, class Value>
void CasPartialSnapshotT<Policy, Value>::update_batch(
    std::span<const BatchEntry> entries) {
  do_update_batch(entries, [](const BatchEntry& e, ValueType& out) {
    Value::encode(e.value, out);
  });
}

template <class Policy, class Value>
void CasPartialSnapshotT<Policy, Value>::update_batch_blob(
    std::span<const BlobBatchEntry> entries) {
  if constexpr (Value::kIndirect) {
    do_update_batch(entries, [](const BlobBatchEntry& e, ValueType& out) {
      Value::assign(out, e.bytes);
    });
  } else {
    PartialSnapshot::update_batch_blob(entries);
  }
}

template <class Policy, class Value>
void CasPartialSnapshotT<Policy, Value>::update_blob(
    std::uint32_t i, std::span<const std::byte> bytes) {
  if constexpr (Value::kIndirect) {
    do_update(i, [bytes](ValueType& out) { Value::assign(out, bytes); });
  } else {
    PartialSnapshot::update_blob(i, bytes);
  }
}

template <class Policy, class Value>
template <class Emit>
void CasPartialSnapshotT<Policy, Value>::do_scan(
    std::span<const std::uint32_t> indices, ScanContext& ctx,
    Emit&& emit) {
  std::uint32_t pid = exec::ctx().pid;
  PSNAP_ASSERT(pid < n_);
  tls_op_stats().reset();
  ctx.begin();
  Op op(plane_);

  // Sorted, so its last index is the largest the caller asked for.
  const std::span<const std::uint32_t> canonical =
      canonical_indices(indices, ctx.canonical);
  PSNAP_ASSERT(canonical.back() < size_.load());
  op.pin_meta();
  op.pin_components(canonical);

  // Publish the announcement only when the set actually changed.  S[pid]
  // is single-writer (only this process stores to it), so peeking our own
  // register is local state, not a shared-object step; when the canonical
  // set matches what is already announced, re-publishing an identical
  // IndexSet would only churn the pool and the EBR retire list.  The
  // announcement itself is pooled: republishing a changed set reuses a
  // recycled IndexSet's capacity, so steady-state scans -- even ones that
  // alternate between shapes -- allocate nothing.
  // Dereferencing our own announcement needs no protection on EITHER
  // plane: S[pid] is single-writer, so only this process ever retires it,
  // and it has not done so yet.
  const IndexSet* announced = s_.at(pid)->peek();
  if (announced == nullptr ||
      !std::ranges::equal(announced->indices, canonical)) {
    auto announce = plane_.acquire_meta(announce_pool_);
    announce->indices.assign(canonical.begin(), canonical.end());
    const IndexSet* old_announce = s_.at(pid)->exchange(announce.get());
    announce.release();
    if (old_announce != nullptr) {
      plane_.recycle_meta(announce_pool_, old_announce);
    }
  }
  as_->join();
  // Scanner end of the announce/join-vs-getSet handshake (see
  // primitives.h): the announcement exchange and the join's stores must
  // drain before our collect loads run, or a concurrent update's getSet
  // could miss us after our embedded scan has already begun -- which
  // would break the condition-(2) borrow coverage argument.
  primitives::protocol_fence<Policy>();
  const ViewV& view = embedded_scan(op, canonical, ctx);
  as_->leave();

  extract_view(view, indices, emit);
}

template <class Policy, class Value>
std::uint64_t CasPartialSnapshotT<Policy, Value>::do_scan_versioned(
    std::span<const std::uint32_t> indices, std::vector<std::uint64_t>& out) {
  if constexpr (Value::kVersioned) {
    PSNAP_ASSERT(exec::ctx().pid < n_);
    const std::uint32_t m = size_.load();
    for (std::uint32_t i : indices) PSNAP_ASSERT(i < m);
    OpStats& stats = tls_op_stats();
    stats.reset();
    Op op(plane_);
    out.resize(indices.size());

    if (!plane_.validates_each_read()) {
      op.pin_components(indices);  // one shard on this plane
      // The scan's linearization point: every stamp fixed before this
      // fetch-add is <= epoch, every later one is > epoch, so the values
      // extracted below form a consistent cut -- no announce, no join, no
      // collect, O(1) steps per requested component.
      const std::uint64_t epoch = camera_.new_epoch();
      stats.epoch = epoch;
      // Blocked, pipelined reads (see embedded_scan for the blocking).  A
      // block is GATHERED by loading its heads -- the counted steps -- and
      // prefetching their records, version line included.  Block 0 is
      // gathered up front, and block k+1 is gathered before block k's
      // chains are walked, so block k+1's head misses overlap block k's
      // record misses; the two head buffers live on the stack.  The step
      // count stays 1 + 2r on a quiescent object; only the order moves:
      // block k+1's head loads now precede block k's version reads.  That
      // reorder is sound: every head is still loaded AFTER the fetch-add
      // and under the pin, which is all chain_read's walk argument
      // (primitives/version_chain.h) needs.
      const std::size_t r = indices.size();
      const Rec* heads[2][kReadBlock];
      auto gather = [&](std::size_t base, const Rec** block) {
        const std::size_t len = std::min(kReadBlock, r - base);
        for (std::size_t k = 0; k < len; ++k) {
          block[k] = r_.at(indices[base + k])->load();
          prefetch_record(block[k]);
        }
      };
      gather(0, heads[0]);
      for (std::size_t base = 0, b = 0; base < r; base += kReadBlock, b ^= 1) {
        if (base + kReadBlock < r) gather(base + kReadBlock, heads[b ^ 1]);
        const std::size_t len = std::min(kReadBlock, r - base);
        for (std::size_t k = 0; k < len; ++k) {
          std::uint64_t walked = 0;
          const Rec* node = primitives::chain_read<Policy>(heads[b][k], epoch,
                                                           camera_, walked);
          out[base + k] = Value::decode(node->value);
          stats.chain_nodes = std::max(stats.chain_nodes, walked);
        }
      }
      return epoch;
    }

    // hp: hazards can protect at most {head, head->prev} per component --
    // anything older may already be freed (the lazy trim retires
    // old->prev on every publication), so the walk cannot go deeper.
    // Depth 2 is exactly the chain-trim invariant's live set; needing the
    // third node means at least two updates published on this component
    // AFTER our fetch-add, and we restart the WHOLE scan with a fresh
    // epoch rather than walk unprotected memory.  Every stamp fixed
    // before the new fetch-add is <= the new epoch, so a quiescent
    // component always satisfies the depth-2 read; the scan only loops
    // while concurrent updates keep landing -- lock-free, not wait-free
    // (is_wait_free() reports this).
    while (true) {
      const std::uint64_t epoch = camera_.new_epoch();
      stats.epoch = epoch;
      bool restart = false;
      for (std::size_t k = 0; k < indices.size() && !restart; ++k) {
        const std::uint32_t i = indices[k];
        const Rec* head = op.protect(*r_.at(i), kHazOld);
        // A head is live by definition; stamp-fix it like chain_read does.
        const std::uint64_t vh =
            primitives::ensure_stamped<Policy>(*head, camera_);
        if (vh <= epoch) {
          out[k] = Value::decode(head->value);
          stats.chain_nodes = std::max<std::uint64_t>(stats.chain_nodes, 1);
          continue;
        }
        const Rec* w = head->prev.load(std::memory_order_acquire);
        // vh > epoch rules out the initial record (stamped 0 < every
        // epoch), and every published update carries a non-null prev.
        PSNAP_ASSERT(w != nullptr);
        // Validate the pair-hazard: if the component still heads `head`
        // AFTER our hazard on `w` is visible, then `w` (== head->prev, an
        // immutable field) has not been retired -- only the update that
        // displaces `head` retires it -- so the hazard caught it in time.
        if (!op.hold(w, kHazPrev, *r_.at(i), head)) {
          restart = true;
          break;
        }
        // w's stamp was fixed by head's publisher BEFORE head went live,
        // so this ensure_stamped is a pure read on the fast path.
        const std::uint64_t vw =
            primitives::ensure_stamped<Policy>(*w, camera_);
        if (vw <= epoch) {
          out[k] = Value::decode(w->value);
          stats.chain_nodes = std::max<std::uint64_t>(stats.chain_nodes, 2);
        } else {
          restart = true;
        }
      }
      if (!restart) return epoch;
    }
  } else {
    (void)indices;
    (void)out;
    PSNAP_ASSERT_MSG(false, "do_scan_versioned on a non-versioned plane");
    return 0;
  }
}

template <class Policy, class Value>
std::uint64_t CasPartialSnapshotT<Policy, Value>::scan_versioned(
    std::span<const std::uint32_t> indices, std::vector<std::uint64_t>& out,
    ScanContext& ctx) {
  if constexpr (Value::kVersioned) {
    (void)ctx;  // the versioned walk needs no scratch
    return do_scan_versioned(indices, out);
  } else {
    return PartialSnapshot::scan_versioned(indices, out, ctx);
  }
}

template <class Policy, class Value>
void CasPartialSnapshotT<Policy, Value>::scan(
    std::span<const std::uint32_t> indices, std::vector<std::uint64_t>& out,
    ScanContext& ctx) {
  if constexpr (Value::kVersioned) {
    // Every u64-driven harness exercises the versioned read path.
    do_scan_versioned(indices, out);
    return;
  }
  out.resize(indices.size());
  if (indices.empty()) return;
  do_scan(indices, ctx, [&](std::size_t k, const ValueType& v) {
    out[k] = Value::decode(v);
  });
}

template <class Policy, class Value>
void CasPartialSnapshotT<Policy, Value>::scan_blobs(
    std::span<const std::uint32_t> indices, std::vector<value::Blob>& out,
    ScanContext& ctx) {
  if constexpr (Value::kIndirect) {
    if (indices.empty()) {
      out.clear();
      return;
    }
    // resize, not clear: surviving elements keep their byte capacity.
    out.resize(indices.size());
    do_scan(indices, ctx, [&](std::size_t k, const ValueType& v) {
      Value::copy(v, out[k]);
    });
  } else {
    PartialSnapshot::scan_blobs(indices, out, ctx);
  }
}

template class CasPartialSnapshotT<primitives::Instrumented,
                                   value::DirectU64>;
template class CasPartialSnapshotT<primitives::Release, value::DirectU64>;
template class CasPartialSnapshotT<primitives::Instrumented,
                                   value::IndirectBlob>;
template class CasPartialSnapshotT<primitives::Release, value::IndirectBlob>;
template class CasPartialSnapshotT<primitives::Instrumented,
                                   value::VersionedU64>;
template class CasPartialSnapshotT<primitives::Release, value::VersionedU64>;

}  // namespace psnap::core
