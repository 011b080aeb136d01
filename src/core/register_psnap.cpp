#include "core/register_psnap.h"

#include <algorithm>

#include "common/assert.h"
#include "core/moved_twice.h"
#include "core/op_stats.h"
#include "exec/capacity.h"
#include "exec/exec.h"

namespace psnap::core {

template <class Policy, class Value>
RegisterPartialSnapshotT<Policy, Value>::RegisterPartialSnapshotT(
    InitialVector initial, std::uint32_t max_processes, exec::PidBound bound)
    : size_(initial.count()),
      n_(max_processes),
      bound_(bound),
      as_(max_processes, bound) {
  PSNAP_ASSERT(initial.count() > 0 && n_ > 0);
  PSNAP_ASSERT_MSG(n_ <= exec::kMaxPidCapacity,
                   "max_processes exceeds the pid-slot capacity");
  build_components(0, initial.count(), initial);
}

template <class Policy, class Value>
RegisterPartialSnapshotT<Policy, Value>::~RegisterPartialSnapshotT() {
  const std::uint32_t m = size_.load();
  // Rec::dispose leaves storage-owned initial records to initial_records_.
  for (std::uint32_t i = 0; i < m; ++i) Rec::dispose(r_.at(i)->peek());
  // Any pid that ever announced is below the bound (its acquisition
  // raised the watermark first; destruction is quiescent), so the sweep
  // is population-bounded too.
  const std::uint32_t pids = bound_.get(n_);
  for (std::uint32_t p = 0; p < pids; ++p) {
    if (const auto* reg = a_.try_at(p)) delete (*reg)->peek();
  }
}

template <class Policy, class Value>
std::uint32_t RegisterPartialSnapshotT<Policy, Value>::add_components(
    std::uint32_t count) {
  // The constructor's build, at 0; nobody can read a new slot until
  // grow_components publishes the count.
  return grow_components(size_, count,
                         [this](std::uint32_t first, std::uint32_t k) {
                           build_components(first, k, {});
                         });
}

template <class Policy, class Value>
auto RegisterPartialSnapshotT<Policy, Value>::embedded_scan(
    std::span<const std::uint32_t> args, ScanContext& ctx) -> const ViewV& {
  OpStats& stats = tls_op_stats();
  stats.embedded_args = args.size();
  ViewV& view = view_for<ValueType>(ctx);
  if (args.empty()) {
    view.clear();
    return view;
  }

  // Condition-(2) bookkeeping.  The paper phrases the rule as "three
  // different values written by the same process have been seen (in any
  // locations)", which is the classic single-writer formulation: with one
  // register per process, three distinct values can only be observed as
  // two *changes* over time, proving two writes happened during this scan.
  // In the multi-writer object a process's old records can sit in several
  // components simultaneously, so three distinct values may all predate
  // the scan and borrowing would be unsound (the borrowed view could miss
  // updates that completed before we started).  We therefore implement the
  // rule the proof actually uses: a process must be observed to *move*
  // twice -- publish two distinct records that each appeared as a change
  // between consecutive collects of this scan.  Both moves then happened
  // during the scan, so the later of the two belongs to an update whose
  // embedded scan (and getSet) started after ours -- precisely the
  // condition the paper's correctness argument requires.
  //
  // Pointer identity is sound throughout: we are EBR-pinned for the whole
  // operation, so no observed record can be freed -- or, with pooling,
  // recycled -- and its address reused.  Release-mode note: "appeared as a
  // change" compares two acquire loads of the SAME location, so only
  // per-location coherence is consumed; the borrow dereference pairs with
  // the publishing release exchange.
  //
  // The table is population-adaptive: sized at the PidBound walk bound
  // (O(live pids) to zero-fill, not O(max_threads)) and regrown mid-scan
  // if a fresher pid publishes -- see core/moved_twice.h.
  MovedTwiceTable<Rec> seen(ctx.arena, bound_.get(n_), n_);
  auto note_move = [&seen](const Rec* rec) { return seen.note_move(rec); };

  std::span<const Rec*> prev = ctx.arena.take<const Rec*>(args.size());
  std::span<const Rec*> cur = ctx.arena.take<const Rec*>(args.size());
  bool have_prev = false;

  while (true) {
    ++stats.collects;
    // Wait-freedom bound (Section 3): every differing pair of consecutive
    // collects contributes at least one fresh move, and 2n+1 moves force
    // some process to two moves.  The assert turns a lost helping path
    // into a loud failure instead of an unbounded loop.
    PSNAP_ASSERT_MSG(stats.collects <= 2ull * n_ + 3,
                     "figure-1 embedded scan exceeded its collect bound");
    const Rec* borrow = nullptr;
    for (std::size_t j = 0; j < args.size(); ++j) {
      cur[j] = r_.at(args[j])->load();
      if (have_prev && cur[j] != prev[j] && borrow == nullptr) {
        borrow = note_move(cur[j]);
      }
    }
    if (borrow != nullptr) {
      // Condition (2): borrow the embedded-scan result of an update that
      // started after we did.  Copied (capacity-reusing, down to the blob
      // plane's per-entry byte buffers) because the view must outlive the
      // borrowed record's EBR grace period.
      stats.borrowed = true;
      view = borrow->view;
      return view;
    }
    if (have_prev && std::equal(cur.begin(), cur.end(), prev.begin())) {
      // Condition (1): both collects saw the same records, so those values
      // coexisted at every instant between the collects.  resize+assign
      // rather than clear+push_back keeps existing entries' payload
      // capacity (a blob-plane entry re-fills its byte buffer in place).
      view.resize(args.size());
      for (std::size_t j = 0; j < args.size(); ++j) {
        view[j].index = args[j];
        Value::copy(cur[j]->value, view[j].value);
      }
      return view;
    }
    std::swap(prev, cur);
    have_prev = true;
  }
}

template <class Policy, class Value>
template <class Fill>
void RegisterPartialSnapshotT<Policy, Value>::do_update(std::uint32_t i,
                                                        Fill&& fill) {
  PSNAP_ASSERT(i < size_.load());
  std::uint32_t pid = exec::ctx().pid;
  PSNAP_ASSERT(pid < n_);
  tls_op_stats().reset();
  ScanContext& ctx = pid_scan_context();
  ctx.begin();
  auto guard = ebr_.pin();

  // Gather the components needed by announced scanners; the embedded scan
  // reads exactly those (the whole point of *partial* helping).
  as_.get_set(ctx.scanners);
  tls_op_stats().getset_size = ctx.scanners.size();

  ctx.union_args.clear();
  for (std::uint32_t p : ctx.scanners) {
    // try_at: a pid that joined without ever announcing has no slot; an
    // absent segment reads as "no announcement" without allocating on the
    // update path.  (A scanner always announces before joining, and its
    // segment install happens-before the join its getSet observed.)
    const auto* slot = a_.try_at(p);
    const IndexSet* announced = slot ? (*slot)->load() : nullptr;
    if (announced != nullptr) {
      ctx.union_args.insert(ctx.union_args.end(), announced->indices.begin(),
                            announced->indices.end());
    }
  }
  canonicalize(ctx.union_args);

  const ViewV& view = embedded_scan(ctx.union_args, ctx);

  // Pool-backed record, owned by the Handle until publication: if this
  // process halts at the publish step (crash injection, Section 2's
  // failure model), the unpublished record -- payload included -- returns
  // to the pool instead of leaking, skipping the grace period (nobody
  // ever saw the pointer).
  auto rec = record_pool_.acquire(ebr_);
  fill(rec->value);
  rec->counter = ++counter_.at(pid).value;
  rec->pid = pid;
  rec->view = view;  // capacity-reusing copy into the recycled vector

  // The write that linearizes the update.  exchange (one register step,
  // see primitives.h) returns the replaced record so exactly one thread
  // retires it.  Release mode: acq_rel -- release publishes the immutable
  // record to acquire collects, acquire covers the replaced record handed
  // to reclamation.
  const Rec* old = r_.at(i)->exchange(rec.get());
  rec.release();
  record_pool_.recycle(ebr_, const_cast<Rec*>(old));
}

template <class Policy, class Value>
void RegisterPartialSnapshotT<Policy, Value>::update(std::uint32_t i,
                                                     std::uint64_t v) {
  do_update(i, [v](ValueType& out) { Value::encode(v, out); });
}

template <class Policy, class Value>
void RegisterPartialSnapshotT<Policy, Value>::update_blob(
    std::uint32_t i, std::span<const std::byte> bytes) {
  if constexpr (Value::kIndirect) {
    do_update(i, [bytes](ValueType& out) { Value::assign(out, bytes); });
  } else {
    PartialSnapshot::update_blob(i, bytes);
  }
}

template <class Policy, class Value>
template <class Emit>
void RegisterPartialSnapshotT<Policy, Value>::do_scan(
    std::span<const std::uint32_t> indices, ScanContext& ctx,
    Emit&& emit) {
  std::uint32_t pid = exec::ctx().pid;
  PSNAP_ASSERT(pid < n_);
  const std::uint32_t m = size_.load();
  for (std::uint32_t i : indices) PSNAP_ASSERT(i < m);
  tls_op_stats().reset();
  ctx.begin();
  auto guard = ebr_.pin();

  ctx.canonical.assign(indices.begin(), indices.end());
  canonicalize(ctx.canonical);

  // Announce, then join: an update whose getSet sees us joined is
  // guaranteed to read our announcement (in Release mode: the join store
  // is release and sequenced after this exchange, so a getSet that
  // acquire-reads the joined flag also sees the announcement).
  // Re-publish only when the set changed: A[pid] is single-writer (ours),
  // so peeking our own register is local state, and an unchanged
  // announcement already covers this scan's components.  Announcements are
  // pooled, so even shape-alternating scans allocate nothing in steady
  // state.
  const IndexSet* announced = a_.at(pid)->peek();
  if (announced == nullptr || announced->indices != ctx.canonical) {
    auto announce = announce_pool_.acquire(ebr_);
    announce->indices.assign(ctx.canonical.begin(), ctx.canonical.end());
    const IndexSet* old_announce = a_.at(pid)->exchange(announce.get());
    announce.release();
    if (old_announce != nullptr) {
      announce_pool_.recycle(ebr_, const_cast<IndexSet*>(old_announce));
    }
  }
  as_.join();
  // Scanner end of the announce/join-vs-getSet handshake (see
  // primitives.h): the announcement exchange and the join store must
  // drain before our collect loads run, or a concurrent update's getSet
  // could miss us after our embedded scan has already begun -- which
  // would break the condition-(2) borrow coverage argument.
  primitives::protocol_fence<Policy>();
  const ViewV& view = embedded_scan(ctx.canonical, ctx);
  as_.leave();

  extract_view(view, indices, emit);
}

template <class Policy, class Value>
void RegisterPartialSnapshotT<Policy, Value>::scan(
    std::span<const std::uint32_t> indices, std::vector<std::uint64_t>& out,
    ScanContext& ctx) {
  out.clear();
  if (indices.empty()) return;
  out.reserve(indices.size());
  do_scan(indices, ctx, [&](std::size_t, const ValueType& v) {
    out.push_back(Value::decode(v));
  });
}

template <class Policy, class Value>
void RegisterPartialSnapshotT<Policy, Value>::scan_blobs(
    std::span<const std::uint32_t> indices, std::vector<value::Blob>& out,
    ScanContext& ctx) {
  if constexpr (Value::kIndirect) {
    if (indices.empty()) {
      out.clear();
      return;
    }
    // resize, not clear: surviving elements keep their byte capacity, so a
    // shape-stable caller's result buffers stop allocating after warm-up.
    out.resize(indices.size());
    do_scan(indices, ctx, [&](std::size_t k, const ValueType& v) {
      Value::copy(v, out[k]);
    });
  } else {
    PartialSnapshot::scan_blobs(indices, out, ctx);
  }
}

template class RegisterPartialSnapshotT<primitives::Instrumented,
                                        value::DirectU64>;
template class RegisterPartialSnapshotT<primitives::Release,
                                        value::DirectU64>;
template class RegisterPartialSnapshotT<primitives::Instrumented,
                                        value::IndirectBlob>;
template class RegisterPartialSnapshotT<primitives::Release,
                                        value::IndirectBlob>;

}  // namespace psnap::core
