#include "baseline/full_snapshot.h"

#include <algorithm>
#include <memory>

#include "common/assert.h"
#include "core/moved_twice.h"
#include "core/op_stats.h"
#include "exec/exec.h"

namespace psnap::baseline {

template <class Value>
FullSnapshotT<Value>::FullSnapshotT(core::InitialVector initial,
                                    std::uint32_t max_processes,
                                    std::uint64_t initial_value,
                                    exec::PidBound bound)
    : size_(initial.count()),
      n_(max_processes),
      bound_(bound),
      initial_value_(initial_value) {
  PSNAP_ASSERT(initial.count() > 0 && n_ > 0);
  PSNAP_ASSERT_MSG(n_ <= reclaim::EbrDomain::kPidSlots,
                   "max_processes exceeds the pid-slot capacity");
  build_components(0, initial.count(), initial);
}

template <class Value>
FullSnapshotT<Value>::~FullSnapshotT() {
  const std::uint32_t m = size_.load();
  for (std::uint32_t i = 0; i < m; ++i) {
    const FullRecord* head = r_.at(i).peek();
    if constexpr (Value::kVersioned) {
      // Chain-trim invariant: {head, head->prev} are the only unretired
      // nodes of a chain (see version_chain.h); everything older already
      // recycled through the pool.
      delete head->prev.load(std::memory_order_relaxed);
    }
    delete head;
  }
  if constexpr (Value::kVersioned) {
    // Crash sweep: a thread halted mid-update_batch leaves its descriptor
    // in the per-pid slot.  Installed members belong to their chains
    // (freed above or already recycled); the never-installed nodes and the
    // descriptor itself are reachable only from here.
    const std::uint32_t pids = bound_.get(n_);
    for (std::uint32_t p = 0; p < pids; ++p) {
      auto* slot = active_batch_.try_at(p);
      if (slot == nullptr) continue;
      BatchDesc* desc = (*slot)->load(std::memory_order_relaxed);
      if (desc == nullptr) continue;
      for (std::uint32_t e = 0; e < desc->slots.size(); ++e) {
        auto& entry = desc->slots[e];
        if (entry.node != nullptr &&
            !entry.installed.load(std::memory_order_relaxed)) {
          delete entry.node;
        }
      }
      delete desc;
    }
  }
}

template <class Value>
void FullSnapshotT<Value>::build_components(
    std::uint32_t first, std::uint32_t count,
    const core::InitialVector& initial) {
  r_.build(
      first, count,
      [&](Slot& slot, std::uint64_t i) {
        auto* rec = new FullRecord();
        initial.fill<Value>(i, initial_value_, rec->value);
        rec->counter = i;
        if constexpr (Value::kVersioned) {
          rec->version.store(primitives::kInitialVersion,
                             std::memory_order_relaxed);
        }
        slot.init(rec, /*label=*/i);
      },
      [](Slot& slot) { delete slot.peek(); });
}

template <class Value>
std::uint32_t FullSnapshotT<Value>::add_components(std::uint32_t count) {
  return core::grow_components(size_, count,
                               [this](std::uint32_t first, std::uint32_t k) {
                                 build_components(first, k, {});
                               });
}

template <class Value>
auto FullSnapshotT<Value>::embedded_full_scan(core::ScanContext& ctx,
                                              std::uint32_t m)
    -> std::vector<ValueType>& {
  core::OpStats& stats = core::tls_op_stats();
  stats.embedded_args = m;
  std::vector<ValueType>& vals = core::values_for<ValueType>(ctx);

  // "Moved twice" helping rule bookkeeping; see the condition-(2)
  // discussion in register_psnap.cpp -- the same multi-writer soundness
  // argument applies here verbatim.  Population-adaptively sized, like
  // the local algorithms' tables (core/moved_twice.h): even the Omega(m)
  // baseline need not pay O(max_threads) bookkeeping per collect.
  core::MovedTwiceTable<FullRecord> seen(ctx.arena, bound_.get(n_), n_);
  auto note_move = [&seen](const FullRecord* rec) {
    return seen.note_move(rec);
  };

  std::span<const FullRecord*> prev = ctx.arena.take<const FullRecord*>(m);
  std::span<const FullRecord*> cur = ctx.arena.take<const FullRecord*>(m);
  bool have_prev = false;

  while (true) {
    ++stats.collects;
    PSNAP_ASSERT_MSG(stats.collects <= 2ull * n_ + 3,
                     "full-snapshot embedded scan exceeded its collect bound");
    const FullRecord* borrow = nullptr;
    for (std::uint32_t j = 0; j < m; ++j) {
      cur[j] = r_.at(j).load();
      if (have_prev && cur[j] != prev[j] && borrow == nullptr) {
        borrow = note_move(cur[j]);
      }
    }
    if (borrow != nullptr) {
      stats.borrowed = true;
      // The borrowed operation captured its count AFTER we captured ours
      // (it started during our scan; counts are monotone seq_cst), so its
      // full_view covers at least our m components.
      PSNAP_ASSERT(borrow->full_view.size() >= m);
      vals = borrow->full_view;  // capacity-reusing copy
      return vals;
    }
    if (have_prev && std::equal(cur.begin(), cur.end(), prev.begin())) {
      // resize+assign keeps element payload capacity on the blob plane.
      vals.resize(m);
      for (std::uint32_t j = 0; j < m; ++j) {
        Value::copy(cur[j]->value, vals[j]);
      }
      return vals;
    }
    std::swap(prev, cur);
    have_prev = true;
  }
}

template <class Value>
template <class Fill>
void FullSnapshotT<Value>::do_update(std::uint32_t i, Fill&& fill) {
  if constexpr (Value::kVersioned) {
    // Versioned plane: no complete collect, no full view -- append one
    // node to the component's chain.  The register exchange becomes a CAS
    // retry loop (a chain append must name its predecessor); a retry
    // means another update published, so the loop is lock-free.
    PSNAP_ASSERT(i < size_.load());
    std::uint32_t pid = exec::ctx().pid;
    PSNAP_ASSERT(pid < n_);
    core::tls_op_stats().reset();
    auto guard = ebr_.pin();

    auto rec = record_pool_.acquire(ebr_);
    fill(rec->value);
    rec->counter = ++counter_.at(pid).value;
    rec->pid = pid;
    rec->full_view.clear();  // versioned records carry no helping view
    // A recycled record may have been a batch member in a prior life.
    rec->batch.store(nullptr, std::memory_order_relaxed);
    FullRecord* node = rec.get();
    const FullRecord* old = r_.at(i).load();
    while (true) {
      // Fix the displaced head's version before publishing over it
      // (chain stamps must never decrease in publication order).
      primitives::ensure_stamped<primitives::Instrumented>(*old, camera_);
      node->version.store(primitives::kUnstamped, std::memory_order_relaxed);
      node->prev.store(old, std::memory_order_relaxed);
      const FullRecord* prev = r_.at(i).compare_and_swap(old, node);
      if (prev == old) break;
      old = prev;
    }
    rec.release();
    // Lazy chain trim: keeps the unretired set at {head, head->prev}.
    if (const FullRecord* trim = old->prev.load(std::memory_order_relaxed)) {
      record_pool_.recycle(ebr_, const_cast<FullRecord*>(trim));
    }
    primitives::ensure_stamped<primitives::Instrumented>(*node, camera_);
  } else {
    const std::uint32_t m = size_.load();
    PSNAP_ASSERT(i < m);
    std::uint32_t pid = exec::ctx().pid;
    PSNAP_ASSERT(pid < n_);
    core::tls_op_stats().reset();
    core::ScanContext& ctx = core::tls_scan_context();
    ctx.begin();
    auto guard = ebr_.pin();

    std::vector<ValueType>& vals = embedded_full_scan(ctx, m);
    // Pool-backed record, owned by the Handle until publication (an
    // injected halt at the publish step returns it to the pool instead of
    // leaking).
    auto rec = record_pool_.acquire(ebr_);
    fill(rec->value);
    rec->counter = ++counter_.at(pid).value;
    rec->pid = pid;
    rec->full_view = vals;  // capacity-reusing copy
    const FullRecord* old = r_.at(i).exchange(rec.get());
    rec.release();
    record_pool_.recycle(ebr_, const_cast<FullRecord*>(old));
  }
}

template <class Value>
void FullSnapshotT<Value>::update(std::uint32_t i, std::uint64_t v) {
  do_update(i, [v](ValueType& out) { Value::encode(v, out); });
}

template <class Value>
void FullSnapshotT<Value>::update_blob(std::uint32_t i,
                                       std::span<const std::byte> bytes) {
  if constexpr (Value::kIndirect) {
    do_update(i, [bytes](ValueType& out) { Value::assign(out, bytes); });
  } else {
    core::PartialSnapshot::update_blob(i, bytes);
  }
}

template <class Value>
void FullSnapshotT<Value>::resolve_batch(const BatchDesc& desc) {
  if constexpr (Value::kVersioned) {
    primitives::batch_install_and_resolve<primitives::Instrumented>(
        desc.slots.data(), desc.slots.size(), desc, camera_,
        [this](std::uint32_t i) -> auto& { return r_.at(i); },
        [this](const FullRecord* displaced) {
          // Lazy chain trim, as in the singleton update.
          if (const FullRecord* trim =
                  displaced->prev.load(std::memory_order_relaxed)) {
            record_pool_.recycle(ebr_, const_cast<FullRecord*>(trim));
          }
        });
  } else {
    (void)desc;
    PSNAP_ASSERT_MSG(false, "resolve_batch on a non-versioned plane");
  }
}

template <class Value>
template <class EntryT, class Fill>
void FullSnapshotT<Value>::do_update_batch(std::span<const EntryT> entries,
                                           Fill&& fill) {
  if (entries.empty()) return;
  std::uint32_t pid = exec::ctx().pid;
  PSNAP_ASSERT(pid < n_);
  const std::uint32_t m = size_.load();
  for (const EntryT& e : entries) PSNAP_ASSERT(e.index < m);
  core::OpStats& stats = core::tls_op_stats();
  stats.reset();
  core::ScanContext& ctx = core::tls_scan_context();
  ctx.begin();
  auto guard = ebr_.pin();

  // Coalesce duplicate indices, later entries winning (one protocol
  // instance, so per-component order degenerates to last-wins).
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
    // invariant (version_chain.h).
    std::sort(merged.begin(), merged.begin() + count,
              [](const EntryT* a, const EntryT* b) {
                return a->index < b->index;
              });

    auto desc_handle = batch_pool_.acquire(ebr_);
    BatchDesc* desc = desc_handle.get();
    desc->owner = this;
    desc->version.store(primitives::kUnstamped, std::memory_order_relaxed);
    desc->slots.reset(count);
    for (std::uint32_t j = 0; j < count; ++j) {
      desc->slots[j].index = merged[j]->index;
    }
    // Publish the descriptor for the crash sweep BEFORE any node leaves
    // the pool (see the twin in cas_psnap.cpp).
    active_batch_.at(pid)->store(desc_handle.release(),
                                 std::memory_order_release);

    for (std::uint32_t j = 0; j < count; ++j) {
      auto rec = record_pool_.acquire(ebr_);
      fill(*merged[j], rec->value);
      rec->counter = counter_.at(pid).value + 1 + j;
      rec->pid = pid;
      rec->full_view.clear();
      rec->version.store(primitives::kUnstamped, std::memory_order_relaxed);
      rec->prev.store(nullptr, std::memory_order_relaxed);
      rec->batch.store(desc, std::memory_order_relaxed);
      desc->slots[j].node = rec.release();
    }
    counter_.at(pid).value += count;

    // ONE helping round for the k appends, then the one shared stamp --
    // the batch's linearization point.
    resolve_batch(*desc);

    const std::uint64_t stamp = desc->version.load(std::memory_order_acquire);
    stats.epoch = stamp;
    for (std::uint32_t j = 0; j < count; ++j) {
      primitives::stamp_version<primitives::Instrumented>(
          *desc->slots[j].node, stamp);
    }
    active_batch_.at(pid)->store(nullptr, std::memory_order_relaxed);
    batch_pool_.recycle(ebr_, desc);
  } else {
    // Collect planes: ONE embedded full scan (the Omega(m) helping cost,
    // the whole point of batching here) shared by k exchange
    // publications.  All k records carry the batch's one counter -- a
    // batch is one operation, and the moved-twice rule counts moves per
    // operation (core/moved_twice.h), so its k publications read as one
    // move; the borrow argument then holds verbatim with "operation"
    // substituted for "record".
    std::vector<ValueType>& vals = embedded_full_scan(ctx, m);
    const std::uint64_t batch_counter = ++counter_.at(pid).value;
    for (std::uint32_t j = 0; j < count; ++j) {
      auto rec = record_pool_.acquire(ebr_);
      fill(*merged[j], rec->value);
      rec->counter = batch_counter;
      rec->pid = pid;
      rec->full_view = vals;  // capacity-reusing copy
      const FullRecord* old = r_.at(merged[j]->index).exchange(rec.get());
      rec.release();
      record_pool_.recycle(ebr_, const_cast<FullRecord*>(old));
    }
  }
}

template <class Value>
void FullSnapshotT<Value>::update_batch(
    std::span<const core::BatchEntry> entries) {
  do_update_batch(entries, [](const core::BatchEntry& e, ValueType& out) {
    Value::encode(e.value, out);
  });
}

template <class Value>
void FullSnapshotT<Value>::update_batch_blob(
    std::span<const core::BlobBatchEntry> entries) {
  if constexpr (Value::kIndirect) {
    do_update_batch(entries, [](const core::BlobBatchEntry& e, ValueType& out) {
      Value::assign(out, e.bytes);
    });
  } else {
    core::PartialSnapshot::update_batch_blob(entries);
  }
}

template <class Value>
template <class Extract>
void FullSnapshotT<Value>::do_scan(std::span<const std::uint32_t> indices,
                                   core::ScanContext& ctx,
                                   Extract&& extract) {
  const std::uint32_t m = size_.load();
  for (std::uint32_t i : indices) PSNAP_ASSERT(i < m);
  std::uint32_t pid = exec::ctx().pid;
  PSNAP_ASSERT(pid < n_);
  core::tls_op_stats().reset();
  ctx.begin();
  auto guard = ebr_.pin();

  extract(embedded_full_scan(ctx, m));
}

template <class Value>
std::uint64_t FullSnapshotT<Value>::do_scan_versioned(
    std::span<const std::uint32_t> indices, std::vector<std::uint64_t>& out) {
  if constexpr (Value::kVersioned) {
    PSNAP_ASSERT(exec::ctx().pid < n_);
    const std::uint32_t m = size_.load();
    for (std::uint32_t i : indices) PSNAP_ASSERT(i < m);
    core::OpStats& stats = core::tls_op_stats();
    stats.reset();
    auto guard = ebr_.pin();

    // One camera fetch-add, then only the r requested chains -- the
    // baseline's Omega(m) scan cost is gone (see the header comment).
    const std::uint64_t epoch = camera_.new_epoch();
    stats.epoch = epoch;
    out.resize(indices.size());
    for (std::size_t k = 0; k < indices.size(); ++k) {
      std::uint64_t walked = 0;
      const FullRecord* node =
          primitives::chain_read<primitives::Instrumented>(
              r_.at(indices[k]).load(), epoch, camera_, walked);
      out[k] = Value::decode(node->value);
      stats.chain_nodes = std::max(stats.chain_nodes, walked);
    }
    return epoch;
  } else {
    (void)indices;
    (void)out;
    PSNAP_ASSERT_MSG(false, "do_scan_versioned on a non-versioned plane");
    return 0;
  }
}

template <class Value>
std::uint64_t FullSnapshotT<Value>::scan_versioned(
    std::span<const std::uint32_t> indices, std::vector<std::uint64_t>& out,
    core::ScanContext& ctx) {
  if constexpr (Value::kVersioned) {
    (void)ctx;
    return do_scan_versioned(indices, out);
  } else {
    return core::PartialSnapshot::scan_versioned(indices, out, ctx);
  }
}

template <class Value>
void FullSnapshotT<Value>::scan(std::span<const std::uint32_t> indices,
                                std::vector<std::uint64_t>& out,
                                core::ScanContext& ctx) {
  if constexpr (Value::kVersioned) {
    do_scan_versioned(indices, out);
    return;
  } else {
    out.clear();
    if (indices.empty()) return;
    do_scan(indices, ctx, [&](const std::vector<ValueType>& vals) {
      out.reserve(indices.size());
      for (std::uint32_t i : indices) out.push_back(Value::decode(vals[i]));
    });
  }
}

template <class Value>
void FullSnapshotT<Value>::scan_blobs(std::span<const std::uint32_t> indices,
                                      std::vector<psnap::value::Blob>& out,
                                      core::ScanContext& ctx) {
  if constexpr (Value::kIndirect) {
    if (indices.empty()) {
      out.clear();
      return;
    }
    out.resize(indices.size());  // keeps element byte capacity
    do_scan(indices, ctx, [&](const std::vector<ValueType>& vals) {
      for (std::size_t k = 0; k < indices.size(); ++k) {
        Value::copy(vals[indices[k]], out[k]);
      }
    });
  } else {
    core::PartialSnapshot::scan_blobs(indices, out, ctx);
  }
}

template class FullSnapshotT<psnap::value::DirectU64>;
template class FullSnapshotT<psnap::value::IndirectBlob>;
template class FullSnapshotT<psnap::value::VersionedU64>;

}  // namespace psnap::baseline
