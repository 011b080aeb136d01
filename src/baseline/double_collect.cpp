#include "baseline/double_collect.h"

#include <algorithm>
#include <memory>

#include "common/assert.h"
#include "core/op_stats.h"
#include "exec/exec.h"

namespace psnap::baseline {

template <class Value>
DoubleCollectSnapshotT<Value>::DoubleCollectSnapshotT(
    core::InitialVector initial, std::uint32_t max_processes,
    std::uint64_t max_collects_per_scan, std::uint64_t initial_value)
    : size_(initial.count()),
      n_(max_processes),
      initial_value_(initial_value),
      max_collects_(max_collects_per_scan) {
  PSNAP_ASSERT(initial.count() > 0 && n_ > 0);
  PSNAP_ASSERT_MSG(n_ <= reclaim::EbrDomain::kPidSlots,
                   "max_processes exceeds the pid-slot capacity");
  build_components(0, initial.count(), initial);
}

template <class Value>
DoubleCollectSnapshotT<Value>::~DoubleCollectSnapshotT() {
  const std::uint32_t m = size_.load();
  for (std::uint32_t i = 0; i < m; ++i) delete r_.at(i).peek();
}

template <class Value>
void DoubleCollectSnapshotT<Value>::build_components(
    std::uint32_t first, std::uint32_t count,
    const core::InitialVector& initial) {
  using Slot = primitives::Register<const SimpleRecord*>;
  r_.build(
      first, count,
      [&](Slot& slot, std::uint64_t i) {
        SimpleRecord* rec = make_record(/*counter=*/i, core::kInitPid);
        initial.fill<Value>(i, initial_value_, rec->value);
        slot.init(rec, /*label=*/i);
      },
      [](Slot& slot) { delete slot.peek(); });
}

template <class Value>
std::uint32_t DoubleCollectSnapshotT<Value>::add_components(
    std::uint32_t count) {
  return core::grow_components(size_, count,
                               [this](std::uint32_t first, std::uint32_t k) {
                                 build_components(first, k, {});
                               });
}

template <class Value>
template <class Fill>
void DoubleCollectSnapshotT<Value>::do_update(std::uint32_t i, Fill&& fill) {
  PSNAP_ASSERT(i < size_.load());
  std::uint32_t pid = exec::ctx().pid;
  PSNAP_ASSERT(pid < n_);
  core::tls_op_stats().reset();
  auto guard = ebr_.pin();
  std::unique_ptr<SimpleRecord> rec(
      make_record(++counter_.at(pid).value, pid));
  fill(rec->value);
  const SimpleRecord* old = r_.at(i).exchange(rec.get());
  rec.release();
  ebr_.retire(const_cast<SimpleRecord*>(old));
}

template <class Value>
void DoubleCollectSnapshotT<Value>::update(std::uint32_t i,
                                           std::uint64_t v) {
  do_update(i, [v](ValueType& out) { Value::encode(v, out); });
}

template <class Value>
void DoubleCollectSnapshotT<Value>::update_blob(
    std::uint32_t i, std::span<const std::byte> bytes) {
  if constexpr (Value::kIndirect) {
    do_update(i, [bytes](ValueType& out) { Value::assign(out, bytes); });
  } else {
    core::PartialSnapshot::update_blob(i, bytes);
  }
}

template <class Value>
template <class EntryT, class Fill>
void DoubleCollectSnapshotT<Value>::do_update_batch(
    std::span<const EntryT> entries, Fill&& fill) {
  if (entries.empty()) return;
  const std::uint32_t m = size_.load();
  for (const EntryT& e : entries) PSNAP_ASSERT(e.index < m);
  std::uint32_t pid = exec::ctx().pid;
  PSNAP_ASSERT(pid < n_);
  core::OpStats& stats = core::tls_op_stats();
  stats.reset();
  core::ScanContext& ctx = core::tls_scan_context();
  ctx.begin();
  auto guard = ebr_.pin();

  // Coalesce duplicate indices, later entries winning.
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

  for (std::uint32_t j = 0; j < count; ++j) {
    std::unique_ptr<SimpleRecord> rec(
        make_record(++counter_.at(pid).value, pid));
    fill(*merged[j], rec->value);
    const SimpleRecord* old = r_.at(merged[j]->index).exchange(rec.get());
    rec.release();
    ebr_.retire(const_cast<SimpleRecord*>(old));
  }
}

template <class Value>
void DoubleCollectSnapshotT<Value>::update_batch(
    std::span<const core::BatchEntry> entries) {
  do_update_batch(entries, [](const core::BatchEntry& e, ValueType& out) {
    Value::encode(e.value, out);
  });
}

template <class Value>
void DoubleCollectSnapshotT<Value>::update_batch_blob(
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
void DoubleCollectSnapshotT<Value>::do_scan(
    std::span<const std::uint32_t> indices, core::ScanContext& ctx,
    Extract&& extract) {
  const std::uint32_t m = size_.load();
  for (std::uint32_t i : indices) PSNAP_ASSERT(i < m);
  core::OpStats& stats = core::tls_op_stats();
  stats.reset();
  ctx.begin();
  auto guard = ebr_.pin();

  ctx.canonical.assign(indices.begin(), indices.end());
  core::canonicalize(ctx.canonical);
  std::span<const SimpleRecord*> prev =
      ctx.arena.take<const SimpleRecord*>(ctx.canonical.size());
  std::span<const SimpleRecord*> cur =
      ctx.arena.take<const SimpleRecord*>(ctx.canonical.size());
  bool have_prev = false;

  while (true) {
    ++stats.collects;
    if (max_collects_ != 0 && stats.collects > max_collects_) {
      throw StarvationError(stats.collects - 1);
    }
    for (std::size_t j = 0; j < ctx.canonical.size(); ++j) {
      cur[j] = r_.at(ctx.canonical[j]).load();
    }
    if (have_prev && std::equal(cur.begin(), cur.end(), prev.begin())) {
      break;
    }
    std::swap(prev, cur);
    have_prev = true;
  }

  // Still pinned: the collected records cannot be reclaimed under us, so
  // the extractor may copy payloads straight out of them.  It looks each
  // index's record up with a forward cursor over the canonical set.
  std::size_t cursor = 0;
  extract([&](std::uint32_t i) {
    return cur[core::cursor_find(ctx.canonical, i, cursor)];
  });
}

template <class Value>
void DoubleCollectSnapshotT<Value>::scan(
    std::span<const std::uint32_t> indices, std::vector<std::uint64_t>& out,
    core::ScanContext& ctx) {
  out.clear();
  if (indices.empty()) return;
  do_scan(indices, ctx, [&](auto&& record_of) {
    out.reserve(indices.size());
    for (std::uint32_t i : indices) {
      out.push_back(Value::decode(record_of(i)->value));
    }
  });
}

template <class Value>
void DoubleCollectSnapshotT<Value>::scan_blobs(
    std::span<const std::uint32_t> indices,
    std::vector<psnap::value::Blob>& out, core::ScanContext& ctx) {
  if constexpr (Value::kIndirect) {
    if (indices.empty()) {
      out.clear();
      return;
    }
    out.resize(indices.size());  // keeps element byte capacity
    try {
      do_scan(indices, ctx, [&](auto&& record_of) {
        for (std::size_t k = 0; k < indices.size(); ++k) {
          Value::copy(record_of(indices[k])->value, out[k]);
        }
      });
    } catch (...) {
      // Starvation path: never hand back a buffer of stale payloads (the
      // u64 scan leaves `out` empty on throw; match it).
      out.clear();
      throw;
    }
  } else {
    core::PartialSnapshot::scan_blobs(indices, out, ctx);
  }
}

template class DoubleCollectSnapshotT<psnap::value::DirectU64>;
template class DoubleCollectSnapshotT<psnap::value::IndirectBlob>;

}  // namespace psnap::baseline
