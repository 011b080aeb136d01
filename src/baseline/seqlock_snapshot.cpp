#include "baseline/seqlock_snapshot.h"

#include <atomic>

#include "common/assert.h"
#include "core/op_stats.h"

namespace psnap::baseline {

template <class Value>
void SeqlockSnapshotT<Value>::build_components(
    std::uint32_t first, std::uint32_t count,
    const core::InitialVector& initial) {
  data_.build(
      first, count,
      [&](Cell& cell, std::uint64_t i) {
        if constexpr (Value::kIndirect) {
          auto* node = new primitives::BlobNode();
          initial.fill<Value>(i, node->bytes);
          cell.init(node, /*label=*/i);
        } else {
          std::uint64_t v = 0;
          initial.fill<Value>(i, v);
          cell.init(v, /*label=*/i);
        }
      },
      [](Cell& cell) {
        if constexpr (Value::kIndirect) {
          delete cell.peek();
        }
      });
}

template <class Value>
SeqlockSnapshotT<Value>::SeqlockSnapshotT(core::InitialVector initial,
                                          std::uint64_t max_attempts_per_scan)
    : size_(initial.count()), max_attempts_(max_attempts_per_scan) {
  PSNAP_ASSERT(initial.count() > 0);
  build_components(0, initial.count(), initial);
}

template <class Value>
SeqlockSnapshotT<Value>::~SeqlockSnapshotT() {
  if constexpr (Value::kIndirect) {
    // Quiescent: the published nodes are owned here; in-flight retired
    // nodes drain into the pool when plane_.ebr is destroyed.
    const std::uint32_t m = size_.load();
    for (std::uint32_t i = 0; i < m; ++i) delete data_.at(i).peek();
  }
}

template <class Value>
std::uint32_t SeqlockSnapshotT<Value>::add_components(std::uint32_t count) {
  return core::grow_components(size_, count,
                               [this](std::uint32_t first, std::uint32_t k) {
                                 build_components(first, k, {});
                               });
}

template <class Value>
template <class Fill>
void SeqlockSnapshotT<Value>::do_update(std::uint32_t i, Fill&& fill) {
  PSNAP_ASSERT(i < size_.load());
  core::tls_op_stats().reset();
  if constexpr (Value::kIndirect) {
    // Build the immutable node before taking the writer section (pool-
    // backed: the byte buffer keeps its capacity across lives, and an
    // unwind before publication returns the node without a grace period).
    auto guard = plane_.ebr.pin();
    auto node = plane_.pool.acquire(plane_.ebr);
    fill(node->bytes);
    while (true) {
      std::uint64_t v0 = version_.load();
      if (v0 % 2 == 1) continue;  // another writer holds it
      if (version_.compare_and_swap_bool(v0, v0 + 1)) {
        const primitives::BlobNode* old = data_.at(i).exchange(node.get());
        node.release();
        // Only the holder modifies an odd version, so this CAS cannot fail.
        bool released = version_.compare_and_swap_bool(v0 + 1, v0 + 2);
        PSNAP_ASSERT(released);
        // Retire outside the writer section: a pinned reader may still
        // dereference the replaced node until its grace period expires.
        plane_.pool.recycle(plane_.ebr,
                            const_cast<primitives::BlobNode*>(old));
        return;
      }
    }
  } else {
    ValueType v{};
    fill(v);
    while (true) {
      std::uint64_t v0 = version_.load();
      if (v0 % 2 == 1) continue;  // another writer holds it
      if (version_.compare_and_swap_bool(v0, v0 + 1)) {
        data_.at(i).store(v);
        // Only the holder modifies an odd version, so this CAS cannot fail.
        bool released = version_.compare_and_swap_bool(v0 + 1, v0 + 2);
        PSNAP_ASSERT(released);
        return;
      }
    }
  }
}

template <class Value>
void SeqlockSnapshotT<Value>::update(std::uint32_t i, std::uint64_t v) {
  do_update(i, [v](ValueType& out) { Value::encode(v, out); });
}

template <class Value>
void SeqlockSnapshotT<Value>::update_blob(std::uint32_t i,
                                          std::span<const std::byte> bytes) {
  if constexpr (Value::kIndirect) {
    do_update(i, [bytes](ValueType& out) { Value::assign(out, bytes); });
  } else {
    core::PartialSnapshot::update_blob(i, bytes);
  }
}

template <class Value>
template <class EntryT, class Fill>
void SeqlockSnapshotT<Value>::do_update_batch(std::span<const EntryT> entries,
                                              Fill&& fill) {
  if (entries.empty()) return;
  const std::uint32_t m = size_.load();
  for (const EntryT& e : entries) PSNAP_ASSERT(e.index < m);
  core::OpStats& stats = core::tls_op_stats();
  stats.reset();
  core::ScanContext& ctx = core::pid_scan_context();
  ctx.begin();

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

  if constexpr (Value::kIndirect) {
    auto guard = plane_.ebr.pin();
    std::span<const primitives::BlobNode*> olds =
        ctx.arena.take<const primitives::BlobNode*>(count);
    while (true) {
      std::uint64_t v0 = version_.load();
      if (v0 % 2 == 1) continue;  // another writer holds it
      if (!version_.compare_and_swap_bool(v0, v0 + 1)) continue;
      for (std::uint32_t j = 0; j < count; ++j) {
        auto node = plane_.pool.acquire(plane_.ebr);
        fill(*merged[j], node->bytes);
        olds[j] = data_.at(merged[j]->index).exchange(node.release());
      }
      bool released = version_.compare_and_swap_bool(v0 + 1, v0 + 2);
      PSNAP_ASSERT(released);
      break;
    }
    // Retire outside the writer section, as in the singleton update.
    for (std::uint32_t j = 0; j < count; ++j) {
      plane_.pool.recycle(plane_.ebr,
                          const_cast<primitives::BlobNode*>(olds[j]));
    }
  } else {
    while (true) {
      std::uint64_t v0 = version_.load();
      if (v0 % 2 == 1) continue;  // another writer holds it
      if (!version_.compare_and_swap_bool(v0, v0 + 1)) continue;
      for (std::uint32_t j = 0; j < count; ++j) {
        ValueType v{};
        fill(*merged[j], v);
        data_.at(merged[j]->index).store(v);
      }
      bool released = version_.compare_and_swap_bool(v0 + 1, v0 + 2);
      PSNAP_ASSERT(released);
      return;
    }
  }
}

template <class Value>
void SeqlockSnapshotT<Value>::update_batch(
    std::span<const core::BatchEntry> entries) {
  do_update_batch(entries, [](const core::BatchEntry& e, ValueType& out) {
    Value::encode(e.value, out);
  });
}

template <class Value>
void SeqlockSnapshotT<Value>::update_batch_blob(
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
template <class Collect>
void SeqlockSnapshotT<Value>::do_scan(std::span<const std::uint32_t> indices,
                                      std::uint32_t m, Collect&& collect) {
  core::OpStats& stats = core::tls_op_stats();
  while (true) {
    ++stats.collects;
    if (max_attempts_ != 0 && stats.collects > max_attempts_) {
      throw StarvationError(stats.collects - 1);
    }
    std::uint64_t v0 = version_.load();
    if (v0 % 2 == 1) continue;
    for (std::size_t j = 0; j < indices.size(); ++j) {
      PSNAP_ASSERT(indices[j] < m);
      collect(j, indices[j]);
    }
    std::uint64_t v1 = version_.load();
    if (v1 == v0) return;
  }
}

template <class Value>
void SeqlockSnapshotT<Value>::scan(std::span<const std::uint32_t> indices,
                                   std::vector<std::uint64_t>& out,
                                   core::ScanContext& ctx) {
  out.clear();
  if (indices.empty()) return;
  const std::uint32_t m = size_.load();
  core::tls_op_stats().reset();
  ctx.begin();
  // Collect straight into `out` (capacity-reusing); a retry overwrites in
  // place, and the starvation path clears the partial collect.
  out.resize(indices.size());
  try {
    if constexpr (Value::kIndirect) {
      // Pinned across the retry loop: every pointer loaded inside is
      // dereferenceable even if the writer that replaced it has already
      // retired it (a version mismatch only discards the copied bytes).
      auto guard = plane_.ebr.pin();
      do_scan(indices, m, [&](std::size_t j, std::uint32_t index) {
        out[j] = Value::decode(data_.at(index).load()->bytes);
      });
    } else {
      do_scan(indices, m, [&](std::size_t j, std::uint32_t index) {
        out[j] = data_.at(index).load();
      });
    }
  } catch (...) {
    out.clear();
    throw;
  }
}

template <class Value>
void SeqlockSnapshotT<Value>::scan_blobs(
    std::span<const std::uint32_t> indices,
    std::vector<psnap::value::Blob>& out, core::ScanContext& ctx) {
  if constexpr (Value::kIndirect) {
    if (indices.empty()) {
      out.clear();
      return;
    }
    const std::uint32_t m = size_.load();
    core::tls_op_stats().reset();
    ctx.begin();
    out.resize(indices.size());  // keeps element byte capacity
    try {
      auto guard = plane_.ebr.pin();
      do_scan(indices, m, [&](std::size_t j, std::uint32_t index) {
        Value::copy(data_.at(index).load()->bytes, out[j]);
      });
    } catch (...) {
      out.clear();
      throw;
    }
  } else {
    core::PartialSnapshot::scan_blobs(indices, out, ctx);
  }
}

template class SeqlockSnapshotT<psnap::value::DirectU64>;
template class SeqlockSnapshotT<psnap::value::IndirectBlob>;

}  // namespace psnap::baseline
