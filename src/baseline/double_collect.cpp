#include "baseline/double_collect.h"

#include <algorithm>
#include <memory>

#include "common/assert.h"
#include "core/op_stats.h"
#include "exec/capacity.h"
#include "exec/exec.h"

namespace psnap::baseline {

DoubleCollectSnapshot::DoubleCollectSnapshot(
    core::InitialVector initial, std::uint32_t max_processes,
    std::uint64_t max_collects_per_scan)
    : size_(initial.count()),
      n_(max_processes),
      max_collects_(max_collects_per_scan) {
  PSNAP_ASSERT(initial.count() > 0 && n_ > 0);
  PSNAP_ASSERT_MSG(n_ <= exec::kMaxPidCapacity,
                   "max_processes exceeds the pid-slot capacity");
  build_components(0, initial.count(), initial);
}

DoubleCollectSnapshot::~DoubleCollectSnapshot() {
  const std::uint32_t m = size_.load();
  for (std::uint32_t i = 0; i < m; ++i) delete r_.at(i).peek();
}

void DoubleCollectSnapshot::build_components(
    std::uint32_t first, std::uint32_t count,
    const core::InitialVector& initial) {
  using Slot = primitives::Register<const SimpleRecord*>;
  r_.build(
      first, count,
      [&](Slot& slot, std::uint64_t i) {
        auto* rec = new SimpleRecord();
        initial.fill<value::DirectU64>(i, rec->value);
        rec->counter = i;
        slot.init(rec, /*label=*/i);
      },
      [](Slot& slot) { delete slot.peek(); });
}

std::uint32_t DoubleCollectSnapshot::add_components(std::uint32_t count) {
  return core::grow_components(size_, count,
                               [this](std::uint32_t first, std::uint32_t k) {
                                 build_components(first, k, {});
                               });
}

void DoubleCollectSnapshot::publish(std::uint32_t i, std::uint64_t v,
                                    std::uint32_t pid) {
  auto rec = std::make_unique<SimpleRecord>();
  rec->value = v;
  rec->counter = ++counter_.at(pid).value;
  rec->pid = pid;
  const SimpleRecord* old = r_.at(i).exchange(rec.get());
  rec.release();
  ebr_.retire(const_cast<SimpleRecord*>(old));
}

void DoubleCollectSnapshot::update(std::uint32_t i, std::uint64_t v) {
  PSNAP_ASSERT(i < size_.load());
  std::uint32_t pid = exec::ctx().pid;
  PSNAP_ASSERT(pid < n_);
  core::tls_op_stats().reset();
  auto guard = ebr_.pin();
  publish(i, v, pid);
}

void DoubleCollectSnapshot::update_batch(
    std::span<const core::BatchEntry> entries) {
  if (entries.empty()) return;
  const std::uint32_t m = size_.load();
  for (const core::BatchEntry& e : entries) PSNAP_ASSERT(e.index < m);
  std::uint32_t pid = exec::ctx().pid;
  PSNAP_ASSERT(pid < n_);
  core::OpStats& stats = core::tls_op_stats();
  stats.reset();
  core::ScanContext& ctx = core::pid_scan_context();
  ctx.begin();
  auto guard = ebr_.pin();

  // Coalesce duplicate indices, later entries winning.
  std::span<const core::BatchEntry*> merged =
      ctx.arena.take<const core::BatchEntry*>(entries.size());
  std::uint32_t count = 0;
  for (const core::BatchEntry& e : entries) {
    std::uint32_t j = 0;
    while (j < count && merged[j]->index != e.index) ++j;
    merged[j] = &e;
    if (j == count) ++count;
  }
  stats.batch_size = count;

  for (std::uint32_t j = 0; j < count; ++j) {
    publish(merged[j]->index, merged[j]->value, pid);
  }
}

void DoubleCollectSnapshot::scan(std::span<const std::uint32_t> indices,
                                 std::vector<std::uint64_t>& out,
                                 core::ScanContext& ctx) {
  out.clear();
  if (indices.empty()) return;
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

  // Still pinned: the collected records cannot be reclaimed under us.
  // Each index's record is found with a forward cursor over the canonical
  // set.
  std::size_t cursor = 0;
  out.reserve(indices.size());
  for (std::uint32_t i : indices) {
    out.push_back(cur[core::cursor_find(ctx.canonical, i, cursor)]->value);
  }
}

}  // namespace psnap::baseline
