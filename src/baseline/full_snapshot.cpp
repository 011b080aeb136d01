#include "baseline/full_snapshot.h"

#include <algorithm>

#include "common/assert.h"
#include "core/moved_twice.h"
#include "core/op_stats.h"
#include "exec/capacity.h"
#include "exec/exec.h"
#include "exec/pid_bound.h"

namespace psnap::baseline {

FullSnapshot::FullSnapshot(core::InitialVector initial,
                           std::uint32_t max_processes)
    : size_(initial.count()), n_(max_processes) {
  PSNAP_ASSERT(initial.count() > 0 && n_ > 0);
  PSNAP_ASSERT_MSG(n_ <= exec::kMaxPidCapacity,
                   "max_processes exceeds the pid-slot capacity");
  build_components(0, initial.count(), initial);
}

FullSnapshot::~FullSnapshot() {
  const std::uint32_t m = size_.load();
  for (std::uint32_t i = 0; i < m; ++i) delete r_.at(i).peek();
}

void FullSnapshot::build_components(std::uint32_t first, std::uint32_t count,
                                    const core::InitialVector& initial) {
  r_.build(
      first, count,
      [&](Slot& slot, std::uint64_t i) {
        auto* rec = new FullRecord();
        initial.fill<value::DirectU64>(i, rec->value);
        rec->counter = i;
        slot.init(rec, /*label=*/i);
      },
      [](Slot& slot) { delete slot.peek(); });
}

std::uint32_t FullSnapshot::add_components(std::uint32_t count) {
  return core::grow_components(size_, count,
                               [this](std::uint32_t first, std::uint32_t k) {
                                 build_components(first, k, {});
                               });
}

std::vector<std::uint64_t>& FullSnapshot::embedded_full_scan(
    core::ScanContext& ctx, std::uint32_t m) {
  core::OpStats& stats = core::tls_op_stats();
  stats.embedded_args = m;
  std::vector<std::uint64_t>& vals = ctx.values;

  // "Moved twice" helping rule bookkeeping; see the condition-(2)
  // discussion in register_psnap.cpp -- the same multi-writer soundness
  // argument applies here verbatim.  Population-adaptively sized, like
  // the local algorithms' tables (core/moved_twice.h): even the Omega(m)
  // baseline need not pay O(max_threads) bookkeeping per collect.
  core::MovedTwiceTable<FullRecord> seen(ctx.arena, exec::PidBound{}.get(n_),
                                         n_);

  std::span<const FullRecord*> prev = ctx.arena.take<const FullRecord*>(m);
  std::span<const FullRecord*> cur = ctx.arena.take<const FullRecord*>(m);
  bool have_prev = false;

  // Wait-freedom bound.  Every collect after the first that neither
  // returns nor borrows differs from its predecessor, so it shows a
  // change-record: a record at a location that the previous collect saw
  // holding another.  A record is published once and, the scan being
  // pinned, never recycled into a new one, so no change-record shows twice.
  // Each is noted, and with no borrow yet the noted records belong to at
  // most one operation per pid.  An update_batch publishes its k records
  // under one counter, so that one operation can show up as k changes:
  // up to m of them here, one per location.  Hence at most n * m
  // differing collects between the first collect and the last.
  const std::uint64_t collect_bound = std::uint64_t{n_} * m + 2;
  while (true) {
    ++stats.collects;
    PSNAP_ASSERT_MSG(stats.collects <= collect_bound,
                     "full-snapshot embedded scan exceeded its collect bound");
    const FullRecord* borrow = nullptr;
    for (std::uint32_t j = 0; j < m; ++j) {
      cur[j] = r_.at(j).load();
      if (have_prev && cur[j] != prev[j] && borrow == nullptr) {
        borrow = seen.note_move(cur[j]);
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
      vals.resize(m);
      for (std::uint32_t j = 0; j < m; ++j) vals[j] = cur[j]->value;
      return vals;
    }
    std::swap(prev, cur);
    have_prev = true;
  }
}

void FullSnapshot::publish(std::uint32_t i, std::uint64_t value,
                           std::uint64_t counter, std::uint32_t pid,
                           const std::vector<std::uint64_t>& vals) {
  // Pool-backed record, owned by the Handle until publication (an
  // injected halt at the publish step returns it to the pool instead of
  // leaking).
  auto rec = record_pool_.acquire(ebr_);
  rec->value = value;
  rec->counter = counter;
  rec->pid = pid;
  rec->full_view = vals;  // capacity-reusing copy
  const FullRecord* old = r_.at(i).exchange(rec.get());
  rec.release();
  record_pool_.recycle(ebr_, const_cast<FullRecord*>(old));
}

void FullSnapshot::update(std::uint32_t i, std::uint64_t v) {
  const std::uint32_t m = size_.load();
  PSNAP_ASSERT(i < m);
  std::uint32_t pid = exec::ctx().pid;
  PSNAP_ASSERT(pid < n_);
  core::tls_op_stats().reset();
  core::ScanContext& ctx = core::pid_scan_context();
  ctx.begin();
  auto guard = ebr_.pin();

  std::vector<std::uint64_t>& vals = embedded_full_scan(ctx, m);
  publish(i, v, ++counter_.at(pid).value, pid, vals);
}

void FullSnapshot::update_batch(std::span<const core::BatchEntry> entries) {
  if (entries.empty()) return;
  std::uint32_t pid = exec::ctx().pid;
  PSNAP_ASSERT(pid < n_);
  const std::uint32_t m = size_.load();
  for (const core::BatchEntry& e : entries) PSNAP_ASSERT(e.index < m);
  core::OpStats& stats = core::tls_op_stats();
  stats.reset();
  core::ScanContext& ctx = core::pid_scan_context();
  ctx.begin();
  auto guard = ebr_.pin();

  // Coalesce duplicate indices, later entries winning (one protocol
  // instance, so per-component order degenerates to last-wins).
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

  // ONE embedded full scan (the Omega(m) helping cost, the whole point of
  // batching here) shared by k exchange publications.  All k records
  // carry the batch's one counter -- a batch is one operation, and the
  // moved-twice rule counts moves per operation (core/moved_twice.h), so
  // its k publications read as one move; the borrow argument then holds
  // verbatim with "operation" substituted for "record".
  std::vector<std::uint64_t>& vals = embedded_full_scan(ctx, m);
  const std::uint64_t batch_counter = ++counter_.at(pid).value;
  for (std::uint32_t j = 0; j < count; ++j) {
    publish(merged[j]->index, merged[j]->value, batch_counter, pid, vals);
  }
}

void FullSnapshot::scan(std::span<const std::uint32_t> indices,
                        std::vector<std::uint64_t>& out,
                        core::ScanContext& ctx) {
  out.clear();
  if (indices.empty()) return;
  const std::uint32_t m = size_.load();
  for (std::uint32_t i : indices) PSNAP_ASSERT(i < m);
  std::uint32_t pid = exec::ctx().pid;
  PSNAP_ASSERT(pid < n_);
  core::tls_op_stats().reset();
  ctx.begin();
  auto guard = ebr_.pin();

  const std::vector<std::uint64_t>& vals = embedded_full_scan(ctx, m);
  out.reserve(indices.size());
  for (std::uint32_t i : indices) out.push_back(vals[i]);
}

}  // namespace psnap::baseline
