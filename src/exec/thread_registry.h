// Dynamic thread lifecycle: reusable process ids.
//
// The seed runtime froze the thread population at construction: every
// harness assigned fixed pids 0..n-1 with exec::ScopedPid and the snapshot
// objects sized their per-process arrays to that n forever.  Workloads with
// churn -- clients connecting and disconnecting, worker pools resizing --
// could not even be expressed.
//
// A ThreadRegistry hands out pids dynamically from a bounded capacity:
//
//   * acquire() returns the lowest free pid (lock-free bitmap CAS), so the
//     set of live pids stays dense -- per-pid walks (active-set collects,
//     announcement reads) touch only the low slots actually in use;
//   * release(pid) makes the pid immediately reusable by the next joiner.
//     The release/acquire pair synchronizes (CAS on the same bitmap word),
//     so per-pid state handed from the old thread to the new one -- EBR
//     retired lists, pool free lists, per-pid counters -- is ordered;
//   * ThreadHandle is the RAII form: it acquires a pid, installs it as
//     exec::ctx().pid for the calling thread, and restores + releases on
//     destruction.  This replaces ScopedPid in every native-thread harness
//     (ScopedPid remains for the sim scheduler and for tests that need a
//     SPECIFIC pid).
//
// Pids index per-process slot arrays (announcement registers, EBR slots,
// publication counters), so the same pid must never be held by two live
// threads at once; the registry guarantees that, and reuse after release is
// safe because all per-pid protocol state is reset by the protocols
// themselves (a released scanner has left the active set; its announcement
// register may keep its last value -- updates only read announcements of
// *joined* pids).
//
// Rule for releasing: a thread must not release its pid (destroy its
// ThreadHandle) while an operation is in flight -- in particular while it
// holds an EBR pin, since EBR per-thread slots are keyed by pid (see
// reclaim/ebr.h).  Scoped usage makes this automatic.
#pragma once

#include <atomic>
#include <cstdint>

#include "exec/capacity.h"
#include "exec/exec.h"

namespace psnap::exec {

class ThreadRegistry {
 public:
  // Capacity ceiling shared with every pid-keyed table (see
  // exec/capacity.h for the one definition); a registry can be smaller,
  // never larger.
  static constexpr std::uint32_t kMaxCapacity = kMaxPidCapacity;

  explicit ThreadRegistry(std::uint32_t max_threads = kMaxCapacity);

  ThreadRegistry(const ThreadRegistry&) = delete;
  ThreadRegistry& operator=(const ThreadRegistry&) = delete;

  // Lowest free pid, or kInvalidPid when all max_threads pids are live.
  std::uint32_t try_acquire();
  // try_acquire that asserts on exhaustion (capacity is a configured bound,
  // so running out is a usage error, not an expected condition).
  std::uint32_t acquire();
  void release(std::uint32_t pid);

  // Shard-affine acquisition (the sharded reclamation plane's
  // affinity=segment mode): prefers the lowest free pid inside shard
  // `shard`'s contiguous pid block -- the capacity split evenly over
  // num_shards -- so a thread that mostly writes one component segment
  // gets a pid whose EBR slot, pool free list, and announcement register
  // all land in that shard's tables.  Falls back to the global
  // lowest-free scan when the block is full (affinity is a performance
  // hint, never a capacity limit).  Returns kInvalidPid only when the
  // whole registry is full.
  std::uint32_t try_acquire_affine(std::uint32_t shard,
                                   std::uint32_t num_shards);
  // Asserting form, like acquire().
  std::uint32_t acquire_affine(std::uint32_t shard, std::uint32_t num_shards);

  std::uint32_t max_threads() const { return capacity_; }
  // Live pids right now.
  std::uint32_t active_count() const {
    return active_.load(std::memory_order_relaxed);
  }
  // max(pid)+1 over every pid ever handed out (or noted in use): the dense
  // upper bound a per-pid walk needs.  MONOTONE BY DESIGN: release() never
  // lowers it, because a walk bound must cover every pid whose per-pid
  // state (announcement registers, membership flags) may still be read --
  // and because lowest-free reuse means churn re-issues the same low pids,
  // so the watermark converges to the peak live population instead of
  // creeping toward capacity.  tests/exec/thread_registry_test.cpp asserts
  // both halves (density under release-then-reacquire churn, monotonicity).
  std::uint32_t high_watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }
  // The walk-bound read used by PidBound (see exec/pid_bound.h): seq_cst
  // because it sits on the getSet end of the announce/join-vs-getSet
  // handshake, next to the load_sync membership reads.  Same instruction
  // as the acquire load on x86 and AArch64.
  std::uint32_t high_watermark_sync() const {
    return watermark_.load(std::memory_order_seq_cst);
  }

  // Records that `pid` is (or is about to be) in use without allocating it
  // from the bitmap: raises the watermark so adaptive per-pid walks cover
  // it.  Called by exec::ScopedPid on the process-wide registry -- the sim
  // scheduler and pinned-pid tests assign pids directly, and the adaptive
  // bound must be sound for every way a pid can enter use.
  void note_pid_in_use(std::uint32_t pid);

  // The process-wide registry native harnesses default to (full
  // kMaxCapacity).  Objects built through the implementation registry
  // assert their max_threads against this capacity.
  static ThreadRegistry& process_wide();

 private:
  static constexpr std::uint32_t kBitsPerWord = 64;

  // Lowest free pid in [lo, hi), or kInvalidPid; the body of try_acquire
  // (the full range) and the affine preference pass (one shard's block).
  std::uint32_t try_acquire_in(std::uint32_t lo, std::uint32_t hi);

  std::uint32_t capacity_;
  std::atomic<std::uint64_t> words_[kMaxCapacity / kBitsPerWord];
  std::atomic<std::uint32_t> active_{0};
  std::atomic<std::uint32_t> watermark_{0};
};

// RAII pid for one native thread: acquires from the registry, installs
// into exec::ctx().pid (asserting the thread did not already carry one),
// restores and releases on destruction.
class ThreadHandle {
 public:
  explicit ThreadHandle(ThreadRegistry& registry);
  ThreadHandle() : ThreadHandle(ThreadRegistry::process_wide()) {}
  // Shard-affine form (acquire_affine): the pid lands in shard `shard`'s
  // block when one is free there.
  ThreadHandle(ThreadRegistry& registry, std::uint32_t shard,
               std::uint32_t num_shards);
  ~ThreadHandle();

  ThreadHandle(const ThreadHandle&) = delete;
  ThreadHandle& operator=(const ThreadHandle&) = delete;

  std::uint32_t pid() const { return pid_; }

 private:
  ThreadRegistry& registry_;
  std::uint32_t pid_;
  std::uint32_t saved_;
};

}  // namespace psnap::exec
