// PidBound: the upper bound a per-pid walk loops to.
//
// The paper's whole point is that an operation's cost should track what it
// *touches*, not the size of the object -- and the same holds for the
// thread dimension.  Before this provider existed, every per-pid walk in
// the library (active-set collects, the condition-(2) helping tables in
// the embedded scans) iterated over the full `max_threads` range, paying
// for 128 potential threads when two were live.  That is exactly the cost
// shape the adaptive collect of Afek, Stupp and Touitou -- the component
// the paper plugs into Figure 1 -- exists to avoid.
//
// A PidBound answers one question: "what is the smallest prefix [0, b)
// that is guaranteed to contain every pid in use?"  Two providers:
//
//   * adaptive (the default): b = ThreadRegistry::high_watermark() -- the
//     registry hands out the lowest free pid and tracks max(pid)+1 over
//     every pid ever issued, so live pids are dense in [0, watermark) and
//     the watermark IS the tight walk bound.  exec::ScopedPid raises the
//     same watermark for manually assigned pids (sim scheduler, pinned-pid
//     tests), so the bound is sound for every way a pid can enter use;
//   * fixed(n): the full-range walk the seed library performed -- kept as
//     the A/B reference that bench_adaptive_collect and
//     adaptive_bound_test construct directly (no registry spec selects
//     it), and for callers that manage pids outside any registry.
//
// Soundness of the adaptive bound (why a walk to the watermark never
// misses a member): a pid enters use only through ThreadRegistry::
// acquire() or exec::ScopedPid, both of which raise the watermark BEFORE
// the thread performs any operation under that pid.  The watermark is
// monotone (releases never lower it; see thread_registry.h), so by the
// time a join/announcement under pid p is visible, every walk that starts
// afterwards reads a watermark >= p+1.  The walk-side read is seq_cst for
// the same reason the membership loads are (`load_sync`): it sits on the
// getSet end of the Dekker-shaped announce/join-vs-getSet handshake, and
// the scanner's post-join protocol fence must order its watermark bump and
// its join before any bound read that follows the fence (see
// primitives.h).  A *stale* bound is still safe where it can occur: it can
// only under-count pids whose acquisition is concurrent with the walk, and
// a mid-acquisition thread has not completed a join, which the active-set
// specification allows a getSet to omit.
//
// Step-accounting semantics (Instrumented runtime): the bound read is
// memory-management bookkeeping, like a segment install or a GrowableSize
// load -- NOT a base-object step.  Each slot a bounded walk actually reads
// remains exactly one step, so getSet step counts now equal the walked
// prefix length min(max_processes, watermark): the cost tracks the live
// population, which is the adaptive-collect behavior Theorem 1's additive
// active-set term is stated against.
#pragma once

#include <algorithm>
#include <cstdint>

#include "exec/thread_registry.h"

namespace psnap::exec {

class PidBound {
 public:
  // Adaptive bound over the process-wide registry: the bound of every
  // implementation constructed through src/registry.
  PidBound() : registry_(&ThreadRegistry::process_wide()) {}

  // Adaptive bound over a specific registry (benches isolate population
  // sweeps in a local registry so the monotone watermark restarts per
  // measurement).  The registry must outlive every object holding the
  // bound.
  //
  // CALLER CONTRACT: a local registry's watermark covers ONLY pids issued
  // by that registry.  Every thread that operates on an object bounded by
  // watermark_of(r) must hold its pid from r (ThreadHandle(r)); a pid
  // assigned any other way -- exec::ScopedPid, another registry -- raises
  // only the process-wide watermark and would be invisible to this bound,
  // i.e. walks could miss a live member.  The default process-wide bound
  // has no such restriction: ThreadHandle (any registry) and ScopedPid
  // both ratchet the process-wide watermark.
  static PidBound watermark_of(const ThreadRegistry& registry) {
    PidBound bound;
    bound.registry_ = &registry;
    return bound;
  }

  // The full-range walk: always `n` (clamped by the caller's capacity).
  static PidBound fixed(std::uint32_t n) {
    PidBound bound;
    bound.registry_ = nullptr;
    bound.fixed_ = n;
    return bound;
  }

  bool is_adaptive() const { return registry_ != nullptr; }

  // The walk bound: every pid in use is < get(capacity) <= capacity.
  // seq_cst read on the adaptive path -- see the handshake discussion in
  // the header comment; same instruction as acquire on x86/AArch64.
  std::uint32_t get(std::uint32_t capacity) const {
    if (registry_ == nullptr) return std::min(capacity, fixed_);
    return std::min(capacity, registry_->high_watermark_sync());
  }

 private:
  const ThreadRegistry* registry_;
  std::uint32_t fixed_ = 0;
};

}  // namespace psnap::exec
