// Register-only active set.
//
// This stands in for the adaptive collect of Afek, Stupp and Touitou [3]
// that the paper plugs into Figure 1 (each Figure 1 object owns one): one
// single-writer flag register per process, and a getSet that collects
// them.  join/leave are one register write (O(1)); getSet walks the dense
// pid prefix [0, PidBound) -- O(live population) with the default adaptive
// bound (exec/pid_bound.h), O(n) with PidBound::fixed(n) -- rather than
// the adaptive O(Cs^2) of [3], whose "cost tracks contention" shape the
// watermark bound reproduces at the population granularity.  The
// active-set *specification* is met exactly (the bound provably covers
// every pid in use; see pid_bound.h), so Figure 1's correctness is
// unchanged; only the additive active-set term of Theorem 1 differs, and
// the benches report that term separately.
//
// Templated over the primitives' runtime policy (see primitives.h):
// Instrumented for the theorem benches and sim tests, Release inside the
// `fig1_register_fast` registry entry (no active-set entry builds it).
// Release-mode soundness, both directions of the handshake: (a) an update
// whose getSet reads flag[p] == 1 synchronizes-with p's release join
// store and therefore sees p's earlier announcement; (b) a scanner fences
// (seq_cst) between its join and its collects, and getSet reads the flags
// with load_sync, so an update whose getSet walk runs after that fence
// cannot miss the scanner -- the Dekker half that acquire/release alone
// would lose (see the protocol-fence discussion in primitives.h).
#pragma once

#include <memory>
#include <vector>

#include "activeset/active_set.h"
#include "core/growth.h"
#include "exec/pid_bound.h"
#include "primitives/primitives.h"

namespace psnap::activeset {

template <class Policy = primitives::Instrumented>
class RegisterActiveSetT final : public ActiveSet {
 public:
  explicit RegisterActiveSetT(std::uint32_t max_processes,
                              exec::PidBound bound = {});

  void join() override;
  void leave() override;
  void get_set(std::vector<std::uint32_t>& out) override;
  using ActiveSet::get_set;

  std::string_view name() const override {
    return Policy::kCountsSteps ? "register-as" : "register-as-fast";
  }
  std::uint32_t max_processes() const override { return n_; }

 private:
  std::uint32_t n_;
  // The walk bound: getSet loops over [0, bound_.get(n_)), which covers
  // every pid in use (pid_bound.h) and equals the live-population
  // watermark under the default adaptive provider.
  exec::PidBound bound_;
  // One SWMR flag per process; 1 = active.  Grow-only per-pid storage:
  // a flag's segment materializes at the pid's first join, so the object
  // never pays for max_processes slots a dynamic thread population does
  // not use.  getSet walks (and step-counts, Instrumented runtime) each
  // slot of the bounded prefix exactly once -- an absent segment reads as
  // flag == 0 but still costs its one register step -- so step counts
  // equal the walked prefix length, independent of segment layout: the
  // paper's model sees a collect over min(n, watermark) registers.
  core::PerPidStorage<primitives::Register<std::uint64_t, Policy>> flags_;
};

using RegisterActiveSet = RegisterActiveSetT<primitives::Instrumented>;

}  // namespace psnap::activeset
