// The time a call on the calling thread cost: its CPU time when it never
// blocked, its wall time when it did -- slept, waited on a lock, or
// waited for I/O.
//
// On a shared virtual machine a millisecond call's wall time also measures
// its neighbours: the coordinator competes with the workload's own workers
// and with other tenants for the cores.  Over ten seeds, the median wall
// time of the lifecycle workload's restores spread 20% (quartile distance
// over median), against 8.4% in this cost.  CPU time alone would not see a
// change that makes a call sleep or wait, though.  So a call during which
// the thread switched out voluntarily (getrusage's ru_nvcsw rose) is
// charged its wall time, blocked time included; a call that never blocked
// is charged its CPU time, so preemption and time stolen by the hypervisor
// stay out of it.
#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <ctime>

#include "common/timing.h"

namespace psnapbench {

// Seconds one call took, in wall time and in cost.
struct Cost {
  double wall = 0;
  double cost = 0;
};

// Start with CostClock::now() on the thread that makes the call, and end
// with stop() on the same thread once it returns.
class CostClock {
 public:
  // The wall-clock interval encloses the CPU-time one, so a call that
  // never leaves the CPU costs no more than its wall time.
  static CostClock now() {
    CostClock c;
    c.voluntary_ = voluntary_switches();
    c.wall_ns_ = psnap::now_nanos();
    c.cpu_ns_ = thread_cpu_ns();
    return c;
  }

  Cost stop() const {
    const std::uint64_t cpu = thread_cpu_ns() - cpu_ns_;
    const std::uint64_t wall = psnap::now_nanos() - wall_ns_;
    const bool blocked = voluntary_switches() != voluntary_;
    return Cost{static_cast<double>(wall) / 1e9,
                static_cast<double>(blocked ? wall : cpu) / 1e9};
  }

 private:
  static std::uint64_t thread_cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
           static_cast<std::uint64_t>(ts.tv_nsec);
  }

  static long voluntary_switches() {
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    return ru.ru_nvcsw;
  }

  std::uint64_t wall_ns_ = 0;
  std::uint64_t cpu_ns_ = 0;
  long voluntary_ = 0;
};

}  // namespace psnapbench
