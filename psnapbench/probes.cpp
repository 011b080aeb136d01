#include "probes.h"

#include <atomic>
#include <optional>
#include <thread>

#include "common/timing.h"
#include "exec/thread_registry.h"
#include "primitives/version_chain.h"
#include "reclaim/ebr.h"
#include "harness.h"
#include "percentiles.h"
#include "registry/registry.h"

namespace psnapbench {

namespace {

constexpr int kGroup = 64;
// Each probe thread also stops after this many groups: Figure 2's active
// set never recycles slots (paper Section 6), so an unbounded join/leave
// loop would grow memory with the machine's speed.
constexpr std::uint64_t kMaxGroups = std::uint64_t{1} << 13;
constexpr std::uint32_t kMaxThreads = 8;

// Calls call(t) in groups of kGroup on `threads` threads (each holding a
// registered pid when `with_pid`); returns the per-call ns of every group.
// Each thread's sampler holds all of its groups, so none is thinned and
// the threads' samples merge with equal weight.
template <class Call>
psnap::bench::LatencySampler probe(std::uint32_t threads, double seconds,
                                   bool with_pid, Call&& call) {
  std::vector<psnap::bench::LatencySampler> per(
      threads, psnap::bench::LatencySampler(kMaxGroups));
  std::atomic<std::uint32_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::thread> pool;
  for (std::uint32_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::optional<psnap::exec::ThreadHandle> pid;
      if (with_pid) pid.emplace();
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t acc = 0;
      psnap::Timer timer;
      for (std::uint64_t g = 0;
           g < kMaxGroups && timer.elapsed_seconds() < seconds; ++g) {
        const std::uint64_t t0 = psnap::now_nanos();
        for (int i = 0; i < kGroup; ++i) acc += call(t);
        const std::uint64_t t1 = psnap::now_nanos();
        per[t].add(static_cast<double>(t1 - t0) / kGroup);
      }
      sink.fetch_add(acc);  // keeps the calls' results observable
    });
  }
  while (ready.load() != threads) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (std::thread& th : pool) th.join();
  psnap::bench::LatencySampler all(threads * kMaxGroups);
  for (const auto& s : per) all.merge(s);
  return all;
}

Metric p50(const char* name, const psnap::bench::LatencySampler& s) {
  return Metric{name, tick_percentiles(s.samples()).p50, "ns",
                s.samples().size()};
}

}  // namespace

std::vector<Metric> run_probes(std::uint32_t threads, double seconds) {
  using psnap::registry::make_active_set;
  std::vector<Metric> out;

  {
    // getSet with the calling thread as the one member.
    auto as = make_active_set("faicas_fast", kMaxThreads);
    as->join();
    std::vector<std::vector<std::uint32_t>> sets(threads);
    out.push_back(p50("activeset.get_set_ns_p50",
                      probe(threads, seconds, true, [&](std::uint32_t t) {
                        as->get_set(sets[t]);
                        return sets[t].size();
                      })));
    as->leave();
  }
  {
    auto as = make_active_set("faicas_fast", kMaxThreads);
    out.push_back(p50("activeset.join_leave_ns_p50",
                      probe(threads, seconds, true, [&](std::uint32_t) {
                        as->join();
                        as->leave();
                        return 0;
                      })));
  }
  {
    psnap::primitives::VersionCamera<psnap::primitives::Release> camera;
    out.push_back(p50("primitives.camera_epoch_ns_p50",
                      probe(threads, seconds, false, [&](std::uint32_t) {
                        return camera.new_epoch();
                      })));
  }
  {
    psnap::reclaim::EbrDomain domain;
    out.push_back(p50("reclaim.ebr_pin_ns_p50",
                      probe(threads, seconds, true, [&](std::uint32_t) {
                        psnap::reclaim::EbrDomain::Guard guard(domain);
                        return 0;
                      })));
  }
  {
    // Retiring a dummy node with a no-op callback isolates the retire
    // list and grace-period bookkeeping from the allocator.
    static int dummy = 0;
    psnap::reclaim::EbrDomain domain;
    out.push_back(p50(
        "reclaim.retire_ns_p50",
        probe(threads, seconds, true, [&](std::uint32_t) {
          domain.retire_raw(&dummy, nullptr,
                            [](void*, void*, psnap::reclaim::EbrDomain&,
                               std::uint32_t) {});
          return 0;
        })));
  }
  {
    const auto reg = probe(threads, seconds, false, [](std::uint32_t) {
      psnap::exec::ThreadHandle handle;
      return handle.pid();
    });
    out.push_back(p50("exec.register_ns_p50", reg));
    out.push_back(Metric{"exec.register_ns_p99",
                         tick_percentiles(reg.samples()).p99, "ns",
                         reg.samples().size()});
  }
  return out;
}

}  // namespace psnapbench
