// Experiment ADP -- population-adaptive collects (the PidBound refactor):
//
//   getSet and scan latency as a function of the LIVE thread population,
//   at a fixed max_threads=128 capacity.
//
// The paper's thesis is that cost should track what an operation touches,
// not the object's size; this bench applies it to the thread dimension.
// Before PidBound (exec/pid_bound.h) every per-pid walk cost
// O(max_threads); with the watermark bound it costs O(live).  Each
// adaptive row is paired with its full-range twin, built directly with
// PidBound::fixed(max_threads) -- the seed behavior -- so the win is
// measured, not asserted:
//
//   ADPg: active-set getSet latency vs live population (2/8/32/128).
//         The adaptive rows should be flat-in-capacity and scale with
//         live; the full-range rows pay for all 128 potential pids even
//         with 2 live.
//   ADPs: snapshot scan latency vs live population (the fig1 embedded
//         scan's condition-(2) table is the per-pid cost inside scans).
//   ADPc: getSet latency under pid churn -- threads re-register through
//         the registry while the measurer collects; lowest-free reuse
//         keeps the watermark at the peak live population, so adaptive
//         stays adaptive under churn.
//
// Each cell runs in its own ThreadRegistry so the monotone watermark
// restarts per measurement (the process-wide registry would remember the
// largest population ever used).  Release-runtime implementations
// throughout: the question is wall-clock, not steps.
#include <atomic>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "activeset/active_set.h"
#include "activeset/faicas_active_set.h"
#include "activeset/register_active_set.h"
#include "bench/harness.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/timing.h"
#include "core/cas_psnap.h"
#include "core/register_psnap.h"
#include "exec/pid_bound.h"
#include "exec/thread_registry.h"

using namespace psnap;

namespace {

constexpr std::uint32_t kMaxThreads = 128;
const std::vector<std::uint32_t> kLiveSweep{2, 8, 32, 128};

// Runs `live` registered threads against a fresh registry; thread 0 is the
// measurer (its per-op latencies are returned, one median per rep), the
// rest hold their pids -- parked population -- until the measurer is done.
// `churners` > 0 replaces parking with register/release churn.
std::vector<double> measure_population(
    std::uint32_t live, std::uint32_t churners, int reps, int iters,
    const std::function<std::unique_ptr<activeset::ActiveSet>(
        exec::ThreadRegistry&)>& make_as,
    const std::function<double(activeset::ActiveSet&, int)>& measure) {
  exec::ThreadRegistry registry(kMaxThreads);
  auto as = make_as(registry);
  std::vector<double> medians;

  std::atomic<std::uint32_t> ready{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> others;
  for (std::uint32_t t = 1; t < live; ++t) {
    others.emplace_back([&] {
      exec::ThreadHandle pid(registry);
      as->join();
      ready.fetch_add(1);
      while (!done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      as->leave();
    });
  }
  for (std::uint32_t c = 0; c < churners; ++c) {
    others.emplace_back([&] {
      ready.fetch_add(1);
      while (!done.load(std::memory_order_acquire)) {
        // One registered life per lap: acquire the lowest free pid, be a
        // member briefly, leave, hand the pid back.
        exec::ThreadHandle pid(registry);
        as->join();
        as->leave();
      }
    });
  }

  {
    exec::ThreadHandle pid(registry);
    as->join();
    while (ready.load() + 1 < live + churners) std::this_thread::yield();
    for (int w = 0; w < 3; ++w) measure(*as, iters);  // warm-up
    for (int rep = 0; rep < reps; ++rep) {
      medians.push_back(measure(*as, iters));
    }
    done.store(true, std::memory_order_release);
    as->leave();
  }
  for (auto& t : others) t.join();
  return medians;
}

// ns per getSet over `iters` calls.
double time_getsets(activeset::ActiveSet& as, int iters) {
  std::vector<std::uint32_t> out;
  as.get_set(out);  // capacity warm-up
  Timer timer;
  for (int i = 0; i < iters; ++i) as.get_set(out);
  return timer.elapsed_seconds() / iters * 1e9;
}

struct AsVariant {
  std::string label;
  // Figure 2 consumes one fresh slot per join for the whole execution (the
  // paper leaves recycling open, Section 6), so it cannot face the
  // free-running churn table -- the same iteration-budget reasoning as the
  // contract tests.
  bool supports_free_churn = true;
  std::function<std::unique_ptr<activeset::ActiveSet>(exec::ThreadRegistry&)>
      make;
};

// The contestants: each watermark-bounded implementation next to its
// full-range twin (PidBound::fixed(capacity) -- the pre-PidBound walk).
std::vector<AsVariant> getset_variants() {
  using primitives::Release;
  return {
      {"register-as-fast", /*supports_free_churn=*/true,
       [](exec::ThreadRegistry& r) {
         return std::make_unique<activeset::RegisterActiveSetT<Release>>(
             kMaxThreads, exec::PidBound::watermark_of(r));
       }},
      {"register-as-fast full-range", /*supports_free_churn=*/true,
       [](exec::ThreadRegistry&) {
         return std::make_unique<activeset::RegisterActiveSetT<Release>>(
             kMaxThreads, exec::PidBound::fixed(kMaxThreads));
       }},
      {"faicas-as-fast", /*supports_free_churn=*/false,
       [](exec::ThreadRegistry& r) {
         activeset::FaiCasOptions options;
         options.bound = exec::PidBound::watermark_of(r);
         return std::make_unique<activeset::FaiCasActiveSetT<Release>>(
             kMaxThreads, options);
       }},
  };
}

void table_getset(int reps, int iters, bench::JsonReport& report) {
  TablePrinter table({"impl", "live=2", "live=8", "live=32", "live=128"});
  for (const AsVariant& variant : getset_variants()) {
    std::vector<std::string> row{variant.label};
    for (std::uint32_t live : kLiveSweep) {
      Percentiles pct = summarize_percentiles(measure_population(
          live, /*churners=*/0, reps, iters, variant.make, time_getsets));
      row.push_back(TablePrinter::fmt(pct.p50, 1) + "ns");
      const std::string name =
          "ADPg/" + variant.label + "/live=" + std::to_string(live);
      report.add(name, pct.p50, "ns/op");
      report.add_percentiles(name, pct);
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout,
              "ADPg: getSet latency vs live population, max_threads=" +
                  std::to_string(kMaxThreads) +
                  " -- adaptive walks cost O(live), full-range "
                  "O(max_threads)");
  std::cout << "\n";
}

void table_churn(int reps, int iters, bench::JsonReport& report) {
  constexpr std::uint32_t kChurners = 8;
  TablePrinter table({"impl", "churners=8 getSet"});
  for (const AsVariant& variant : getset_variants()) {
    if (!variant.supports_free_churn) continue;
    Percentiles pct = summarize_percentiles(measure_population(
        /*live=*/1, kChurners, reps, iters, variant.make, time_getsets));
    table.add_row({variant.label, TablePrinter::fmt(pct.p50, 1) + "ns"});
    const std::string name = "ADPc/" + variant.label + "/churners=8";
    report.add(name, pct.p50, "ns/op");
    report.add_percentiles(name, pct);
  }
  table.print(std::cout,
              "ADPc: getSet latency under pid churn (8 threads "
              "re-registering per membership lap) -- lowest-free reuse "
              "keeps the watermark at the peak live population");
  std::cout << "\n";
}

// --- scan latency vs parked population -------------------------------------

struct SnapVariant {
  std::string label;
  std::function<std::unique_ptr<core::PartialSnapshot>(
      exec::ThreadRegistry&)>
      make;
};

std::vector<SnapVariant> scan_variants(std::uint32_t m) {
  using primitives::Release;
  return {
      {"fig1-register-fast",
       [m](exec::ThreadRegistry& r) {
         return std::make_unique<core::RegisterPartialSnapshotT<Release>>(
             m, kMaxThreads, exec::PidBound::watermark_of(r));
       }},
      {"fig1-register-fast full-range",
       [m](exec::ThreadRegistry&) {
         return std::make_unique<core::RegisterPartialSnapshotT<Release>>(
             m, kMaxThreads, exec::PidBound::fixed(kMaxThreads));
       }},
      {"fig3-cas-fast",
       [m](exec::ThreadRegistry& r) {
         core::CasPartialSnapshotT<Release>::Options options;
         options.active_set.bound = exec::PidBound::watermark_of(r);
         return std::make_unique<core::CasPartialSnapshotT<Release>>(
             m, kMaxThreads, options);
       }},
  };
}

void table_scan(int reps, int iters, bench::JsonReport& report) {
  constexpr std::uint32_t kM = 256;
  const std::vector<std::uint32_t> scan_set{3, 40, 77, 200};  // r = 4
  TablePrinter table({"impl", "live=2", "live=8", "live=32", "live=128"});
  for (const SnapVariant& variant : scan_variants(kM)) {
    std::vector<std::string> row{variant.label};
    for (std::uint32_t live : kLiveSweep) {
      exec::ThreadRegistry registry(kMaxThreads);
      auto snap = variant.make(registry);

      std::atomic<std::uint32_t> ready{0};
      std::atomic<bool> done{false};
      // Parked population: registered pids that raise the watermark but
      // never operate -- the cost being charted is the per-pid scratch a
      // scan pays for them.
      std::vector<std::thread> parked;
      for (std::uint32_t t = 1; t < live; ++t) {
        parked.emplace_back([&] {
          exec::ThreadHandle pid(registry);
          ready.fetch_add(1);
          while (!done.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        });
      }

      Percentiles pct;
      {
        exec::ThreadHandle pid(registry);
        while (ready.load() + 1 < live) std::this_thread::yield();
        for (std::uint32_t i = 0; i < kM; ++i) snap->update(i, i);
        std::vector<std::uint64_t> out;
        std::vector<double> samples;
        for (int rep = 0; rep < reps + 3; ++rep) {
          Timer timer;
          for (int i = 0; i < iters; ++i) snap->scan(scan_set, out);
          if (rep >= 3) {  // first three laps are warm-up
            samples.push_back(timer.elapsed_seconds() / iters * 1e9);
          }
        }
        pct = summarize_percentiles(std::move(samples));
        done.store(true, std::memory_order_release);
      }
      for (auto& t : parked) t.join();

      row.push_back(TablePrinter::fmt(pct.p50, 1) + "ns");
      const std::string name =
          "ADPs/" + variant.label + "/live=" + std::to_string(live);
      report.add(name, pct.p50, "ns/op");
      report.add_percentiles(name, pct);
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout,
              "ADPs: uncontended scan latency (r=4, m=256) vs parked "
              "population -- the fig1 embedded scan's helping table is "
              "the per-pid cost inside a scan");
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.define("reps", "11", "measured repetitions per cell (median kept)");
  flags.define("iters", "4000", "operations per repetition");
  flags.define("json", "",
               "also write machine-readable results to this JSON file "
               "(perf-trajectory artifact)");
  if (!flags.parse(argc, argv)) return 1;

  const int reps = static_cast<int>(flags.get_uint("reps"));
  const int iters = static_cast<int>(flags.get_uint("iters"));

  std::printf(
      "Experiment ADP: population-adaptive collects (PidBound refactor)\n"
      "capacity max_threads=%u everywhere; adaptive rows bound their "
      "walks by the live watermark\n\n",
      kMaxThreads);

  bench::JsonReport report;
  table_getset(reps, iters, report);
  table_scan(reps, iters, report);
  table_churn(reps, iters, report);

  std::string json_path = flags.get_string("json");
  if (!json_path.empty() && !report.write_file(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
