// Experiment ABL-2 -- Section 1/Section 3's helping mechanism:
//   "individual scans may never terminate: a slow scanner can keep seeing
//    different collects if fast updates are concurrently being performed.
//    ...  The classical way to transform such a non-blocking implementation
//    into a wait-free one is to rely on a helping mechanism."
//
// Regenerated table: scans under increasing update pressure, for
//   * double-collect (no helping, lock-free only): starvation rate at a
//     fixed collect budget, and the maximum collects an (uncapped) scan
//     needed;
//   * Figure 1 and Figure 3 (helping): worst-case collects stay bounded
//     (2n+3 and 2r+1 respectively) and every scan terminates.
#include <atomic>
#include <cstdio>
#include <iostream>

#include "baseline/double_collect.h"  // StarvationError
#include "bench/harness.h"
#include "common/cli.h"
#include "common/table.h"
#include "core/op_stats.h"
#include "registry/registry.h"

using namespace psnap;

namespace {

constexpr std::uint32_t kM = 8;
constexpr std::uint32_t kR = 2;

// Runs `scans` partial scans against `updaters` saturating updaters on the
// scanned components; fills collect stats and the starvation count (only
// nonzero for the capped double-collect).
struct PressureResult {
  OnlineStats collects;
  std::uint64_t max_collects = 0;
  std::uint64_t starved = 0;
};

PressureResult run_pressure(core::PartialSnapshot& snap,
                            std::uint32_t updaters, std::uint64_t scans) {
  PressureResult result;
  std::atomic<bool> stop{false};
  bench::run_workers(updaters + 1, [&](std::uint32_t w, bench::WorkerStats&) {
    if (w < updaters) {
      std::uint64_t k = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ++k;
        snap.update(static_cast<std::uint32_t>(k % kR), k);
      }
    } else {
      std::vector<std::uint32_t> indices{0, 1};
      std::vector<std::uint64_t> out;
      for (std::uint64_t i = 0; i < scans; ++i) {
        try {
          snap.scan(indices, out);
          result.collects.add(double(core::tls_op_stats().collects));
          result.max_collects =
              std::max(result.max_collects, core::tls_op_stats().collects);
        } catch (const baseline::StarvationError&) {
          ++result.starved;
        }
      }
      stop = true;
    }
  });
  return result;
}

void run(std::uint64_t scans, std::uint64_t cap) {
  TablePrinter table({"algorithm", "updaters", "mean collects",
                      "max collects", "bound", "starved"});
  for (std::uint32_t updaters : {1u, 2u, 3u}) {
    struct Row {
      std::string spec;
      const char* label;
      std::string bound;
    };
    const Row rows[] = {
        {"double_collect:max_attempts=" + std::to_string(cap),
         "double-collect (cap)", "none"},
        {"double_collect", "double-collect (uncapped)", "unbounded"},
        {"fig1_register", "fig1-register (helping)",
         "2n+3 = " + std::to_string(2 * (updaters + 1) + 3)},
        {"fig3_cas", "fig3-cas (helping)",
         "2r+1 = " + std::to_string(2 * kR + 1)},
    };
    for (const Row& row : rows) {
      auto snap = registry::make_snapshot(row.spec, kM, updaters + 1);
      auto result = run_pressure(*snap, updaters, scans);
      table.add_row({row.label, TablePrinter::fmt(std::uint64_t(updaters)),
                     TablePrinter::fmt(result.collects.mean()),
                     TablePrinter::fmt(result.max_collects), row.bound,
                     TablePrinter::fmt(result.starved)});
    }
  }
  table.print(std::cout,
              "ABL-2: helping vs no helping under update pressure (r=2) -- "
              "paper: without helping scans can starve; with it collects "
              "are bounded");
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.define("scans", "20000", "scans per configuration");
  flags.define("cap", "2", "collect budget for the capped double-collect");
  if (!flags.parse(argc, argv)) return 1;
  std::printf("Experiment ABL-2: the helping mechanism ablation\n\n");
  run(flags.get_uint("scans"), flags.get_uint("cap"));
  return 0;
}
