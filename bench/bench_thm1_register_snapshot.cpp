// Experiment T1 -- Theorem 1 (Figure 1, partial snapshot from registers):
//   "processes perform O((Cu + 1) * r + A) steps per scan and
//    O(Cu * Cs * rmax + A) steps per update", where A is the active-set
//    term (O(live pids) for our register active set under the watermark
//    bound; see activeset/register_active_set.h).
//
// Regenerated tables:
//   T1a: scan steps vs r at fixed contention -- linear in r.
//   T1b: scan steps vs number of concurrent updaters Cu at fixed r -- the
//        (Cu + 1) factor: collects repeat until the window is quiet or the
//        helping path fires.
//   T1c: update steps vs number of concurrent scanners Cs and their scan
//        width rmax -- the Cs * rmax embedded-scan term.
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <iostream>

#include "bench/harness.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/op_stats.h"
#include "registry/registry.h"

using namespace psnap;

namespace {

// The implementation under measurement; --impl swaps in any registered
// spec (the tables are stated for Figure 1, the default).
std::string g_impl_spec = "fig1_register";

std::unique_ptr<core::PartialSnapshot> make_snap(std::uint32_t m,
                                                 std::uint32_t n) {
  return registry::make_snapshot(g_impl_spec, m, n);
}

// T1a: scan steps vs r, one background updater.
void table_scan_vs_r(std::uint64_t scans) {
  TablePrinter table({"r", "mean scan steps", "p99 scan steps",
                      "mean collects", "steps / r"});
  std::vector<double> xs, ys;
  for (std::uint32_t r : {1u, 2u, 4u, 8u, 16u, 32u}) {
    constexpr std::uint32_t kM = 64;
    auto snap_ptr = make_snap(kM, 2);
    auto& snap = *snap_ptr;
    std::atomic<bool> stop{false};
    std::vector<double> samples;
    OnlineStats collects;
    bench::run_workers(2, [&](std::uint32_t w, bench::WorkerStats&) {
      if (w == 0) {
        std::uint64_t k = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          ++k;
          snap.update(k % kM ? 0 : 1, k);
        }
      } else {
        std::vector<std::uint32_t> indices(r);
        for (std::uint32_t j = 0; j < r; ++j) indices[j] = j;
        std::vector<std::uint64_t> out;
        samples.reserve(scans);
        for (std::uint64_t i = 0; i < scans; ++i) {
          samples.push_back(
              double(bench::measured_steps([&] { snap.scan(indices, out); })));
          collects.add(double(core::tls_op_stats().collects));
        }
        stop = true;
      }
    });
    OnlineStats stats;
    for (double s : samples) stats.add(s);
    xs.push_back(double(r));
    ys.push_back(stats.mean());
    table.add_row({TablePrinter::fmt(std::uint64_t(r)),
                   TablePrinter::fmt(stats.mean()),
                   TablePrinter::fmt(percentile(samples, 99)),
                   TablePrinter::fmt(collects.mean()),
                   TablePrinter::fmt(stats.mean() / double(r))});
  }
  table.print(std::cout,
              "T1a: Figure-1 scan steps vs r (m=64, 1 updater) -- paper: "
              "O((Cu+1) r + A), linear in r");
  auto fit = fit_power_law(xs, ys);
  std::printf("power-law fit: steps ~ r^%.2f (r^2=%.3f) -- expect "
              "exponent <= ~1 (additive active-set term flattens small r)\n\n",
              fit.slope, fit.r2);
}

// T1b: scan steps vs updater count.
void table_scan_vs_updaters(std::uint64_t scans) {
  TablePrinter table({"updaters Cu", "mean scan steps", "p99 scan steps",
                      "mean collects", "borrowed %"});
  constexpr std::uint32_t kM = 16;
  constexpr std::uint32_t kR = 4;
  for (std::uint32_t cu : {0u, 1u, 2u, 3u}) {
    auto snap_ptr = make_snap(kM, cu + 2);
    auto& snap = *snap_ptr;
    std::atomic<bool> stop{false};
    std::vector<double> samples;
    OnlineStats collects;
    std::uint64_t borrowed = 0;
    bench::run_workers(cu + 1, [&](std::uint32_t w, bench::WorkerStats&) {
      if (w < cu) {
        std::uint64_t k = 0;
        // Hammer the scanned components specifically.
        while (!stop.load(std::memory_order_relaxed)) {
          ++k;
          snap.update(static_cast<std::uint32_t>(k % kR), k);
        }
      } else {
        std::vector<std::uint32_t> indices(kR);
        for (std::uint32_t j = 0; j < kR; ++j) indices[j] = j;
        std::vector<std::uint64_t> out;
        for (std::uint64_t i = 0; i < scans; ++i) {
          samples.push_back(
              double(bench::measured_steps([&] { snap.scan(indices, out); })));
          collects.add(double(core::tls_op_stats().collects));
          if (core::tls_op_stats().borrowed) ++borrowed;
        }
        stop = true;
      }
    });
    OnlineStats stats;
    for (double s : samples) stats.add(s);
    table.add_row({TablePrinter::fmt(std::uint64_t(cu)),
                   TablePrinter::fmt(stats.mean()),
                   TablePrinter::fmt(percentile(samples, 99)),
                   TablePrinter::fmt(collects.mean()),
                   TablePrinter::fmt(100.0 * double(borrowed) /
                                     double(scans))});
  }
  table.print(std::cout,
              "T1b: Figure-1 scan steps vs concurrent updaters (r=4) -- "
              "paper: the (Cu+1) collect factor");
  std::cout << "\n";
}

// T1c: update steps vs scanner count and scan width (the Cs*rmax term).
void table_update_vs_scanners(std::uint64_t updates) {
  TablePrinter table({"scanners Cs", "rmax", "mean update steps",
                      "mean embedded args", "mean getSet size"});
  constexpr std::uint32_t kM = 64;
  for (std::uint32_t cs : {0u, 1u, 2u}) {
    for (std::uint32_t rmax : {2u, 8u}) {
      if (cs == 0 && rmax != 2) continue;  // degenerate duplicates
      auto snap_ptr = make_snap(kM, cs + 2);
      auto& snap = *snap_ptr;
      std::atomic<bool> stop{false};
      OnlineStats steps, args, getset;
      bench::run_workers(cs + 1, [&](std::uint32_t w, bench::WorkerStats&) {
        if (w < cs) {
          // Scanner w repeatedly scans its own rmax-wide window.
          std::vector<std::uint32_t> indices(rmax);
          for (std::uint32_t j = 0; j < rmax; ++j) {
            indices[j] = (w * rmax + j) % kM;
          }
          std::vector<std::uint64_t> out;
          while (!stop.load(std::memory_order_relaxed)) {
            snap.scan(indices, out);
          }
        } else {
          std::uint64_t k = 0;
          for (std::uint64_t i = 0; i < updates; ++i) {
            steps.add(double(
                bench::measured_steps([&] { snap.update(kM - 1, ++k); })));
            args.add(double(core::tls_op_stats().embedded_args));
            getset.add(double(core::tls_op_stats().getset_size));
          }
          stop = true;
        }
      });
      table.add_row({TablePrinter::fmt(std::uint64_t(cs)),
                     TablePrinter::fmt(std::uint64_t(rmax)),
                     TablePrinter::fmt(steps.mean()),
                     TablePrinter::fmt(args.mean()),
                     TablePrinter::fmt(getset.mean())});
    }
  }
  table.print(std::cout,
              "T1c: Figure-1 update steps vs scanners and their width -- "
              "paper: O(Cu Cs rmax + A); embedded args track Cs*rmax");
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.define("scans", "30000", "scans per configuration");
  flags.define("updates", "30000", "updates per configuration");
  flags.define("impl", "fig1_register",
               "registry spec of the implementation to measure:\n" +
                   registry::snapshot_catalogue());
  if (!flags.parse(argc, argv)) return 1;
  g_impl_spec = flags.get_string("impl");

  std::printf("Experiment T1: Figure 1, partial snapshot from registers "
              "(Theorem 1)\n\n");
  try {
    table_scan_vs_r(flags.get_uint("scans"));
    table_scan_vs_updaters(flags.get_uint("scans"));
    table_update_vs_scanners(flags.get_uint("updates"));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}
