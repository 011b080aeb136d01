// Experiment VAL -- the value plane's cost (PR 5's tentpole, measured):
//
//   What does the indirect (value=blob) plane cost over the direct u64
//   plane, per update and per scan?
//
// Where an algorithm already publishes records (fig1/fig3), the blob
// plane's marginal cost is copying payload bytes through the pooled
// record instead of one word -- no extra dereference on the protocol
// path.  Where the component cell was a raw word (the seqlock baseline),
// the blob plane adds the full indirection: one pool acquire per update,
// one extra acquire dereference per read (primitives/value_cell.h).  This
// bench pins both numbers next to their direct twins:
//
//   VALu: single-thread update latency -- u64 interface on both planes
//         (8-byte payloads), plus update_blob at 24B and 256B payloads.
//   VALs: single-thread scan latency (r=4) -- u64 scans on both planes,
//         plus scan_blobs at the current payload size.
//
// Release-runtime (*_fast) implementations for the paper algorithms and
// the (always-Instrumented) seqlock baseline: the question is wall-clock.
// Every (direct, indirect) pair also emits an explicit delta entry
// (indirect/direct ratio), the committed BENCH_PR5.json headline.
#include <array>
#include <cstddef>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/timing.h"
#include "exec/thread_registry.h"
#include "primitives/value_plane.h"
#include "registry/registry.h"

using namespace psnap;

namespace {

constexpr std::uint32_t kM = 64;
const std::vector<std::uint32_t> kScanSet{3, 9, 17, 40};

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

// ns per op over `iters` calls of `op(k)`.
template <class Op>
double time_ns(int iters, Op&& op) {
  Timer timer;
  for (int k = 0; k < iters; ++k) op(k);
  return timer.elapsed_seconds() / iters * 1e9;
}

// Median-of-reps single-thread latency for one measurement lambda.
template <class Op>
double measure(int reps, int iters, Op&& op) {
  for (int w = 0; w < 2; ++w) time_ns(iters, op);  // warm-up
  std::vector<double> medians;
  for (int rep = 0; rep < reps; ++rep) {
    medians.push_back(time_ns(iters, op));
  }
  return median(std::move(medians));
}

struct Cells {
  double update_u64 = 0;
  double update_blob24 = 0;   // 0 = not applicable (direct plane)
  double update_blob256 = 0;
  double scan_u64 = 0;
  double scan_blobs24 = 0;
};

Cells run_spec(const std::string& spec, int reps, int iters) {
  Cells cells;
  auto snap = registry::make_snapshot(spec, kM, 2);
  exec::ThreadHandle pid;
  const bool blob = snap->value_plane() == "blob";

  std::vector<std::uint64_t> out;
  cells.update_u64 = measure(reps, iters, [&](int k) {
    snap->update(static_cast<std::uint32_t>(k) % kM,
                 static_cast<std::uint64_t>(k));
  });
  cells.scan_u64 = measure(reps, iters, [&](int) {
    snap->scan(kScanSet, out);
  });

  if (blob) {
    std::vector<std::byte> payload24(24, std::byte{0x42});
    std::vector<std::byte> payload256(256, std::byte{0x42});
    cells.update_blob24 = measure(reps, iters, [&](int k) {
      snap->update_blob(static_cast<std::uint32_t>(k) % kM,
                        std::span<const std::byte>(payload24));
    });
    std::vector<value::Blob> blobs;
    cells.scan_blobs24 = measure(reps, iters, [&](int) {
      snap->scan_blobs(kScanSet, blobs);
    });
    cells.update_blob256 = measure(reps, iters, [&](int k) {
      snap->update_blob(static_cast<std::uint32_t>(k) % kM,
                        std::span<const std::byte>(payload256));
    });
  }
  return cells;
}

std::string fmt_or_dash(double v) {
  return v == 0 ? std::string("-") : TablePrinter::fmt(v, 1);
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.define("reps", "7", "median-of-reps repetitions per cell");
  flags.define("iters", "20000", "operations per repetition");
  flags.define("json", "",
               "also write machine-readable results to this JSON file "
               "(perf-trajectory artifact; committed as BENCH_PR5.json)");
  if (!flags.parse(argc, argv)) return 1;
  const int reps = static_cast<int>(flags.get_uint("reps"));
  const int iters = static_cast<int>(flags.get_uint("iters"));

  std::printf(
      "Experiment VAL: value-plane cost, direct (u64) vs indirect (blob)\n"
      "m=%u, r=%zu, single thread, median of %d reps x %d iters\n\n",
      kM, kScanSet.size(), reps, iters);

  // (family, direct spec, indirect spec) triples: the paper algorithms in
  // the Release runtime, the raw-word baseline that pays the ValueCell
  // indirection, and the instrumented fig3 so the sim-covered build has a
  // trajectory point too.
  const std::vector<std::array<std::string, 3>> families = {
      {"fig1", "fig1_register_fast", "fig1_register_fast:value=blob"},
      {"fig3", "fig3_cas_fast", "fig3_cas_fast:value=blob"},
      {"fig3_instrumented", "fig3_cas", "fig3_cas:value=blob"},
      {"seqlock", "seqlock", "seqlock:value=blob"},
  };

  bench::JsonReport report;
  TablePrinter table({"impl", "update u64 ns", "update blob24 ns",
                      "update blob256 ns", "scan r=4 ns",
                      "scan_blobs r=4 ns"});
  for (const auto& family : families) {
    std::map<std::string, Cells> results;
    for (int which : {1, 2}) {
      const std::string& spec = family[which];
      Cells cells = run_spec(spec, reps, iters);
      results[spec] = cells;
      table.add_row({spec, TablePrinter::fmt(cells.update_u64, 1),
                     fmt_or_dash(cells.update_blob24),
                     fmt_or_dash(cells.update_blob256),
                     TablePrinter::fmt(cells.scan_u64, 1),
                     fmt_or_dash(cells.scan_blobs24)});
      report.add("VAL/" + spec + "/update_u64_ns", cells.update_u64, "ns");
      report.add("VAL/" + spec + "/scan_r4_ns", cells.scan_u64, "ns");
      if (cells.update_blob24 != 0) {
        report.add("VAL/" + spec + "/update_blob24_ns", cells.update_blob24,
                   "ns");
        report.add("VAL/" + spec + "/update_blob256_ns",
                   cells.update_blob256, "ns");
        report.add("VAL/" + spec + "/scan_blobs24_r4_ns",
                   cells.scan_blobs24, "ns");
      }
    }
    // The headline deltas: indirect over direct, same interface.
    const Cells& direct = results[family[1]];
    const Cells& indirect = results[family[2]];
    report.add("VAL/" + family[0] + "/delta_update_indirect_over_direct",
               indirect.update_u64 / direct.update_u64, "ratio");
    report.add("VAL/" + family[0] + "/delta_scan_indirect_over_direct",
               indirect.scan_u64 / direct.scan_u64, "ratio");
    std::printf("%s: indirect/direct = %.2fx update, %.2fx scan (u64 ops)\n",
                family[0].c_str(), indirect.update_u64 / direct.update_u64,
                indirect.scan_u64 / direct.scan_u64);
  }
  std::cout << "\n";
  table.print(std::cout,
              "VAL: value-plane micro (single thread; '-' = not applicable "
              "on the direct plane)");

  std::string json_path = flags.get_string("json");
  if (!json_path.empty() && !report.write_file(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
