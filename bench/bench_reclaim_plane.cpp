// Experiment RCL -- the reclamation plane's tail-latency story (ISSUE 10):
// per-segment EBR sharding and the reclaim=ebr|hp knob, measured.
//
// Regenerated tables:
//   RCLa: update throughput + scan tail latency vs EBR shard count
//         (1/2/4/8).  Eight writers, each affine to one component segment
//         (affinity=segment pid placement), plus one scanner localized to
//         segment 0.  With ONE global domain the scanner's pins stall
//         epoch advance for every writer -- retired lists balloon and the
//         O(retired) reclamation walks tax every 64th update; with
//         per-segment domains only segment 0's writer shares a domain
//         with the scanner and the other segments reclaim at full speed.
//   RCLb: retired-but-unfreed residency under a deliberately PARKED
//         reader (core::CasPartialSnapshotT::ParkedReader -- protection
//         loaded, then the thread goes silent), single-threaded and
//         deterministic so the committed artifact is stable:
//           * global EBR: residency grows without bound (~1000/kop);
//           * sharded EBR, reader parked in segment 0, traffic in
//             segments 1..3: residency stays at the retire threshold;
//           * hazard pointers: residency stays bounded by the hazard-scan
//             threshold no matter where the traffic goes -- the parked
//             reader pins exactly the records its hazards name.
//
// Wall-clock numbers are hardware-specific; the *shape* -- sharded EBR
// recovering the unsharded throughput under a localized reader, and hp
// turning unbounded residency into a constant -- is the reproduced claim
// (tests/core/reclaim_plane_test.cpp pins it qualitatively in CI).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/cas_psnap.h"
#include "core/growth.h"
#include "exec/exec.h"
#include "exec/thread_registry.h"
#include "registry/registry.h"

using namespace psnap;

namespace {

constexpr std::uint32_t kSegments = 8;
constexpr std::uint32_t kScanWidth = 16;

// ---------------------------------------------------------------------------
// RCLa: shard-count sweep under a segment-0 scanner.
// ---------------------------------------------------------------------------

struct ShardCell {
  double updates_per_second = 0;
  Percentiles scan_ns;
  std::uint64_t outstanding_final = 0;
};

ShardCell shard_sweep_cell(std::uint32_t shards, std::uint32_t writers,
                           double seconds) {
  const std::uint32_t m = kSegments * core::kComponentSegmentSize;
  registry::IngestKnobs knobs;
  const std::string spec = "fig3_cas_fast:shards=" + std::to_string(shards) +
                           ",affinity=segment";
  // Affine pids land in per-shard blocks spread across the FULL registry
  // capacity, so the object's per-pid arrays must cover all of it (the
  // adaptive watermark keeps per-pid walks bounded by the live range).
  auto snap = registry::make_snapshot(
      spec, m, exec::ThreadRegistry::kMaxCapacity, &knobs);

  std::atomic<bool> stop{false};
  bench::LatencySampler scan_sampler;
  // The localized reader: r=16 scans inside segment 0 only.  Its EBR pins
  // land in segment 0's domain (plus the meta domain); under shards=1
  // that domain is everyone's.
  std::thread scanner([&] {
    exec::ThreadHandle pid;
    Xoshiro256 rng(97);
    std::vector<std::uint32_t> idx(kScanWidth);
    std::vector<std::uint64_t> out;
    while (!stop.load(std::memory_order_acquire)) {
      for (auto& i : idx) {
        i = static_cast<std::uint32_t>(rng.next() %
                                       core::kComponentSegmentSize);
      }
      auto t0 = std::chrono::steady_clock::now();
      snap->scan(idx, out);
      auto t1 = std::chrono::steady_clock::now();
      scan_sampler.add(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    }
  });

  // Writer w owns segment w: updates stay segment-local, and the affine
  // registration (affinity=segment) places its pid in the matching
  // shard's block -- w % shards == (w % kSegments) % shards for every
  // shards value in the sweep (divisors of kSegments).
  std::atomic<std::uint64_t> total_updates{0};
  const std::uint32_t affinity_shards =
      knobs.affinity == "segment" ? shards : 1;
  bench::run_workers_affine(
      writers, affinity_shards, [&](std::uint32_t w, bench::WorkerStats&) {
        const std::uint32_t base =
            (w % kSegments) * core::kComponentSegmentSize;
        Xoshiro256 rng(w + 1);
        std::uint64_t ops = 0;
        bench::StopAfter stop_after(seconds);
        while (!stop_after.expired()) {
          for (int burst = 0; burst < 64; ++burst) {
            snap->update(base + static_cast<std::uint32_t>(
                                    rng.next() %
                                    core::kComponentSegmentSize),
                         ops);
            ++ops;
          }
        }
        total_updates.fetch_add(ops);
      });
  stop.store(true, std::memory_order_release);
  scanner.join();

  ShardCell cell;
  cell.updates_per_second = double(total_updates.load()) / seconds;
  cell.scan_ns = scan_sampler.summarize();
  cell.outstanding_final = snap->reclaim_outstanding();
  return cell;
}

void table_shard_sweep(std::uint32_t writers, double seconds,
                       bench::JsonReport& report) {
  TablePrinter table({"reclaim plane", "updates/s", "scan p50/p99",
                      "outstanding at end"});
  double baseline = 0;
  for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    ShardCell cell = shard_sweep_cell(shards, writers, seconds);
    if (shards == 1) baseline = cell.updates_per_second;
    table.add_row(
        {"ebr shards=" + std::to_string(shards),
         TablePrinter::fmt(cell.updates_per_second / 1e6, 3) + "M",
         TablePrinter::fmt(cell.scan_ns.p50, 0) + "/" +
             TablePrinter::fmt(cell.scan_ns.p99, 0) + "ns",
         std::to_string(cell.outstanding_final)});
    const std::string name = "RCLa/shards=" + std::to_string(shards);
    report.add(name + "/updates", cell.updates_per_second);
    report.add_percentiles(name + "/scan_ns", cell.scan_ns);
    report.add(name + "/outstanding_final",
               double(cell.outstanding_final), "records");
    if (shards > 1 && baseline > 0) {
      report.add(name + "/speedup_vs_global",
                 cell.updates_per_second / baseline, "ratio");
    }
  }
  table.print(std::cout,
              "RCLa: update throughput vs EBR shard count (m=" +
                  std::to_string(kSegments *
                                 core::kComponentSegmentSize) +
                  ", " + std::to_string(writers) +
                  " segment-affine writers, scanner localized to segment "
                  "0) -- sharding confines the scanner's reclamation "
                  "stall to its own segment");
  std::cout << "\n";
}

// ---------------------------------------------------------------------------
// RCLb: parked-reader residency, single-threaded and deterministic.
// ---------------------------------------------------------------------------

struct ResidencyRow {
  std::uint64_t outstanding_max = 0;
  std::uint64_t outstanding_final = 0;
  std::uint64_t pool_fresh = 0;  // records the pool had to heap-allocate
};

ResidencyRow parked_residency(const core::CasSnapshotOptions& options,
                              std::uint64_t kops) {
  constexpr std::uint32_t kResidencySegments = 4;
  const std::uint32_t m =
      kResidencySegments * core::kComponentSegmentSize;
  core::CasPartialSnapshot snap(m, /*max_threads=*/4, options);

  std::unique_ptr<core::CasPartialSnapshot::ParkedReader> parked;
  {
    exec::ScopedPid reader(1);
    parked = std::make_unique<core::CasPartialSnapshot::ParkedReader>(
        snap, std::vector<std::uint32_t>{0});
  }

  ResidencyRow row;
  const std::uint64_t fresh_before = snap.record_pool().fresh_count();
  {
    exec::ScopedPid updater(0);
    for (std::uint64_t k = 0; k < kops * 1000; ++k) {
      // Traffic in segments 1..3 only: the parked reader sits in segment
      // 0, so the sharded row's updates never touch its domain.
      const std::uint32_t seg =
          1 + static_cast<std::uint32_t>(k % (kResidencySegments - 1));
      snap.update(seg * core::kComponentSegmentSize +
                      static_cast<std::uint32_t>(k % 64),
                  k);
      if (k % 1000 == 999) {
        row.outstanding_max =
            std::max(row.outstanding_max, snap.reclaim_outstanding());
      }
    }
    row.outstanding_final = snap.reclaim_outstanding();
    row.pool_fresh = snap.record_pool().fresh_count() - fresh_before;
  }
  {
    exec::ScopedPid reader(1);
    parked.reset();
  }
  return row;
}

void table_parked_residency(std::uint64_t kops, bench::JsonReport& report) {
  struct Config {
    const char* label;
    core::CasSnapshotOptions options;
  };
  std::vector<Config> configs;
  configs.push_back({"ebr shards=1", {}});
  {
    core::CasSnapshotOptions sharded;
    sharded.reclaim_shards = 4;
    configs.push_back({"ebr shards=4", sharded});
  }
  {
    core::CasSnapshotOptions hp;
    hp.use_hp = true;
    configs.push_back({"hp", hp});
  }

  TablePrinter table({"reclaim plane", "outstanding max", "outstanding/kop",
                      "pool fresh allocs"});
  for (const Config& config : configs) {
    ResidencyRow row = parked_residency(config.options, kops);
    const double per_kop = double(row.outstanding_final) / double(kops);
    table.add_row({config.label, std::to_string(row.outstanding_max),
                   TablePrinter::fmt(per_kop, 1),
                   std::to_string(row.pool_fresh)});
    std::string name = std::string("RCLb/") + config.label;
    for (auto& c : name) {
      if (c == ' ') c = '_';
    }
    report.add(name + "/outstanding_max", double(row.outstanding_max),
               "records");
    report.add(name + "/outstanding_per_kop", per_kop, "records/kop");
    report.add(name + "/pool_fresh", double(row.pool_fresh), "allocs");
  }
  table.print(std::cout,
              "RCLb: retired-but-unfreed residency under a PARKED reader "
              "(protection loaded in segment 0, then silent; " +
                  std::to_string(kops) +
                  "k single-threaded updates in segments 1..3) -- global "
                  "EBR grows without bound, sharded EBR and hp stay at "
                  "their thresholds");
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.define("writers", "8",
               "segment-affine writer threads for the shard sweep");
  flags.define("seconds", "0.4", "measured duration per RCLa cell");
  flags.define("kops", "50",
               "thousands of updates per RCLb residency row");
  flags.define("quick", "false",
               "CI preset: short cells (seconds=0.1, kops=10)");
  flags.define("json", "",
               "also write machine-readable results to this JSON file "
               "(perf-trajectory artifact)");
  if (!flags.parse(argc, argv)) return 1;

  auto writers = static_cast<std::uint32_t>(flags.get_uint("writers"));
  double seconds = flags.get_double("seconds");
  std::uint64_t kops = flags.get_uint("kops");
  if (flags.get_bool("quick")) {
    seconds = 0.1;
    kops = 10;
  }

  std::printf(
      "Experiment RCL: reclamation planes -- EBR sharding and hazard "
      "pointers\n\n");
  bench::JsonReport report;
  try {
    table_shard_sweep(writers, seconds, report);
    table_parked_residency(kops, report);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  std::string json_path = flags.get_string("json");
  if (!json_path.empty() && !report.write_file(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
