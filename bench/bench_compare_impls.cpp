// Experiment CMP -- the practical comparison the paper motivates
// (Section 1: unpredictable, overlapping queries over a large vector;
// Section 5: relation to complete-scan algorithms):
//
//   Who wins, by how much, and where is the crossover as the partial-scan
//   width r approaches m?
//
// Regenerated tables:
//   CMPa: mixed-workload throughput (ops/s) per implementation across
//         update fractions, at small r << m.
//   CMPb: crossover sweep -- scan-only throughput as r grows toward m:
//         the full-snapshot baseline becomes competitive only when scans
//         are nearly complete; the paper's algorithms win for r << m.
//   CMPc: churn -- worker threads join and leave (ThreadHandle
//         register/release per burst) while a grower adds components
//         mid-run; the dynamic-membership workload the static API could
//         not express.
//   CMPz: Zipf-skewed churn -- re-registration frequency follows a Zipf
//         law over worker rank, so hot pids hand their pid back almost
//         every burst while cold pids stay parked on theirs; the
//         skewed-lifetime population (a few frantic clients, a long tail
//         of idle ones) that uniform churn cannot model.  Lowest-free pid
//         reuse keeps the live pid range dense through all of it.
//   CMPg: grow-heavy churn -- add_components throughput itself (racing
//         growers through the reserve/publish protocol, update/scan
//         traffic in the background), the component-hot-plug rate a
//         dynamic deployment can sustain.
//   CMPi: batched ingest -- component writes/s vs batch width
//         k = 1/4/16/64 (update_batch amortizes one announcement and one
//         helping round over k publishes), plus the coalescing front-end
//         (ingest::Coalescer) merging duplicate writes inside a bounded
//         window.  A resident scanner keeps the helping machinery live,
//         so the k=1 column pays the full per-update protocol the batch
//         spreads over k.
//
// Wall-clock numbers are hardware-specific; the *shape* (ordering and
// crossover region) is the reproduced result.  StarvationError cannot
// occur here (caps are disabled), so non-wait-free baselines may in
// principle stall; at this host's contention levels they do not.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <chrono>
#include <thread>

#include <fstream>

#include "bench/harness.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/cas_psnap.h"
#include "core/partial_snapshot.h"
#include "exec/exec.h"
#include "exec/thread_registry.h"
#include "ingest/coalescer.h"
#include "registry/registry.h"
#include "runtime/trace.h"
#include "workload/workload.h"

using namespace psnap;

namespace {

// Specs to compare: every registered implementation, or the --impls list
// of registry specs.  A spec's own options are comma-separated too
// ("fig3_cas:shards=4,affinity=segment"), so a token STARTS a spec only
// when it looks like a name -- contains a ':' or no '=' at all; bare
// key=value tokens continue the previous spec.
std::vector<std::string> impl_specs(const std::string& impls_flag) {
  std::vector<std::string> specs;
  if (impls_flag.empty()) {
    for (const registry::SnapshotInfo* info :
         registry::SnapshotRegistry::instance().all()) {
      specs.push_back(info->name);
    }
  } else {
    std::size_t pos = 0;
    while (pos <= impls_flag.size()) {
      std::size_t comma = impls_flag.find(',', pos);
      if (comma == std::string::npos) comma = impls_flag.size();
      if (comma > pos) {
        std::string token = impls_flag.substr(pos, comma - pos);
        const bool starts_spec =
            token.find(':') != std::string::npos ||
            token.find('=') == std::string::npos;
        if (!starts_spec && !specs.empty()) {
          specs.back() += "," + token;
        } else {
          specs.push_back(std::move(token));
        }
      }
      pos = comma + 1;
    }
  }
  return specs;
}

// Builds a spec's snapshot with an ingest-knob sink, so the universal
// reclaim=/shards=/affinity= options work from --impls (with the
// registry's did-you-mean diagnostics for typos).  affinity=segment
// registers workers shard-affine, which draws pids from blocks spanning
// the FULL registry capacity -- the object is then sized to it (the
// adaptive watermark keeps per-pid walks bounded by the live range, and
// the default path keeps its historical sizing so trajectory numbers
// stay comparable).
struct BuiltSnapshot {
  std::unique_ptr<core::PartialSnapshot> snap;
  registry::IngestKnobs knobs;
  std::uint32_t affinity_shards = 1;  // for bench::run_workers_affine
};

BuiltSnapshot make_bench_snapshot(const std::string& spec, std::uint32_t m,
                                  std::uint32_t max_threads) {
  BuiltSnapshot built;
  built.snap = registry::make_snapshot(spec, m, max_threads, &built.knobs);
  if (built.knobs.affinity == "segment") {
    built.snap = registry::make_snapshot(
        spec, m, exec::ThreadRegistry::kMaxCapacity, &built.knobs);
    built.affinity_shards = std::max(1u, built.snap->reclaim_shards());
  }
  return built;
}

// Mixed workload: each worker runs an OpStream for a fixed duration.
// Scans are individually timed into a bounded LatencySampler so the tables
// report tail latency next to throughput (the averages hide exactly the
// reader-starvation effects the versioned plane exists to remove).
struct MixedResult {
  double ops_per_second = 0;
  Percentiles scan_ns;
};

MixedResult mixed_throughput(const std::string& spec, std::uint32_t m,
                             std::uint32_t r, std::uint32_t workers,
                             double update_fraction, double seconds) {
  BuiltSnapshot built = make_bench_snapshot(spec, m, workers);
  auto& snap = built.snap;
  std::atomic<std::uint64_t> total_ops{0};
  std::vector<bench::LatencySampler> samplers(workers);
  bench::run_workers_affine(workers, built.affinity_shards,
                            [&](std::uint32_t w, bench::WorkerStats&) {
    workload::OpMix mix;
    mix.update_fraction = update_fraction;
    mix.scan_r = r;
    mix.scan_kind = workload::ScanSetKind::kUniform;
    workload::OpStream stream(mix, m, /*seed=*/w + 1);
    workload::Op op;
    std::vector<std::uint64_t> out;
    std::uint64_t ops = 0;
    bench::StopAfter stop(seconds);
    while (!stop.expired()) {
      for (int burst = 0; burst < 64; ++burst) {
        stream.next(op);
        if (op.is_update) {
          snap->update(op.update_index, ops);
        } else {
          auto t0 = std::chrono::steady_clock::now();
          snap->scan(op.scan_set, out);
          auto t1 = std::chrono::steady_clock::now();
          samplers[w].add(static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()));
        }
        ++ops;
      }
    }
    total_ops.fetch_add(ops);
  });
  bench::LatencySampler merged;
  for (const auto& s : samplers) merged.merge(s);
  return MixedResult{double(total_ops.load()) / seconds,
                     merged.summarize()};
}

void table_mixed(const std::vector<std::string>& specs,
                 std::uint32_t workers, double seconds,
                 bench::JsonReport& report) {
  constexpr std::uint32_t kM = 256;
  constexpr std::uint32_t kR = 4;
  TablePrinter table({"impl", "10% updates ops/s", "50% updates ops/s",
                      "90% updates ops/s", "scan p50/p99 @50%"});
  for (const std::string& spec : specs) {
    std::vector<std::string> row{spec};
    std::string tail;
    for (double uf : {0.1, 0.5, 0.9}) {
      MixedResult result =
          mixed_throughput(spec, kM, kR, workers, uf, seconds);
      row.push_back(TablePrinter::fmt(result.ops_per_second / 1e6, 3) + "M");
      const std::string name =
          "CMPa/" + spec + "/updates=" +
          std::to_string(static_cast<int>(uf * 100)) + "%";
      report.add(name, result.ops_per_second);
      report.add_percentiles(name + "/scan_ns", result.scan_ns);
      if (uf == 0.5) {
        tail = TablePrinter::fmt(result.scan_ns.p50, 0) + "/" +
               TablePrinter::fmt(result.scan_ns.p99, 0) + "ns";
      }
    }
    row.push_back(std::move(tail));
    table.add_row(std::move(row));
  }
  table.print(std::cout,
              "CMPa: mixed-workload throughput, m=256, r=4, " +
                  std::to_string(workers) +
                  " threads -- paper: local algorithms win when r << m");
  std::cout << "\n";
}

void table_crossover(const std::vector<std::string>& specs,
                     std::uint32_t workers, double seconds,
                     bench::JsonReport& report) {
  constexpr std::uint32_t kM = 256;
  TablePrinter table({"impl", "r=2", "r=16", "r=64", "r=256(=m)"});
  for (const std::string& spec : specs) {
    std::vector<std::string> row{spec};
    for (std::uint32_t r : {2u, 16u, 64u, 256u}) {
      MixedResult result =
          mixed_throughput(spec, kM, r, workers, 0.3, seconds);
      row.push_back(TablePrinter::fmt(result.ops_per_second / 1e6, 3) + "M");
      const std::string name = "CMPb/" + spec + "/r=" + std::to_string(r);
      report.add(name, result.ops_per_second);
      report.add_percentiles(name + "/scan_ns", result.scan_ns);
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout,
              "CMPb: throughput vs scan width r (m=256, 30% updates) -- "
              "paper: crossover only as r approaches m");
  std::cout << "\n";
}

// Churn throughput: workers re-register for every burst (thread lifecycle
// churn through the process-wide ThreadRegistry) while a grower thread
// keeps extending the component space; scans draw from the component
// range current at burst start.
struct ChurnResult {
  double ops_per_second = 0;
  std::uint32_t final_m = 0;
};

ChurnResult churn_throughput(const std::string& spec, std::uint32_t m0,
                             std::uint32_t r, std::uint32_t workers,
                             double seconds) {
  constexpr std::uint32_t kGrowStep = 16;
  const std::uint32_t m_cap = m0 * 16;
  BuiltSnapshot built = make_bench_snapshot(spec, m0, workers + 1);
  auto& snap = built.snap;
  std::atomic<std::uint64_t> total_ops{0};
  std::atomic<bool> stop{false};

  std::thread grower([&] {
    exec::ThreadHandle pid;
    while (!stop.load(std::memory_order_acquire)) {
      if (snap->num_components() + kGrowStep <= m_cap) {
        snap->add_components(kGrowStep);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      Xoshiro256 rng(w + 1);
      std::vector<std::uint32_t> idx;
      std::vector<std::uint64_t> out;
      std::uint64_t ops = 0;
      bench::StopAfter stop_after(seconds);
      while (!stop_after.expired()) {
        // One registered life per burst: join, operate, leave (affine to
        // the worker's shard when affinity=segment is in the spec).
        bench::WorkerPid pid(w, built.affinity_shards);
        for (int burst = 0; burst < 256; ++burst) {
          std::uint32_t m = snap->num_components();
          if (rng.next_double() < 0.3) {
            snap->update(static_cast<std::uint32_t>(rng.next() % m), ops);
          } else {
            idx.clear();
            for (std::uint32_t k = 0; k < r; ++k) {
              idx.push_back(static_cast<std::uint32_t>(rng.next() % m));
            }
            snap->scan(idx, out);
          }
          ++ops;
        }
      }
      total_ops.fetch_add(ops);
    });
  }
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  grower.join();
  return ChurnResult{double(total_ops.load()) / seconds,
                     snap->num_components()};
}

void table_churn(const std::vector<std::string>& specs,
                 std::uint32_t workers, double seconds,
                 bench::JsonReport& report) {
  constexpr std::uint32_t kM0 = 64;
  constexpr std::uint32_t kR = 4;
  TablePrinter table({"impl", "churn ops/s", "final m"});
  for (const std::string& spec : specs) {
    ChurnResult result = churn_throughput(spec, kM0, kR, workers, seconds);
    table.add_row({spec, TablePrinter::fmt(result.ops_per_second / 1e6, 3) +
                             "M",
                   std::to_string(result.final_m)});
    report.add("CMPc/" + spec + "/churn", result.ops_per_second);
    report.add("CMPc/" + spec + "/final_m", double(result.final_m),
               "components");
  }
  table.print(std::cout,
              "CMPc: dynamic churn, m0=" + std::to_string(kM0) +
                  " growing in-run, r=" + std::to_string(kR) + ", " +
                  std::to_string(workers) +
                  " workers re-registering per burst");
  std::cout << "\n";
}

// Zipf-skewed churn: worker w re-registers between bursts with probability
// (1/(w+1))^theta -- rank 0 churns essentially every burst, the tail holds
// its pid for the whole run.  No grower: the variable under test is the
// lifetime skew itself.
double zipf_churn_throughput(const std::string& spec, std::uint32_t m,
                             std::uint32_t r, std::uint32_t workers,
                             double theta, double seconds) {
  BuiltSnapshot built = make_bench_snapshot(spec, m, workers);
  auto& snap = built.snap;
  std::atomic<std::uint64_t> total_ops{0};

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      const double churn_probability = std::pow(1.0 / (w + 1), theta);
      Xoshiro256 rng(w + 17);
      std::vector<std::uint32_t> idx;
      std::vector<std::uint64_t> out;
      std::uint64_t ops = 0;
      bench::WorkerPid pid(w, built.affinity_shards);
      bench::StopAfter stop_after(seconds);
      while (!stop_after.expired()) {
        if (rng.next_double() < churn_probability) {
          pid.rebind();  // hand the pid back, re-register (lowest free)
        }
        for (int burst = 0; burst < 64; ++burst) {
          if (rng.next_double() < 0.3) {
            snap->update(static_cast<std::uint32_t>(rng.next() % m), ops);
          } else {
            idx.clear();
            for (std::uint32_t k = 0; k < r; ++k) {
              idx.push_back(static_cast<std::uint32_t>(rng.next() % m));
            }
            snap->scan(idx, out);
          }
          ++ops;
        }
      }
      total_ops.fetch_add(ops);
    });
  }
  for (auto& t : threads) t.join();
  return double(total_ops.load()) / seconds;
}

void table_zipf_churn(const std::vector<std::string>& specs,
                      std::uint32_t workers, double seconds,
                      bench::JsonReport& report) {
  constexpr std::uint32_t kM = 256;
  constexpr std::uint32_t kR = 4;
  constexpr double kTheta = 0.99;  // YCSB-style heavy skew
  TablePrinter table({"impl", "zipf churn ops/s"});
  for (const std::string& spec : specs) {
    double ops = zipf_churn_throughput(spec, kM, kR, workers, kTheta,
                                       seconds);
    table.add_row({spec, TablePrinter::fmt(ops / 1e6, 3) + "M"});
    report.add("CMPz/" + spec + "/churn", ops);
  }
  table.print(std::cout,
              "CMPz: Zipf-skewed churn (theta=0.99) -- hot pids "
              "re-register per burst, cold pids parked; m=" +
                  std::to_string(kM) + ", r=" + std::to_string(kR) + ", " +
                  std::to_string(workers) + " workers");
  std::cout << "\n";
}

// Grow-heavy profile: unlike CMPc (which grows in the background of an
// operation workload), this charts add_components throughput ITSELF --
// two grower threads race tight add_components(kGrowStep) loops through
// the reserve/publish protocol while a few workers keep update/scan
// traffic on the object.  The in-order publication wait is the contended
// resource; the segmented storage means growth never copies components.
struct GrowResult {
  double components_per_second = 0;
  std::uint32_t final_m = 0;
};

GrowResult grow_throughput(const std::string& spec, std::uint32_t m0,
                           std::uint32_t workers, double seconds) {
  constexpr std::uint32_t kGrowStep = 16;
  constexpr std::uint32_t kGrowers = 2;
  // Hard ceiling so a fast implementation cannot run the segment
  // directory out of its envelope; the rate uses the growers' own last-
  // add timestamps, so hitting the ceiling early does not skew it.
  constexpr std::uint32_t kMCap = 1u << 18;
  BuiltSnapshot built = make_bench_snapshot(spec, m0, workers + kGrowers);
  auto& snap = built.snap;
  std::atomic<bool> stop{false};
  const auto t0 = std::chrono::steady_clock::now();
  std::atomic<std::int64_t> last_add_ns{0};

  std::vector<std::thread> growers;
  for (std::uint32_t g = 0; g < kGrowers; ++g) {
    growers.emplace_back([&] {
      exec::ThreadHandle pid;
      bench::StopAfter stop_after(seconds);
      while (!stop_after.expired() &&
             snap->num_components() + kGrowStep <= kMCap) {
        snap->add_components(kGrowStep);
      }
      auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
      std::int64_t seen = last_add_ns.load(std::memory_order_relaxed);
      while (ns > seen &&
             !last_add_ns.compare_exchange_weak(seen, ns,
                                                std::memory_order_relaxed)) {
      }
    });
  }

  std::vector<std::thread> threads;
  for (std::uint32_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      bench::WorkerPid pid(w, built.affinity_shards);
      Xoshiro256 rng(w + 5);
      std::vector<std::uint32_t> idx;
      std::vector<std::uint64_t> out;
      std::uint64_t ops = 0;
      while (!stop.load(std::memory_order_acquire)) {
        std::uint32_t m = snap->num_components();
        if (rng.next_double() < 0.3) {
          snap->update(static_cast<std::uint32_t>(rng.next() % m), ops);
        } else {
          idx.clear();
          for (std::uint32_t k = 0; k < 4; ++k) {
            idx.push_back(static_cast<std::uint32_t>(rng.next() % m));
          }
          snap->scan(idx, out);
        }
        ++ops;
      }
    });
  }

  for (auto& t : growers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  const std::uint32_t final_m = snap->num_components();
  double elapsed = double(last_add_ns.load(std::memory_order_relaxed)) / 1e9;
  elapsed = std::max(elapsed, 1e-3);
  return GrowResult{double(final_m - m0) / elapsed, final_m};
}

void table_grow(const std::vector<std::string>& specs, std::uint32_t workers,
                double seconds, bench::JsonReport& report) {
  constexpr std::uint32_t kM0 = 64;
  TablePrinter table({"impl", "grown comps/s", "final m"});
  for (const std::string& spec : specs) {
    GrowResult result = grow_throughput(spec, kM0, workers, seconds);
    table.add_row({spec,
                   TablePrinter::fmt(result.components_per_second / 1e6, 3) +
                       "M",
                   std::to_string(result.final_m)});
    report.add("CMPg/" + spec + "/grow_components_per_s",
               result.components_per_second);
    report.add("CMPg/" + spec + "/final_m", double(result.final_m),
               "components");
  }
  table.print(std::cout,
              "CMPg: grow-heavy churn -- add_components throughput itself "
              "(2 racing growers, step 16, m0=" +
                  std::to_string(kM0) + ", " + std::to_string(workers) +
                  " update/scan workers in the background)");
  std::cout << "\n";
}

// Batched ingest: every worker streams component writes; the batch width
// decides how the stream reaches the snapshot -- singleton update calls
// (k=1), direct update_batch of k distinct components, or the coalescing
// front-end merging a bounded window first.  The metric is raw component
// writes absorbed per second, so the k columns are directly comparable.
double ingest_throughput(const std::string& spec, std::uint32_t m,
                         std::uint32_t k, bool coalesce,
                         std::uint32_t workers, double seconds) {
  BuiltSnapshot built = make_bench_snapshot(spec, m, workers + 2);
  auto& snap = built.snap;
  std::atomic<bool> stop{false};
  // Resident scanner: with an announced scan always in flight, helping is
  // live, and each singleton update pays the getSet + embedded-scan cost
  // that update_batch amortizes over its k publishes.
  std::thread scanner([&] {
    exec::ThreadHandle pid;
    // A wide announced subset (r = m/4): every singleton update's helping
    // round collects all of it, so the per-write protocol cost is real.
    std::vector<std::uint32_t> idx;
    for (std::uint32_t i = 0; i < m; i += 4) idx.push_back(i);
    std::vector<std::uint64_t> out;
    while (!stop.load(std::memory_order_acquire)) snap->scan(idx, out);
  });
  std::atomic<std::uint64_t> total_writes{0};
  bench::run_workers_affine(workers, built.affinity_shards,
                            [&](std::uint32_t w, bench::WorkerStats&) {
    Xoshiro256 rng(w + 3);
    std::uint64_t writes = 0;
    bench::StopAfter stop_after(seconds);
    if (coalesce) {
      ingest::Coalescer::Options co_options;
      co_options.batch = k;
      co_options.coalesce_window = 4 * k;
      ingest::Coalescer ingest(*snap, std::move(co_options));
      while (!stop_after.expired()) {
        for (int burst = 0; burst < 64; ++burst) {
          ingest.write(static_cast<std::uint32_t>(rng.next() % m), writes);
          ++writes;
        }
      }
    } else if (k == 1) {
      while (!stop_after.expired()) {
        for (int burst = 0; burst < 64; ++burst) {
          snap->update(static_cast<std::uint32_t>(rng.next() % m), writes);
          ++writes;
        }
      }
    } else {
      std::vector<core::BatchEntry> entries(k);
      while (!stop_after.expired()) {
        for (int burst = 0; burst < 8; ++burst) {
          // A contiguous block mod m: k distinct components per batch.
          auto base = static_cast<std::uint32_t>(rng.next() % m);
          for (std::uint32_t j = 0; j < k; ++j) {
            entries[j] = {(base + j) % m, writes + j};
          }
          snap->update_batch(std::span<const core::BatchEntry>(entries));
          writes += k;
        }
      }
    }
    total_writes.fetch_add(writes);
  });
  stop.store(true, std::memory_order_release);
  scanner.join();
  return double(total_writes.load()) / seconds;
}

void table_batched_ingest(const std::vector<std::string>& specs,
                          std::uint32_t workers, double seconds,
                          bench::JsonReport& report) {
  constexpr std::uint32_t kM = 256;
  TablePrinter table(
      {"impl", "k=1", "k=4", "k=16", "k=64", "k=16+coalesce"});
  for (const std::string& spec : specs) {
    bool batched = false;
    {
      registry::IngestKnobs probe_knobs;
      auto probe = registry::make_snapshot(spec, 4, 2, &probe_knobs);
      batched =
          probe->batch_atomicity() != core::BatchAtomicity::kUnsupported;
    }
    std::vector<std::string> row{spec};
    for (std::uint32_t k : {1u, 4u, 16u, 64u}) {
      if (k > 1 && !batched) {
        row.push_back("-");
        continue;
      }
      double writes = ingest_throughput(spec, kM, k, /*coalesce=*/false,
                                        workers, seconds);
      row.push_back(TablePrinter::fmt(writes / 1e6, 3) + "M");
      report.add("CMPi/" + spec + "/k=" + std::to_string(k), writes,
                 "writes/s");
    }
    if (batched) {
      double writes = ingest_throughput(spec, kM, 16, /*coalesce=*/true,
                                        workers, seconds);
      row.push_back(TablePrinter::fmt(writes / 1e6, 3) + "M");
      report.add("CMPi/" + spec + "/k=16/coalesced", writes, "writes/s");
    } else {
      row.push_back("-");
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout,
              "CMPi: batched ingest, component writes/s vs batch width "
              "(m=256, resident scanner keeps helping live; '-' = not "
              "batch-capable; coalesce merges a 64-write window)");
  std::cout << "\n";
}

// The amortization headline, measured without scheduler noise: a scanner
// ANNOUNCEMENT parked in the active set (no competing thread) keeps the
// helping protocol live on the concrete fast runtime, and one writer
// thread alternates between 16 singleton updates and one 16-entry
// update_batch over the same components.  On a loaded or single-core
// host the CMPi survey above wobbles with thread placement; this cell is
// single-threaded and deterministic, so the committed artifact carries a
// stable singleton-vs-batch ratio.
template <class Snap>
void run_parked_amortization(const std::string& name, std::uint32_t m,
                             double seconds, TablePrinter& table,
                             bench::JsonReport& report) {
  constexpr std::uint32_t kK = 16;
  Snap snap(m, /*max_threads=*/4);
  {
    exec::ScopedPid scanner(1);
    std::vector<std::uint32_t> idx;
    for (std::uint32_t i = 0; i < m; i += 4) idx.push_back(i);
    std::vector<std::uint64_t> out;
    snap.scan(idx, out);
    snap.active_set().join();  // park: helping stays live, no thread runs
  }
  {
    exec::ScopedPid writer(0);
    std::vector<core::BatchEntry> entries(kK);
    for (std::uint32_t j = 0; j < kK; ++j) entries[j] = {j * 3, j};
    // Warm the pools and view capacities out of the measurement.
    for (std::uint64_t v = 0; v < 512; ++v) {
      snap.update(static_cast<std::uint32_t>(v % m), v);
      snap.update_batch(std::span<const core::BatchEntry>(entries));
    }

    std::uint64_t singles = 0;
    bench::StopAfter stop_singles(seconds);
    while (!stop_singles.expired()) {
      for (std::uint32_t j = 0; j < kK; ++j) {
        snap.update(entries[j].index, singles + j);
      }
      singles += kK;
    }
    const double singles_per_s = double(singles) / seconds;

    std::uint64_t batched = 0;
    bench::StopAfter stop_batches(seconds);
    while (!stop_batches.expired()) {
      snap.update_batch(std::span<const core::BatchEntry>(entries));
      batched += kK;
    }
    const double batched_per_s = double(batched) / seconds;

    table.add_row({name,
                   TablePrinter::fmt(singles_per_s / 1e6, 3) + "M",
                   TablePrinter::fmt(batched_per_s / 1e6, 3) + "M",
                   TablePrinter::fmt(batched_per_s / singles_per_s, 2) +
                       "x"});
    report.add("CMPi/" + name + "/parked/k=1", singles_per_s, "writes/s");
    report.add("CMPi/" + name + "/parked/k=16", batched_per_s, "writes/s");
    report.add("CMPi/" + name + "/parked/speedup",
               batched_per_s / singles_per_s, "ratio");
  }
  exec::ScopedPid scanner(1);
  snap.active_set().leave();
}

void table_ingest_amortization(double seconds, bench::JsonReport& report) {
  constexpr std::uint32_t kM = 256;
  TablePrinter table({"impl", "16 singletons", "one k=16 batch", "speedup"});
  run_parked_amortization<core::CasPartialSnapshot>("fig3_cas", kM, seconds,
                                                    table, report);
  run_parked_amortization<core::CasPartialSnapshotFast>(
      "fig3_cas_fast", kM, seconds, table, report);
  table.print(std::cout,
              "CMPi/parked: single-writer amortization, helping held live "
              "by a parked scanner announcement (m=256, r=64 announced) "
              "-- one batch's announcement + helping round covers 16 "
              "publishes");
  std::cout << "\n";
}

// --trace mode: a dedicated full-speed run with every operation recorded
// into runtime::TraceSink, dumped as a JSONL artifact for offline
// auditing (tools/trace_audit).  This is the wall-clock complement to the
// sim fuzzer: too long to linearizability-check, cheap to audit for epoch
// regressions, torn batches, and watermark violations.
int trace_profile(const std::string& spec, std::uint32_t workers,
                  double seconds, const std::string& path) {
  const std::uint32_t m0 = 48;
  BuiltSnapshot built = make_bench_snapshot(spec, m0, workers + 2);
  auto& snap = built.snap;
  runtime::TraceSink sink(exec::ThreadRegistry::kMaxCapacity, 2048);
  runtime::TracingSnapshot traced(*snap, sink);
  const bool versioned = traced.value_plane() == "versioned";
  const bool batched =
      traced.batch_atomicity() != core::BatchAtomicity::kUnsupported;

  bench::run_workers_affine(workers, built.affinity_shards,
                            [&](std::uint32_t w, bench::WorkerStats&) {
    Xoshiro256 rng(w + 17);
    bench::StopAfter stop_after(seconds);
    std::vector<std::uint64_t> out;
    std::vector<std::uint32_t> idx;
    std::vector<core::BatchEntry> entries;
    std::uint64_t n = 0;
    std::uint32_t grows_left = w == 0 ? 2 : 0;
    while (!stop_after.expired()) {
      const std::uint32_t m = traced.num_components();
      std::uint32_t roll = static_cast<std::uint32_t>(rng.next() % 100);
      if (roll < 50) {
        traced.update(static_cast<std::uint32_t>(rng.next() % m), ++n);
      } else if (roll < 70 && batched) {
        entries.clear();
        for (int k = 0; k < 3; ++k) {
          entries.push_back(
              {static_cast<std::uint32_t>(rng.next() % m), ++n});
        }
        traced.update_batch(
            std::span<const core::BatchEntry>(entries));
      } else {
        idx.clear();
        for (int k = 0; k < 4; ++k) {
          idx.push_back(static_cast<std::uint32_t>(rng.next() % m));
        }
        if (versioned) {
          (void)traced.scan_versioned(idx, out);
        } else {
          traced.scan(idx, out);
        }
      }
      if (grows_left > 0 && n > 200 * (3 - grows_left)) {
        traced.add_components(4);
        --grows_left;
      }
    }
  });

  runtime::TraceSink::Drained drained = sink.drain();
  runtime::TraceArtifact artifact;
  artifact.impl = spec;
  artifact.m0 = m0;
  artifact.final_m = traced.num_components();
  artifact.emitted = drained.emitted;
  artifact.dropped = drained.dropped;
  artifact.events = std::move(drained.events);
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "failed to open %s\n", path.c_str());
    return 1;
  }
  runtime::dump_jsonl(artifact, file);
  std::uint64_t dropped_total = 0;
  for (std::uint64_t d : artifact.dropped) dropped_total += d;
  std::printf("trace profile: impl=%s events=%zu emitted=%llu dropped=%llu "
              "-> %s\n",
              spec.c_str(), artifact.events.size(),
              static_cast<unsigned long long>(artifact.emitted),
              static_cast<unsigned long long>(dropped_total), path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.define("threads", "4", "worker threads");
  flags.define("seconds", "0.4", "measured duration per cell");
  flags.define("impls", "",
               "comma-separated registry specs (default: all registered; "
               "'help' prints the catalogue):\n" +
                   registry::snapshot_catalogue());
  flags.define("json", "",
               "also write machine-readable results to this JSON file "
               "(perf-trajectory artifact)");
  flags.define("trace", "",
               "run a dedicated trace profile instead of the tables: "
               "record every operation of a full-speed mixed run into a "
               "JSONL artifact at this path (audit with "
               "tools/trace_audit); uses the first --impls spec, default "
               "fig3_cas_batch:value=versioned");
  if (!flags.parse(argc, argv)) return 1;

  if (flags.get_string("impls") == "help") {
    std::printf("registered snapshot implementations:\n%s",
                registry::snapshot_catalogue().c_str());
    return 0;
  }

  if (!flags.get_string("trace").empty()) {
    std::string spec = flags.get_string("impls").empty()
                           ? "fig3_cas_batch:value=versioned"
                           : impl_specs(flags.get_string("impls")).front();
    try {
      return trace_profile(
          spec, static_cast<std::uint32_t>(flags.get_uint("threads")),
          flags.get_double("seconds"), flags.get_string("trace"));
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }

  std::printf("Experiment CMP: implementation comparison (Sections 1, 5)\n\n");
  auto workers = static_cast<std::uint32_t>(flags.get_uint("threads"));
  double seconds = flags.get_double("seconds");
  auto specs = impl_specs(flags.get_string("impls"));
  bench::JsonReport report;
  try {
    table_mixed(specs, workers, seconds, report);
    table_crossover(specs, workers, seconds, report);
    table_churn(specs, workers, seconds, report);
    table_zipf_churn(specs, workers, seconds, report);
    table_grow(specs, workers, seconds, report);
    table_batched_ingest(specs, workers, seconds, report);
    table_ingest_amortization(seconds, report);
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
