// Shared helpers for the benchmark binaries.
//
// Conventions (see bench/README.md):
//  * Complexity claims are measured in *steps* -- base-object operations
//    counted by the exec layer -- exactly the unit of Theorems 1-3.  Steps
//    are independent of machine noise and of core oversubscription, so the
//    curves are stable even on small hosts.
//  * Wall-clock throughput appears only in the comparison bench (CMP),
//    where the practical question "who wins" is the point.
//  * Every binary prints aligned tables through TablePrinter and finishes
//    in seconds with default flags.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "common/table.h"
#include "common/timing.h"
#include "exec/exec.h"
#include "exec/thread_registry.h"

namespace psnap::bench {

// Machine-readable results next to the human tables: benches accumulate
// (name, value, unit) entries and write them as JSON when --json=<path> is
// passed, feeding the committed BENCH_*.json perf-trajectory artifacts
// (CI produces BENCH_PR2.json and successors).  The format mirrors google
// benchmark's "benchmarks" array so one jq expression reads both.
class JsonReport {
 public:
  void add(const std::string& name, double value,
           const std::string& unit = "ops/s") {
    entries_.push_back(Entry{name, value, unit});
  }

  // Tail latency as first-class entries: "<name>/p50" and "<name>/p99"
  // rows next to the mean-style entry of the same name, so trajectory
  // diffs catch tail regressions that averages hide.
  void add_percentiles(const std::string& name, const Percentiles& p,
                       const std::string& unit = "ns/op") {
    add(name + "/p50", p.p50, unit);
    add(name + "/p99", p.p99, unit);
  }

  bool empty() const { return entries_.empty(); }

  // Writes {"benchmarks": [{"name": ..., "value": ..., "unit": ...}]}.
  // Names are registry specs and metric labels (identifier-safe; no JSON
  // escaping needed).  Returns false if the file cannot be written.
  bool write_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"value\": %.6g, "
                   "\"unit\": \"%s\"}%s\n",
                   e.name.c_str(), e.value, e.unit.c_str(),
                   i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// Bounded per-operation latency recorder for percentile reporting.  Keeps
// at most `cap` samples however long the run is: when full it compacts to
// every other retained sample and doubles its stride, so retention stays
// uniform over the run (late samples are as likely kept as early ones) and
// memory stays O(cap) -- tail percentiles over minutes-long sweeps without
// gigabyte sample vectors.
//
// Each retained sample carries a weight: the number of operations it
// stands for (the stride it was taken at; a compaction folds each dropped
// sample's weight into its kept neighbour).  Percentiles are taken over the
// weighted samples, so merging samplers that thinned to different strides
// -- a fast worker's and a slow one's -- counts every operation once
// instead of over-weighting the slow worker's sparser record.
class LatencySampler {
 public:
  explicit LatencySampler(std::size_t cap = std::size_t{1} << 15)
      : cap_(cap) {
    samples_.reserve(cap_);
    weights_.reserve(cap_);
  }

  void add(double x) {
    if (++tick_ % stride_ != 0) return;
    if (samples_.size() == cap_) {
      std::size_t w = 0;
      for (std::size_t i = 0; i < samples_.size(); i += 2, ++w) {
        samples_[w] = samples_[i];
        weights_[w] =
            weights_[i] + (i + 1 < weights_.size() ? weights_[i + 1] : 0);
      }
      samples_.resize(w);
      weights_.resize(w);
      stride_ *= 2;
      if (tick_ % stride_ != 0) return;
    }
    samples_.push_back(x);
    weights_.push_back(stride_);
  }

  const std::vector<double>& samples() const { return samples_; }
  // weights()[k] is the number of operations samples()[k] stands for.
  const std::vector<std::uint64_t>& weights() const { return weights_; }

  // Appends another sampler's retained samples with their weights
  // (parallel reduction).  Never thins: the result may exceed the cap.
  void merge(const LatencySampler& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    weights_.insert(weights_.end(), other.weights_.begin(),
                    other.weights_.end());
  }

  Percentiles summarize() const {
    return summarize_weighted_percentiles(samples_, weights_);
  }

 private:
  std::size_t cap_;
  std::uint64_t tick_ = 0;
  std::uint64_t stride_ = 1;
  std::vector<double> samples_;
  std::vector<std::uint64_t> weights_;
};

// Statistics one worker gathers about its own operations.
struct WorkerStats {
  OnlineStats steps_per_op;     // exec steps per operation
  OnlineStats collects_per_op;  // embedded-scan collects per operation
  std::uint64_t ops = 0;
  std::uint64_t max_steps = 0;
  std::uint64_t borrowed = 0;
  std::uint64_t starved = 0;  // StarvationError count (capped baselines)
  double seconds = 0;

  void merge(const WorkerStats& other) {
    steps_per_op.merge(other.steps_per_op);
    collects_per_op.merge(other.collects_per_op);
    ops += other.ops;
    max_steps = std::max(max_steps, other.max_steps);
    borrowed += other.borrowed;
    starved += other.starved;
    seconds = std::max(seconds, other.seconds);
  }
};

// Measures one operation: returns steps consumed by `op`.
template <class Fn>
std::uint64_t measured_steps(Fn&& op) {
  std::uint64_t before = exec::ctx().steps.total;
  op();
  return exec::ctx().steps.total - before;
}

// Registers one worker thread's pid for the enclosing scope.  With
// affinity_shards > 1 the pid is shard-affine (ThreadRegistry's
// affinity=segment mode): worker w lands in shard w % affinity_shards's
// pid block, so its EBR slot / pool free list / announcement register sit
// in the tables of the segment it writes.  affinity_shards <= 1 is the
// plain lowest-free registration every bench used before.
class WorkerPid {
 public:
  WorkerPid(std::uint32_t w, std::uint32_t affinity_shards)
      : w_(w), shards_(affinity_shards) {
    acquire();
  }

  // Churn: hand the pid back and re-register (same shard preference).
  void rebind() {
    handle_.reset();
    acquire();
  }

 private:
  void acquire() {
    if (shards_ > 1) {
      handle_.emplace(exec::ThreadRegistry::process_wide(), w_ % shards_,
                      shards_);
    } else {
      handle_.emplace();
    }
  }

  std::uint32_t w_;
  std::uint32_t shards_;
  std::optional<exec::ThreadHandle> handle_;
};

// Runs `workers` threads; worker w executes body(w, stats) with a
// dynamically registered pid installed (exec::ThreadHandle).  The pids are
// the lowest free ones in the process-wide registry -- with no other
// holders, exactly {0..workers-1}, though not necessarily in thread order;
// `w` remains the worker's stable identity for seeds and sharding.
// Returns merged stats.
//
// run_workers_affine registers worker w shard-affine in shard
// w % affinity_shards (the registry's affinity=segment knob); pair it with
// a body that directs worker w's updates at component segments of the same
// shard so pid-keyed reclamation state stays segment-local.
inline WorkerStats run_workers_affine(
    std::uint32_t workers, std::uint32_t affinity_shards,
    const std::function<void(std::uint32_t, WorkerStats&)>& body) {
  std::vector<WorkerStats> stats(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  std::atomic<std::uint32_t> ready{0};
  std::atomic<bool> go{false};
  for (std::uint32_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      WorkerPid pid(w, affinity_shards);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      Timer timer;
      body(w, stats[w]);
      stats[w].seconds = timer.elapsed_seconds();
    });
  }
  while (ready.load() != workers) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  WorkerStats merged;
  for (const auto& s : stats) merged.merge(s);
  return merged;
}

inline WorkerStats run_workers(
    std::uint32_t workers,
    const std::function<void(std::uint32_t, WorkerStats&)>& body) {
  return run_workers_affine(workers, /*affinity_shards=*/1, body);
}

// Convenience: keep-running flag + fixed-duration stop for mixed loops.
class StopAfter {
 public:
  explicit StopAfter(double seconds) : seconds_(seconds) {}
  bool expired() const { return timer_.elapsed_seconds() >= seconds_; }

 private:
  Timer timer_;
  double seconds_;
};

}  // namespace psnap::bench
