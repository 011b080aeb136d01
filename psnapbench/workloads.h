// The four closed-loop workloads of bench_psnap and the engine that runs
// one of them: set-up, warm-up, timed rounds, the checkpoint/restore control
// plane, the correctness oracles and, in a traced run, the per-layer
// counters, spans, probes and the Instrumented twin.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "metrics.h"
#include "trace.h"

namespace psnapbench {

struct Settings {
  std::uint64_t seed = 1;
  // Timed traffic per workload.  It runs in rounds, each on a freshly set
  // up object (timed: setup_s): a warm-up of a fifth of the round's ops,
  // unrecorded, then the round itself, until `seconds` of timed traffic
  // and at least two rounds.
  double seconds = 20;
  // Scales every workload's ops per round (1 = rounds of about a second).
  double ops_scale = 1;
  // Timed quiesced checkpoint + restore cycles after each round (after two
  // untimed ones), on the workloads that take no checkpoints under traffic.
  std::uint32_t checkpoints_per_round = 6;
  // Traced run only: longest probe loop, and ops per worker in the
  // Instrumented twin.
  double probe_s = 0.5;
  std::uint64_t twin_ops = 20000;
  // Checkpoint frames go to a fresh directory under this one.
  std::string frames_dir;
  // Non-empty: a traced run, writing spans.jsonl here.
  std::string trace_dir;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  // Untraced run: end_to_end_metrics(), then workload-specific extras
  // that carry no bound.  Traced run: per_layer_metrics(), then extras.
  std::vector<Metric> metrics;
  std::vector<Metric> extras;
  std::vector<SelfTime> self_times;
};

// The workload names, in run order.
const std::vector<std::string>& workload_names();
// One line: implementation spec, sizes, threads and why it is here.
std::string describe_workload(std::string_view name);

// Runs one workload in this process.  `name` must be in workload_names().
Result run_workload(std::string_view name, const Settings& settings);

}  // namespace psnapbench
