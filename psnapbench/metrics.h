// The metrics bench_psnap reports, by name and unit.  BENCHMARK.json at the
// repository root lists the same names with their bounds; a run prints
// every name below for every workload, in this order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace psnapbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  // Values the number summarizes: rounds, checkpoints, counted ops,
  // probe groups.
  std::uint64_t samples = 0;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// What a user of the object sees; measured only in untraced runs.
inline const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"scan_p50_ns", "ns"},
      {"write_p50_ns", "ns"},
      {"checkpoint_p50_ms", "ms"},
      {"restore_p50_ms", "ms"},
  };
  return defs;
}

// One layer each, named after the module; measured only in traced runs.
inline const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"core.scan_collects_mean", "count"},
      {"core.scan_collects_max", "count"},
      {"core.scan_borrowed_share", "share"},
      {"core.update_collects_mean", "count"},
      {"core.update_embedded_args_mean", "count"},
      {"core.update_cas_fail_share", "share"},
      {"core.batch_size_mean", "count"},
      {"activeset.getset_size_mean", "count"},
      {"activeset.get_set_ns_p50", "ns"},
      {"activeset.join_leave_ns_p50", "ns"},
      {"primitives.chain_nodes_mean", "count"},
      {"primitives.chain_nodes_p99", "count"},
      {"primitives.camera_epoch_ns_p50", "ns"},
      {"reclaim.ebr_pin_ns_p50", "ns"},
      {"reclaim.retire_ns_p50", "ns"},
      {"reclaim.outstanding_end", "count"},
      {"ingest.merge_ratio", "share"},
      {"ingest.entries_per_flush", "count"},
      {"exec.register_ns_p50", "ns"},
      {"exec.register_ns_p99", "ns"},
      {"exec.pid_watermark", "count"},
      {"exec.scan_steps_mean", "count"},
      {"exec.update_steps_mean", "count"},
      {"exec.scan_fai_steps_mean", "count"},
      {"recovery.capture_ms_p50", "ms"},
      {"recovery.capture_attempts_mean", "count"},
      {"recovery.restore_ms_p50", "ms"},
      {"persist.serialize_ms_p50", "ms"},
      {"persist.commit_ms_p50", "ms"},
      {"persist.load_ms_p50", "ms"},
      {"persist.frame_bytes", "bytes"},
      {"trace.overhead_ratio", "ratio"},
  };
  return defs;
}

}  // namespace psnapbench
