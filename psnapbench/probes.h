// Probes: short loops that call one public API of one layer from the
// workload's thread count, timed in groups of 64 calls.  They run in the
// traced run only, after the workload's traffic has stopped.
#pragma once

#include <cstdint>
#include <vector>

#include "metrics.h"

namespace psnapbench {

// The probe metrics of per_layer_metrics(): activeset.get_set_ns_p50,
// activeset.join_leave_ns_p50, primitives.camera_epoch_ns_p50,
// reclaim.ebr_pin_ns_p50, reclaim.retire_ns_p50, exec.register_ns_p50 and
// exec.register_ns_p99.  Each probe runs for at most `seconds`.  The
// calling thread must hold a registered pid.
std::vector<Metric> run_probes(std::uint32_t threads, double seconds);

}  // namespace psnapbench
