// bench_psnap --compare: two sets of result files, judged against the
// bounds in BENCHMARK.json.
#pragma once

#include <array>
#include <string>
#include <vector>

namespace psnapbench {

// Python's statistics.quantiles(values, n=4) (the default "exclusive"
// method), which the bounds in BENCHMARK.json are stated against; one
// value gives three equal quartiles.  `values` must not be empty.
std::array<double, 3> quartiles(std::vector<double> values);

// `sides` is "<a.json,...>:<b.json,...>", each file a JsonReport written
// with --json.  Prints, per <workload>/<metric>: each side's median and
// quartiles, the change of the median, and a verdict -- "ok", "regressed"
// (worse by more than the metric's bound), or "unresolved" (a side's
// quartile spread exceeds the bound and b does not beat a on every run).
// Metrics without a bound are shown as "info".  Returns the exit code:
// 0, 1 when anything regressed, 2 on unreadable input.
int run_compare(const std::string& sides, const std::string& bounds_path);

}  // namespace psnapbench
