#pragma once

namespace psnapbench {

// bench_psnap --selftest; returns the exit code.
int run_selftest();

}  // namespace psnapbench
