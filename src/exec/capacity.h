// The one process-capacity constant every pid-keyed table derives from.
//
// Pids index per-process slot arrays all over the system: the thread
// registry's allocation bitmap, EBR and hazard-pointer slots, pool free
// lists, the per-pid scan scratch, announcement registers.  Those tables
// must agree on the ceiling -- a pid the registry can hand out must have a
// slot everywhere -- so each sizes off this one constant under this one
// name (exec::ThreadRegistry::kMaxCapacity is an alias):
//
//   reclaim::EbrDomain / HazardDomain      kMaxPidCapacity slots
//   reclaim::Pool                          shards x kMaxPidCapacity lists
//   core::pid_scan_context()               kMaxPidCapacity contexts
//
// Raising the ceiling is one edit here.
#pragma once

#include <cstdint>

namespace psnap::exec {

inline constexpr std::uint32_t kMaxPidCapacity = 192;

}  // namespace psnap::exec
