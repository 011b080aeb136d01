// Shared helpers for parameterizing gtest suites over the implementation
// registry.  Replaces the per-file `struct Impl { label; factory; }`
// tables: tests pick a capability filter instead of hand-curating lists,
// so a newly registered implementation -- or a plane newly listed on an
// existing one -- is covered everywhere it qualifies.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <vector>

#include "registry/registry.h"

namespace psnap::registry {

// gtest prints a failing case's parameter; the spec names it exactly.
inline void PrintTo(const SnapshotVariant& variant, std::ostream* os) {
  *os << variant.spec;
}
inline void PrintTo(const ActiveSetVariant& variant, std::ostream* os) {
  *os << variant.spec;
}

}  // namespace psnap::registry

namespace psnap::test {

using SnapshotFilter = std::function<bool(const registry::SnapshotVariant&)>;
using ActiveSetFilter =
    std::function<bool(const registry::ActiveSetVariant&)>;

// Every registry variant (entry x value plane x reclamation plane) the
// filter accepts.
inline std::vector<registry::SnapshotVariant> snapshot_impls(
    const SnapshotFilter& filter = nullptr) {
  std::vector<registry::SnapshotVariant> out;
  for (registry::SnapshotVariant& variant : registry::variants()) {
    if (!filter || filter(variant)) out.push_back(std::move(variant));
  }
  return out;
}

// Every active-set variant (entry, then each of its ablations) the filter
// accepts.
inline std::vector<registry::ActiveSetVariant> active_set_impls(
    const ActiveSetFilter& filter = nullptr) {
  std::vector<registry::ActiveSetVariant> out;
  for (registry::ActiveSetVariant& variant : registry::active_set_variants()) {
    if (!filter || filter(variant)) out.push_back(std::move(variant));
  }
  return out;
}

inline std::unique_ptr<core::PartialSnapshot> make_snapshot(
    const registry::SnapshotVariant& variant, core::InitialVector m,
    std::uint32_t n) {
  return registry::make_snapshot(variant.spec, m, n);
}

inline std::unique_ptr<activeset::ActiveSet> make_active_set(
    const registry::ActiveSetVariant& variant, std::uint32_t n) {
  return registry::make_active_set(variant.spec, n);
}

// gtest parameter-name generators (variant and registry names are
// identifier-safe).
inline std::string snapshot_param_name(
    const ::testing::TestParamInfo<registry::SnapshotVariant>& info) {
  return info.param.name;
}

inline std::string active_set_param_name(
    const ::testing::TestParamInfo<registry::ActiveSetVariant>& info) {
  return info.param.name;
}

}  // namespace psnap::test
