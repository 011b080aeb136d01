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
#include <string>
#include <vector>

#include "activeset/register_active_set.h"
#include "registry/registry.h"

namespace psnap::registry {

// gtest prints a failing case's parameter; the spec names it exactly.
inline void PrintTo(const SnapshotVariant& variant, std::ostream* os) {
  *os << variant.spec;
}

}  // namespace psnap::registry

namespace psnap::test {

using SnapshotFilter = std::function<bool(const registry::SnapshotVariant&)>;

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

// An active set under test: every registry active-set variant (entry, then
// each of its ablations), then the one Release instantiation that no
// active-set entry builds, constructed directly -- Figure 1's register set
// ("register_release", which fig1_register_fast owns).
struct ActiveSetCase {
  std::string name;   // identifier-safe gtest parameter name
  std::string entry;  // registry entry of the algorithm
  bool sim_safe = true;
  std::function<std::unique_ptr<activeset::ActiveSet>(std::uint32_t n)> make;
};

inline void PrintTo(const ActiveSetCase& c, std::ostream* os) {
  *os << c.name;
}

using ActiveSetFilter = std::function<bool(const ActiveSetCase&)>;

// Every active-set case the filter accepts.
inline std::vector<ActiveSetCase> active_set_impls(
    const ActiveSetFilter& filter = nullptr) {
  using primitives::Release;
  std::vector<ActiveSetCase> all;
  for (registry::ActiveSetVariant& variant : registry::active_set_variants()) {
    all.push_back({variant.name, variant.entry, variant.sim_safe,
                   [spec = variant.spec](std::uint32_t n) {
                     return registry::make_active_set(spec, n);
                   }});
  }
  all.push_back({"register_release", "register", /*sim_safe=*/false,
                 [](std::uint32_t n) {
                   return std::make_unique<
                       activeset::RegisterActiveSetT<Release>>(n);
                 }});
  std::vector<ActiveSetCase> out;
  for (ActiveSetCase& c : all) {
    if (!filter || filter(c)) out.push_back(std::move(c));
  }
  return out;
}

inline std::unique_ptr<core::PartialSnapshot> make_snapshot(
    const registry::SnapshotVariant& variant, core::InitialVector m,
    std::uint32_t n) {
  return registry::make_snapshot(variant.spec, m, n);
}

// gtest parameter-name generators (variant and registry names are
// identifier-safe).
inline std::string snapshot_param_name(
    const ::testing::TestParamInfo<registry::SnapshotVariant>& info) {
  return info.param.name;
}

inline std::string active_set_case_name(
    const ::testing::TestParamInfo<ActiveSetCase>& info) {
  return info.param.name;
}

}  // namespace psnap::test
