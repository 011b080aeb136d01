// Model-based property testing: every implementation, driven by seeded
// random single-process op sequences, must agree operation-for-operation
// with a trivial reference model (a plain vector).  Sequential agreement
// is a necessary condition that exercises index canonicalization, initial
// values, overwrite ordering and view extraction across a much wider input
// space than the hand-written cases; the concurrent guarantees are covered
// by the sim/stress suites.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "core/partial_snapshot.h"
#include "exec/exec.h"
#include "registry/registry.h"
#include "tests/support/registry_params.h"
#include "workload/workload.h"

namespace psnap::core {
namespace {

struct Case {
  std::string label;
  std::uint64_t seed;
  registry::SnapshotVariant variant;
};

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  for (const registry::SnapshotVariant& variant : test::snapshot_impls()) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      cases.push_back(
          Case{variant.name + "_s" + std::to_string(seed), seed, variant});
    }
  }
  return cases;
}

class SnapshotModelTest : public ::testing::TestWithParam<Case> {};

TEST_P(SnapshotModelTest, AgreesWithReferenceModel) {
  Xoshiro256 rng(GetParam().seed);
  // Random shape per seed.
  const auto m = static_cast<std::uint32_t>(rng.next_in(1, 48));
  auto snap = test::make_snapshot(GetParam().variant, m, 2);
  std::vector<std::uint64_t> model(m, 0);

  exec::ScopedPid pid(0);
  std::vector<std::uint64_t> out;
  for (int op = 0; op < 400; ++op) {
    if (rng.next_bool(0.5)) {
      auto i = static_cast<std::uint32_t>(rng.next_below(m));
      std::uint64_t v = rng.next();
      snap->update(i, v);
      model[i] = v;
    } else {
      // Random subset with duplicates and random order, sometimes empty.
      std::vector<std::uint32_t> indices;
      std::uint64_t r = rng.next_below(std::min<std::uint64_t>(m, 10) + 1);
      for (std::uint64_t j = 0; j < r; ++j) {
        indices.push_back(static_cast<std::uint32_t>(rng.next_below(m)));
      }
      snap->scan(indices, out);
      ASSERT_EQ(out.size(), indices.size());
      for (std::size_t j = 0; j < indices.size(); ++j) {
        ASSERT_EQ(out[j], model[indices[j]])
            << "op " << op << " component " << indices[j];
      }
    }
  }
  // Final full agreement.
  ASSERT_EQ(snap->scan_all(), model);
}

INSTANTIATE_TEST_SUITE_P(AllImplsAllSeeds, SnapshotModelTest,
                         ::testing::ValuesIn(make_cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return info.param.label;
                         });

// Alternating-pid variant: the same sequential agreement but rotating the
// acting process, exercising multi-writer counters and per-process state.
class SnapshotModelMultiPidTest : public ::testing::TestWithParam<Case> {};

TEST_P(SnapshotModelMultiPidTest, AgreesWithReferenceModel) {
  Xoshiro256 rng(GetParam().seed * 7919);
  const auto m = static_cast<std::uint32_t>(rng.next_in(2, 24));
  constexpr std::uint32_t kPids = 3;
  auto snap = test::make_snapshot(GetParam().variant, m, kPids);
  std::vector<std::uint64_t> model(m, 0);

  std::vector<std::uint64_t> out;
  for (int op = 0; op < 300; ++op) {
    auto acting = static_cast<std::uint32_t>(rng.next_below(kPids));
    exec::ScopedPid pid(acting);
    if (rng.next_bool(0.5)) {
      auto i = static_cast<std::uint32_t>(rng.next_below(m));
      std::uint64_t v = rng.next();
      snap->update(i, v);
      model[i] = v;
    } else {
      auto r = static_cast<std::uint32_t>(rng.next_in(1, std::min(m, 6u)));
      auto indices = rng.sample_without_replacement(m, r);
      snap->scan(indices, out);
      for (std::size_t j = 0; j < indices.size(); ++j) {
        ASSERT_EQ(out[j], model[indices[j]]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllImplsAllSeeds, SnapshotModelMultiPidTest,
                         ::testing::ValuesIn(make_cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return info.param.label;
                         });

}  // namespace
}  // namespace psnap::core
