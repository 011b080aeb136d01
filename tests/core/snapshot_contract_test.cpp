// Sequential behavioural contract shared by every partial snapshot
// implementation (the paper's two algorithms and all four baselines).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/growth.h"
#include "core/partial_snapshot.h"
#include "exec/exec.h"
#include "registry/registry.h"
#include "tests/support/registry_params.h"

namespace psnap::core {
namespace {

class SnapshotContractTest
    : public ::testing::TestWithParam<registry::SnapshotVariant> {
 protected:
  std::unique_ptr<PartialSnapshot> make(std::uint32_t m, std::uint32_t n = 4) {
    return test::make_snapshot(GetParam(), m, n);
  }
};

TEST_P(SnapshotContractTest, InitialValuesAreZero) {
  auto snap = make(8);
  exec::ScopedPid pid(0);
  EXPECT_EQ(snap->scan({0, 3, 7}),
            (std::vector<std::uint64_t>{0, 0, 0}));
}

TEST_P(SnapshotContractTest, UpdateThenScanRoundTrip) {
  auto snap = make(4);
  exec::ScopedPid pid(0);
  snap->update(2, 77);
  EXPECT_EQ(snap->scan({2}), (std::vector<std::uint64_t>{77}));
}

TEST_P(SnapshotContractTest, UpdatesToDistinctComponentsIndependent) {
  auto snap = make(4);
  exec::ScopedPid pid(0);
  snap->update(0, 1);
  snap->update(1, 2);
  snap->update(3, 4);
  EXPECT_EQ(snap->scan({0, 1, 2, 3}),
            (std::vector<std::uint64_t>{1, 2, 0, 4}));
}

TEST_P(SnapshotContractTest, LastUpdateWins) {
  auto snap = make(2);
  exec::ScopedPid pid(0);
  snap->update(0, 1);
  snap->update(0, 2);
  snap->update(0, 3);
  EXPECT_EQ(snap->scan({0}), (std::vector<std::uint64_t>{3}));
}

TEST_P(SnapshotContractTest, ScanPreservesRequestOrder) {
  auto snap = make(4);
  exec::ScopedPid pid(0);
  snap->update(0, 10);
  snap->update(1, 11);
  snap->update(2, 12);
  EXPECT_EQ(snap->scan({2, 0, 1}),
            (std::vector<std::uint64_t>{12, 10, 11}));
}

TEST_P(SnapshotContractTest, ScanWithDuplicates) {
  auto snap = make(4);
  exec::ScopedPid pid(0);
  snap->update(1, 5);
  EXPECT_EQ(snap->scan({1, 1, 1}),
            (std::vector<std::uint64_t>{5, 5, 5}));
}

TEST_P(SnapshotContractTest, EmptyScanReturnsEmpty) {
  auto snap = make(4);
  exec::ScopedPid pid(0);
  std::vector<std::uint32_t> none;
  EXPECT_TRUE(snap->scan(std::span<const std::uint32_t>(none)).empty());
}

// An index past the last component fails the scan's bounds check, whether
// it ends an increasing set or opens an unsorted one.
TEST_P(SnapshotContractTest, ScanOfAnAbsentComponentAborts) {
  auto snap = make(4);
  exec::ScopedPid pid(0);
  EXPECT_DEATH((void)snap->scan({1, 4}), "psnap invariant violated");
  EXPECT_DEATH((void)snap->scan({4, 1, 1}), "psnap invariant violated");
}

TEST_P(SnapshotContractTest, ScanAllCoversEveryComponent) {
  auto snap = make(5);
  exec::ScopedPid pid(0);
  for (std::uint32_t i = 0; i < 5; ++i) snap->update(i, i * 100);
  EXPECT_EQ(snap->scan_all(),
            (std::vector<std::uint64_t>{0, 100, 200, 300, 400}));
}

TEST_P(SnapshotContractTest, SingleComponentObject) {
  auto snap = make(1);
  exec::ScopedPid pid(0);
  snap->update(0, 9);
  EXPECT_EQ(snap->scan({0}), (std::vector<std::uint64_t>{9}));
}

TEST_P(SnapshotContractTest, DifferentPidsCanUpdate) {
  // Multi-writer: any process may update any component.
  auto snap = make(2, 4);
  {
    exec::ScopedPid pid(0);
    snap->update(0, 1);
  }
  {
    exec::ScopedPid pid(3);
    snap->update(0, 2);
  }
  exec::ScopedPid pid(1);
  EXPECT_EQ(snap->scan({0}), (std::vector<std::uint64_t>{2}));
}

TEST_P(SnapshotContractTest, ManyUpdatesManyScans) {
  auto snap = make(16);
  exec::ScopedPid pid(0);
  for (std::uint64_t round = 1; round <= 50; ++round) {
    for (std::uint32_t i = 0; i < 16; ++i) {
      snap->update(i, round * 100 + i);
    }
    auto values = snap->scan({3, 7, 11});
    EXPECT_EQ(values[0], round * 100 + 3);
    EXPECT_EQ(values[1], round * 100 + 7);
    EXPECT_EQ(values[2], round * 100 + 11);
  }
}

TEST_P(SnapshotContractTest, FlagsReportedConsistently) {
  auto snap = make(2);
  EXPECT_FALSE(snap->name().empty());
  EXPECT_EQ(snap->num_components(), 2u);
}

// The component limit is a typed error, never an abort: a grow past it
// reserves nothing (so the next grow continues from the old count, and a
// request near 2^32 cannot wrap the watermark), and construction above it
// fails before the object allocates its storage.  Nothing here allocates
// anywhere near the limit.
TEST_P(SnapshotContractTest, GrowPastTheComponentLimitIsRefused) {
  auto snap = make(3);
  EXPECT_THROW(snap->add_components(kMaxComponents), std::length_error);
  EXPECT_THROW(snap->add_components(~std::uint32_t{0}), std::length_error);
  EXPECT_EQ(snap->num_components(), 3u);
  EXPECT_EQ(snap->add_components(1), 3u);
  EXPECT_EQ(snap->num_components(), 4u);
}

TEST_P(SnapshotContractTest, ConstructionPastTheComponentLimitIsRefused) {
  EXPECT_THROW(make(kMaxComponents + 1), std::length_error);
}

INSTANTIATE_TEST_SUITE_P(AllImplementations, SnapshotContractTest,
                         ::testing::ValuesIn(test::snapshot_impls()),
                         test::snapshot_param_name);

}  // namespace
}  // namespace psnap::core
