// The seed() contract (core/partial_snapshot.h) on every registry variant
// (every entry on every value and reclamation plane it supports): a
// freshly built object seeded with a vector -- without a pid -- scans
// back exactly that vector, components
// added by add_components before the seed included; later updates
// supersede seeded values; versioned scans see the seed from the first
// epoch on; a wrong-sized vector is rejected without touching the object.
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/partial_snapshot.h"
#include "exec/exec.h"
#include "registry/registry.h"
#include "tests/support/registry_params.h"

namespace psnap::core {
namespace {

std::vector<std::uint64_t> pattern(std::uint32_t m) {
  std::vector<std::uint64_t> values(m);
  for (std::uint32_t i = 0; i < m; ++i) values[i] = 1000 + 7 * i;
  return values;
}

std::vector<std::uint32_t> all_indices(std::uint32_t m) {
  std::vector<std::uint32_t> idx(m);
  std::iota(idx.begin(), idx.end(), 0u);
  return idx;
}

class SeedTest : public ::testing::TestWithParam<registry::SnapshotVariant> {
 protected:
  std::unique_ptr<PartialSnapshot> make(std::uint32_t m) {
    return registry::make_snapshot(GetParam().spec, m, 4);
  }
  const std::string& plane() const { return GetParam().value; }
};

TEST_P(SeedTest, ScanAllReturnsTheSeedIncludingGrownComponents) {
  auto snap = make(3);
  ASSERT_EQ(snap->add_components(4), 3u);
  const std::vector<std::uint64_t> values = pattern(7);
  ASSERT_EQ(exec::ctx().pid, exec::kInvalidPid);  // seeding needs none
  snap->seed(values);

  exec::ScopedPid pid(0);
  EXPECT_EQ(snap->scan_all(), values);
}

TEST_P(SeedTest, SeedBlobsSetsArbitraryPayloadsOnTheBlobPlaneOnly) {
  auto snap = make(2);
  if (plane() != "blob") {
    EXPECT_THROW(snap->seed_blobs(std::vector<value::Blob>(2)),
                 std::logic_error);
    return;
  }
  ASSERT_EQ(snap->add_components(1), 2u);
  const std::vector<value::Blob> blobs{
      value::Blob(300, std::byte{0x5A}), value::Blob{},
      value::Blob{std::byte{1}, std::byte{2}, std::byte{3}}};
  snap->seed_blobs(blobs);

  exec::ScopedPid pid(0);
  std::vector<value::Blob> got;
  snap->scan_blobs(all_indices(3), got);
  EXPECT_EQ(got, blobs);
}

TEST_P(SeedTest, LaterUpdatesSupersedeSeededValues) {
  auto snap = make(4);
  snap->seed(std::vector<std::uint64_t>{5, 6, 7, 8});

  exec::ScopedPid pid(0);
  snap->update(2, 99);
  EXPECT_EQ(snap->scan_all(), (std::vector<std::uint64_t>{5, 6, 99, 8}));
  snap->update(2, 100);
  snap->update(0, 1);
  EXPECT_EQ(snap->scan_all(), (std::vector<std::uint64_t>{1, 6, 100, 8}));
}

TEST_P(SeedTest, FirstVersionedScanSeesTheSeed) {
  if (plane() != "versioned") return;
  auto snap = make(5);
  const std::vector<std::uint64_t> values = pattern(5);
  snap->seed(values);

  exec::ScopedPid pid(0);
  std::vector<std::uint64_t> out;
  const std::uint64_t first = snap->scan_versioned(all_indices(5), out);
  EXPECT_EQ(out, values);
  snap->update(1, 42);
  EXPECT_GT(snap->scan_versioned(all_indices(5), out), first);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1000, 42, 1014, 1021, 1028}));
}

TEST_P(SeedTest, SizeMismatchThrowsAndChangesNothing) {
  auto snap = make(3);
  EXPECT_THROW(snap->seed(std::vector<std::uint64_t>{1, 2}),
               std::invalid_argument);
  EXPECT_THROW(snap->seed(std::vector<std::uint64_t>{1, 2, 3, 4}),
               std::invalid_argument);
  if (plane() == "blob") {
    EXPECT_THROW(snap->seed_blobs(std::vector<value::Blob>(4)),
                 std::invalid_argument);
  }
  {
    exec::ScopedPid pid(0);
    EXPECT_EQ(snap->scan_all(), (std::vector<std::uint64_t>{0, 0, 0}));
  }
  // Still freshly built: a well-sized seed goes through.
  snap->seed(std::vector<std::uint64_t>{1, 2, 3});
  exec::ScopedPid pid(0);
  EXPECT_EQ(snap->scan_all(), (std::vector<std::uint64_t>{1, 2, 3}));
}

INSTANTIATE_TEST_SUITE_P(AllImplementations, SeedTest,
                         ::testing::ValuesIn(test::snapshot_impls()),
                         test::snapshot_param_name);

// An implementation without a seed path inherits the throwing defaults.
class Unseedable final : public PartialSnapshot {
 public:
  std::uint32_t num_components() const override { return 1; }
  std::string_view name() const override { return "unseedable"; }
  bool is_wait_free() const override { return true; }
  bool is_local() const override { return true; }
  std::uint32_t add_components(std::uint32_t) override { return 1; }
  void update(std::uint32_t, std::uint64_t) override {}
  void scan(std::span<const std::uint32_t>, std::vector<std::uint64_t>&,
            ScanContext&) override {}
  using PartialSnapshot::scan;
};

TEST(SeedDefault, ThrowsLogicError) {
  Unseedable snap;
  EXPECT_THROW(snap.seed(std::vector<std::uint64_t>{1}), std::logic_error);
  EXPECT_THROW(snap.seed_blobs(std::vector<value::Blob>(1)),
               std::logic_error);
}

}  // namespace
}  // namespace psnap::core
