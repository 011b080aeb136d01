// Seeding an object with an initial vector (core::InitialVector, the only
// way to give an object an initial state) on every registry variant (every
// entry on every value and reclamation plane it supports): an object built
// from a vector -- without a pid -- scans back exactly that vector, also
// when the vector is longer than the spec's m0=; blob payloads seed the
// blob plane and are refused elsewhere; later updates supersede seeded
// values; versioned scans see the seed from the first epoch on; and an
// object constructed at m components is the same as one constructed
// smaller and grown to m, which is what lets restore() build at a frame's
// count instead of replaying its growth.
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
  std::unique_ptr<PartialSnapshot> make(InitialVector initial,
                                        const std::string& options = "") {
    std::string spec = GetParam().spec;
    if (!options.empty()) spec += "," + options;
    return registry::make_snapshot(spec, initial, 4);
  }
  const std::string& plane() const { return GetParam().value; }
};

TEST_P(SeedTest, ScanAllReturnsTheSeedAboveM0) {
  const std::vector<std::uint64_t> values = pattern(7);
  ASSERT_EQ(exec::ctx().pid, exec::kInvalidPid);  // seeding needs none
  // The payloads decide the count; m0= may only bound it.
  auto snap = make(InitialVector(values), "m0=3");
  ASSERT_EQ(snap->num_components(), 7u);

  exec::ScopedPid pid(0);
  EXPECT_EQ(snap->scan_all(), values);
  // Components grown later start at the initial value.
  ASSERT_EQ(snap->add_components(2), 7u);
  EXPECT_EQ(snap->scan({6, 7, 8}),
            (std::vector<std::uint64_t>{1042, 0, 0}));
}

TEST_P(SeedTest, M0AboveThePayloadCountIsRejected) {
  const std::vector<std::uint64_t> values = pattern(3);
  EXPECT_THROW(make(InitialVector(values), "m0=4"), std::invalid_argument);
}

TEST_P(SeedTest, BlobPayloadsSeedTheBlobPlaneOnly) {
  const std::vector<value::Blob> blobs{
      value::Blob(300, std::byte{0x5A}), value::Blob{},
      value::Blob{std::byte{1}, std::byte{2}, std::byte{3}}};
  if (plane() != "blob") {
    EXPECT_THROW(make(InitialVector(blobs)), std::invalid_argument);
    return;
  }
  auto snap = make(InitialVector(blobs));
  ASSERT_EQ(snap->num_components(), 3u);

  exec::ScopedPid pid(0);
  std::vector<value::Blob> got;
  snap->scan_blobs(all_indices(3), got);
  EXPECT_EQ(got, blobs);
}

TEST_P(SeedTest, LaterUpdatesSupersedeSeededValues) {
  const std::vector<std::uint64_t> values{5, 6, 7, 8};
  auto snap = make(InitialVector(values));

  exec::ScopedPid pid(0);
  snap->update(2, 99);
  EXPECT_EQ(snap->scan_all(), (std::vector<std::uint64_t>{5, 6, 99, 8}));
  snap->update(2, 100);
  snap->update(0, 1);
  EXPECT_EQ(snap->scan_all(), (std::vector<std::uint64_t>{1, 6, 100, 8}));
}

TEST_P(SeedTest, FirstVersionedScanSeesTheSeed) {
  if (plane() != "versioned") return;
  const std::vector<std::uint64_t> values = pattern(5);
  auto snap = make(InitialVector(values));

  exec::ScopedPid pid(0);
  std::vector<std::uint64_t> out;
  const std::uint64_t first = snap->scan_versioned(all_indices(5), out);
  EXPECT_EQ(out, values);
  snap->update(1, 42);
  EXPECT_GT(snap->scan_versioned(all_indices(5), out), first);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1000, 42, 1014, 1021, 1028}));
}

TEST_P(SeedTest, ConstructionAtMMatchesGrowthToM) {
  auto built = make(InitialVector(5));
  auto grown = make(InitialVector(2));
  ASSERT_EQ(grown->add_components(3), 2u);
  EXPECT_EQ(built->num_components(), grown->num_components());

  exec::ScopedPid pid(0);
  EXPECT_EQ(built->scan_all(), grown->scan_all());
  // Both continue the grow-only lifecycle from the same watermark.
  EXPECT_EQ(built->add_components(1), 5u);
  EXPECT_EQ(grown->add_components(1), 5u);
  for (PartialSnapshot* snap : {built.get(), grown.get()}) {
    snap->update(5, 55);
    snap->update(0, 10);
  }
  EXPECT_EQ(built->scan_all(), grown->scan_all());
}

INSTANTIATE_TEST_SUITE_P(AllImplementations, SeedTest,
                         ::testing::ValuesIn(test::snapshot_impls()),
                         test::snapshot_param_name);

}  // namespace
}  // namespace psnap::core
