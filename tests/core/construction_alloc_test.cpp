// Building, growing or restoring an object allocates per storage segment,
// not per component.
//
// Figure 1's and Figure 3's initial records are built in place in a
// ComponentStorage the object owns (core/record.h), next to the heads, so
// constructing m components -- and add_components(k) -- costs a handful of
// allocations per 1024-component segment plus a constant for the rest of
// the object (active set, pools, registry spec parsing).  restore() builds
// the object from a frame's payloads the same way.  A per-component
// allocation anywhere on these paths makes the count at least m.  This
// suite replaces the global operator new, which is why it is its own test
// binary.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "core/growth.h"
#include "core/partial_snapshot.h"
#include "exec/exec.h"
#include "persist/checkpoint.h"
#include "recovery/restore.h"
#include "registry/registry.h"
#include "tests/support/counting_allocator.h"

namespace psnap::core {
namespace {

using test::g_allocations;

constexpr std::uint32_t kM = 65536;
constexpr std::uint32_t kGrowBy = 16384;

// Allowed allocations for building `components` components: a few per
// segment (heads, initial records) and a constant for everything else.
constexpr std::uint64_t allocation_bound(std::uint32_t components) {
  return 4 * (components / kComponentSegmentSize) + 64;
}

class ConstructionAllocTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ConstructionAllocTest, ConstructionAllocatesPerSegment) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  auto snap = registry::make_snapshot(GetParam(), kM, 4);
  const std::uint64_t made =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_LE(made, allocation_bound(kM)) << GetParam();
  EXPECT_EQ(snap->num_components(), kM);
}

TEST_P(ConstructionAllocTest, AddComponentsAllocatesPerSegment) {
  auto snap = registry::make_snapshot(GetParam(), kM, 4);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(snap->add_components(kGrowBy), kM);
  const std::uint64_t made =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_LE(made, allocation_bound(kGrowBy)) << GetParam();
  EXPECT_EQ(snap->num_components(), kM + kGrowBy);
  // The grown components hold their initial value.
  exec::ScopedPid pid(0);
  EXPECT_EQ(snap->scan({kM, kM + kGrowBy - 1}),
            (std::vector<std::uint64_t>{0, 0}));
}

TEST_P(ConstructionAllocTest, RestoreAllocatesPerSegment) {
  persist::CheckpointData frame;
  frame.impl_spec = GetParam();
  frame.value_plane =
      std::string(registry::make_snapshot(GetParam(), 1, 1)->value_plane());
  frame.initial_m = kM;
  frame.num_components = kM;
  frame.max_threads = 4;
  frame.values.resize(kM);
  for (std::uint32_t i = 0; i < kM; ++i) frame.values[i] = 3 * i + 1;

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  auto snap = recovery::restore(frame);
  const std::uint64_t made =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_LE(made, allocation_bound(kM)) << GetParam();
  exec::ScopedPid pid(0);
  EXPECT_EQ(snap->scan({0, kM - 1}),
            (std::vector<std::uint64_t>{1, 3 * (kM - 1) + 1}));
}

INSTANTIATE_TEST_SUITE_P(Fig1Fig3, ConstructionAllocTest,
                         ::testing::Values("fig3_cas_fast",
                                           "fig3_cas_fast:value=versioned",
                                           "fig1_register_fast"));

}  // namespace
}  // namespace psnap::core
