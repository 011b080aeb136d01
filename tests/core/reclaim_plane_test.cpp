// Tail-latency isolation of the reclamation planes (ISSUE 10).
//
// The knob this PR adds -- reclaim=ebr|hp plus EBR sharding by component
// segment -- exists for one scenario: a reader that loads its protection
// and then stalls (preempted, paging, debugger).  These tests park such a
// reader deliberately (core::CasPartialSnapshotT::ParkedReader) and
// measure retired-but-not-freed residency:
//
//   * global (1-shard) EBR: the parked pin freezes EVERY retirement in
//     the domain -- residency grows without bound while the reader sleeps;
//   * sharded EBR: only the parked reader's shard freezes; traffic in
//     other segments reclaims at full speed;
//   * hazard pointers: only the HANDFUL of records the reader protects
//     stay pinned; residency is bounded by the hazard-scan threshold no
//     matter how long the reader sleeps or where the traffic goes.
//
// bench_reclaim_plane turns the same contrast into numbers; these tests
// pin the qualitative property in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cas_psnap.h"
#include "core/growth.h"
#include "exec/exec.h"

namespace psnap::core {
namespace {

constexpr std::uint32_t kM = 64;
constexpr std::uint32_t kN = 4;

using Parked = CasPartialSnapshot::ParkedReader;

// Parks pid 1 on the given components; the caller updates under pid 0.
std::unique_ptr<Parked> park(CasPartialSnapshot& snap,
                             const std::vector<std::uint32_t>& indices) {
  exec::ScopedPid scanner(1);
  return std::make_unique<Parked>(snap, indices);
}

void unpark(std::unique_ptr<Parked>& parked) {
  exec::ScopedPid scanner(1);
  parked.reset();
}

TEST(ReclaimPlaneTest, GlobalEbrParkedScannerFreezesAllReclamation) {
  // The baseline failure mode: with one global domain, a single parked
  // reader holds back every retirement, even of components it never read.
  CasPartialSnapshot snap(kM, kN);
  auto parked = park(snap, {0});
  {
    exec::ScopedPid updater(0);
    for (int k = 0; k < 3000; ++k) {
      snap.update(static_cast<std::uint32_t>(k % kM), k);
    }
  }
  EXPECT_GT(snap.reclaim_outstanding(), 2500u);
  unpark(parked);
  // Unparked, the backlog drains as soon as operations run again.
  {
    exec::ScopedPid updater(0);
    for (int k = 0; k < 200; ++k) {
      snap.update(static_cast<std::uint32_t>(k % kM), k);
    }
  }
  EXPECT_LT(snap.reclaim_outstanding(), 1000u);
}

TEST(ReclaimPlaneTest, ShardedEbrParkedScannerFreezesOnlyItsShard) {
  // Components map to shards by segment (core/growth.h), so a reader
  // parked in segment 0 freezes shard 0 while segment-1 traffic reclaims
  // through its own domain unimpeded.
  CasSnapshotOptions options;
  options.reclaim_shards = 2;
  const std::uint32_t m = 2 * kComponentSegmentSize;
  CasPartialSnapshot snap(m, kN, options);
  auto parked = park(snap, {0});
  {
    exec::ScopedPid updater(0);
    for (int k = 0; k < 3000; ++k) {
      snap.update(kComponentSegmentSize + static_cast<std::uint32_t>(k % kM),
                  k);
    }
    EXPECT_LT(snap.reclaim_outstanding(), 1000u)
        << "the unparked shard should reclaim freely";
    std::uint64_t before = snap.reclaim_outstanding();
    for (int k = 0; k < 3000; ++k) {
      snap.update(static_cast<std::uint32_t>(k % kM), k);
    }
    EXPECT_GT(snap.reclaim_outstanding(), before + 2500)
        << "the parked shard should freeze behind the pin";
  }
  unpark(parked);
}

TEST(ReclaimPlaneTest, HpParkedScannerBlocksOnlyTheRecordsItProtects) {
  // The hp plane's whole point: the parked reader pins exactly the two
  // records its hazards cover; every other retirement frees on the next
  // hazard scan, so residency stays bounded by the scan threshold no
  // matter how long the reader sleeps.
  CasSnapshotOptions options;
  options.use_hp = true;
  CasPartialSnapshot snap(kM, kN, options);
  auto parked = park(snap, {0, 1});
  {
    exec::ScopedPid updater(0);
    for (int k = 0; k < 5000; ++k) {
      snap.update(static_cast<std::uint32_t>(k % kM), k);
    }
    EXPECT_LT(snap.reclaim_outstanding(), 600u)
        << "hp residency must stay bounded under a parked scanner";
  }
  unpark(parked);
}

}  // namespace
}  // namespace psnap::core
