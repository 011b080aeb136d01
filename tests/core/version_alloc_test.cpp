// Steady-state VERSIONED (value=versioned) operations must not touch the
// heap, and quiescent chains must stay trimmed.
//
// The versioned read plane (primitives/version_chain.h) appends one
// version node per update and walks chains per scan; this suite proves
// the two lifecycle claims ISSUE 6 makes about it:
//
//   * zero steady-state allocations: after warm-up, every update's node
//     comes from the Pool (the node retired by the lazy chain trim
//     returns through EBR with its storage intact -- acquire 1 / retire 1
//     per update, balanced), and every scan re-fills the caller's buffer
//     in place;
//   * chain-length boundedness: the lazy trim keeps the unretired set of
//     each chain at {head, head->prev}, and with quiescent readers a
//     scan's chain walk reads the head immediately -- the OpStats
//     chain_nodes oracle reports exactly 1 node walked.
//
// Like its alloc-test siblings this is its own binary: it replaces the
// global operator new/delete with the shared counting versions.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/cas_psnap.h"
#include "core/op_stats.h"
#include "core/partial_snapshot.h"
#include "exec/exec.h"
#include "primitives/value_plane.h"
#include "registry/registry.h"
#include "tests/support/counting_allocator.h"

namespace psnap::core {
namespace {

using test::g_allocations;

constexpr std::uint32_t kM = 64;
constexpr std::uint32_t kN = 4;

const std::vector<std::uint32_t> kIdx{3, 9, 17, 40};

// Every versioned construction route: value=versioned specs on Figure 3
// (the one algorithm with the versioned plane), both runtimes.
const char* const kVersionedSpecs[] = {
    "fig3_cas:value=versioned",
    "fig3_cas_fast:value=versioned",
    // The hazard-pointer reclamation plane: same chain lifecycle, pools
    // fed by hazard scans instead of grace periods.
    "fig3_cas:value=versioned,reclaim=hp",
};

// Drives updates and scans far past every warm-up watermark: pool fill,
// EBR retired-list capacity, chain trims, and the caller-side scan
// buffer's capacity.
void warm_up(PartialSnapshot& snap) {
  std::vector<std::uint64_t> out;
  for (int round = 0; round < 8; ++round) {
    for (std::uint32_t i = 0; i < kM; ++i) snap.update(i, i);
    snap.scan(kIdx, out);
  }
  for (int k = 0; k < 512; ++k) {
    snap.update(static_cast<std::uint32_t>(k % kM), 100 + k);
  }
}

TEST(VersionAllocTest, SteadyStateVersionedUpdatesAreAllocationFree) {
  exec::ScopedPid pid(0);
  for (const char* spec : kVersionedSpecs) {
    auto snap = registry::make_snapshot(spec, kM, kN);
    ASSERT_EQ(snap->value_plane(), "versioned") << spec;
    warm_up(*snap);
    std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int k = 0; k < 512; ++k) {
      snap->update(static_cast<std::uint32_t>(k % kM), 5000 + k);
    }
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u)
        << spec;
    // The updates still publish real data through the chains.
    std::vector<std::uint64_t> out;
    const std::vector<std::uint32_t> last{511 % kM};
    snap->scan(last, out);
    EXPECT_EQ(out, (std::vector<std::uint64_t>{5000 + 511})) << spec;
  }
}

TEST(VersionAllocTest, SteadyStateVersionedScansAreAllocationFree) {
  exec::ScopedPid pid(0);
  for (const char* spec : kVersionedSpecs) {
    auto snap = registry::make_snapshot(spec, kM, kN);
    warm_up(*snap);
    std::vector<std::uint64_t> out;
    for (int k = 0; k < 64; ++k) snap->scan(kIdx, out);
    std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int k = 0; k < 256; ++k) snap->scan(kIdx, out);
    for (int k = 0; k < 256; ++k) snap->scan_versioned(kIdx, out);
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u)
        << spec;
  }
}

// The quiescent-reader chain-length oracle: every update self-stamps
// before returning, so a subsequent scan's epoch covers every published
// stamp and the chain walk must stop at the head -- chain_nodes == 1, on
// every component, no matter how many updates ran.  (Anything larger
// would mean trims are lagging or stamps are leaking past the camera.)
TEST(VersionChainTest, QuiescentScansWalkExactlyOneNode) {
  exec::ScopedPid pid(0);
  for (const char* spec : kVersionedSpecs) {
    auto snap = registry::make_snapshot(spec, kM, kN);
    std::vector<std::uint64_t> out;
    std::vector<std::uint32_t> all(kM);
    for (std::uint32_t i = 0; i < kM; ++i) all[i] = i;
    for (int round = 0; round < 16; ++round) {
      for (std::uint32_t i = 0; i < kM; ++i) {
        snap->update(i, round * kM + i);
      }
      snap->scan(all, out);
      EXPECT_EQ(tls_op_stats().chain_nodes, 1u) << spec;
      for (std::uint32_t i = 0; i < kM; ++i) {
        EXPECT_EQ(out[i], static_cast<std::uint64_t>(round) * kM + i) << spec;
      }
    }
  }
}

// The versioned scan gathers its heads a block (kReadBlock) at a time and
// pipelines the blocks: block k+1's heads are loaded before block k's
// versions are read.  At r below, at, one past and well past a block, and
// at two and three-and-a-bit blocks, a quiescent scan costs exactly 1 + 2r
// steps, walks one node per component and returns every component, the
// partial last block included.  On the EBR plane the log is the
// fetch-add, the heads of block 0, then per block k the heads of block k+1
// (in request order, if there is one) followed by the version reads of
// block k; hp reads one validated head at a time, so its loads and
// version reads alternate.
TEST(VersionChainTest, QuiescentScansAcrossReadBlocks) {
  exec::ScopedPid pid(0);
  constexpr std::size_t kBlock = CasPartialSnapshotVersioned::kReadBlock;
  constexpr std::size_t kScanSizes[] = {
      1, kBlock, kBlock + 1, 2 * kBlock, 2 * kBlock + 8, 3 * kBlock + 5};
  static_assert(3 * kBlock + 5 <= kM, "scan sizes index distinct components");
  for (const bool use_hp : {false, true}) {
    CasSnapshotOptions options;
    options.use_hp = use_hp;
    CasPartialSnapshotVersioned snap(kM, kN, options);
    for (std::uint32_t i = 0; i < kM; ++i) snap.update(i, 1000 + i);
    for (std::size_t r : kScanSizes) {
      // A permutation prefix of [0, kM): distinct, out of index order.
      std::vector<std::uint32_t> idx(r);
      for (std::size_t k = 0; k < r; ++k) {
        idx[k] = static_cast<std::uint32_t>((3 * k + 1) % kM);
      }
      exec::RecordingLogger logger;
      std::vector<std::uint64_t> out;
      exec::ctx().steps.reset();
      {
        exec::ScopedLogger guard(&logger);
        snap.scan_versioned(idx, out);
      }
      EXPECT_EQ(exec::ctx().steps.total, 1 + 2 * r)
          << "hp=" << use_hp << " r=" << r;
      EXPECT_EQ(tls_op_stats().chain_nodes, 1u)
          << "hp=" << use_hp << " r=" << r;
      ASSERT_EQ(out.size(), r);
      for (std::size_t k = 0; k < r; ++k) {
        EXPECT_EQ(out[k], 1000u + idx[k])
            << "hp=" << use_hp << " r=" << r << " k=" << k;
      }

      // The expected access log: (kind, label) per step.
      using Access = exec::RecordingLogger::Access;
      std::vector<Access> expected{{exec::ObjKind::kFai, exec::kNoLabel}};
      auto heads = [&](std::size_t base, std::size_t block) {
        for (std::size_t k = base; k < std::min(r, base + block); ++k) {
          expected.push_back({exec::ObjKind::kCas, idx[k]});
        }
      };
      auto versions = [&](std::size_t base, std::size_t block) {
        for (std::size_t k = base; k < std::min(r, base + block); ++k) {
          expected.push_back({exec::ObjKind::kCas, exec::kNoLabel});
        }
      };
      if (use_hp) {
        for (std::size_t k = 0; k < r; ++k) {
          heads(k, 1);
          versions(k, 1);
        }
      } else {
        heads(0, kBlock);
        for (std::size_t base = 0; base < r; base += kBlock) {
          heads(base + kBlock, kBlock);
          versions(base, kBlock);
        }
      }
      const auto& log = logger.accesses();
      ASSERT_EQ(log.size(), expected.size())
          << "hp=" << use_hp << " r=" << r;
      for (std::size_t s = 0; s < log.size(); ++s) {
        EXPECT_EQ(log[s].kind, expected[s].kind)
            << "hp=" << use_hp << " r=" << r << " step " << s;
        EXPECT_EQ(log[s].label, expected[s].label)
            << "hp=" << use_hp << " r=" << r << " step " << s;
      }
    }
  }
}

// Per-thread epochs are strictly increasing (each scan buys a fresh
// camera tick), and a value stamped at epoch e stays visible to every
// later scan.
TEST(VersionChainTest, ScanEpochsStrictlyIncrease) {
  exec::ScopedPid pid(0);
  for (const char* spec : kVersionedSpecs) {
    auto snap = registry::make_snapshot(spec, kM, kN);
    std::vector<std::uint64_t> out;
    std::uint64_t prev_epoch = 0;
    bool first = true;
    for (int k = 0; k < 32; ++k) {
      snap->update(static_cast<std::uint32_t>(k % kM), 7000 + k);
      std::uint64_t epoch = snap->scan_versioned(kIdx, out);
      EXPECT_EQ(tls_op_stats().epoch, epoch) << spec;
      if (!first) {
        EXPECT_GT(epoch, prev_epoch) << spec;
      }
      prev_epoch = epoch;
      first = false;
    }
  }
}

// The non-versioned planes must reject scan_versioned loudly (there is no
// camera to linearize against), naming the requested plane in the error.
TEST(VersionChainTest, NonVersionedPlanesRejectScanVersioned) {
  exec::ScopedPid pid(0);
  for (const char* spec : {"fig3_cas", "full_snapshot", "seqlock",
                           "fig1_register", "double_collect"}) {
    auto snap = registry::make_snapshot(spec, kM, kN);
    std::vector<std::uint64_t> out;
    EXPECT_THROW(snap->scan_versioned(kIdx, out), std::logic_error) << spec;
  }
}

// Pool observability: steady-state updates must be RECYCLING nodes (the
// trim feeds the pool through EBR), not silently heap-feeding -- the
// counting allocator above proves "no heap", this proves "yes pool".
TEST(VersionChainTest, TrimmedNodesRecycleThroughThePool) {
  exec::ScopedPid pid(0);
  CasPartialSnapshotVersioned snap(kM, kN);
  warm_up(snap);
  std::uint64_t reused_before = snap.record_pool().reused_count();
  for (int k = 0; k < 512; ++k) {
    snap.update(static_cast<std::uint32_t>(k % kM), 9000 + k);
  }
  EXPECT_GE(snap.record_pool().reused_count(), reused_before + 256)
      << "version nodes are not recycling through the pool";
}

// Same proof on the hazard-pointer plane: the trim retires through the
// hazard domain, whose scans feed the SAME pool banks (the shared slot
// layout in reclaim/slots.h).
TEST(VersionChainTest, TrimmedNodesRecycleThroughThePoolUnderHp) {
  exec::ScopedPid pid(0);
  CasSnapshotOptions options;
  options.use_hp = true;
  CasPartialSnapshotVersioned snap(kM, kN, options);
  warm_up(snap);
  std::uint64_t reused_before = snap.record_pool().reused_count();
  for (int k = 0; k < 512; ++k) {
    snap.update(static_cast<std::uint32_t>(k % kM), 9000 + k);
  }
  EXPECT_GE(snap.record_pool().reused_count(), reused_before + 256)
      << "version nodes are not recycling through the hp-fed pool";
}

}  // namespace
}  // namespace psnap::core
