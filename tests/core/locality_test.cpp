// Locality and wait-freedom: the structural properties Theorems 1 and 3
// promise, asserted directly.
//
//  * Access-set tests: a partial scan must never touch a component register
//    outside its argument set (every R[i] carries its component index as a
//    label; the access logger records which labels each operation hit).
//  * Step-bound tests: scan step counts must not depend on m, and must stay
//    within the theorems' collect bounds even under contention.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "baseline/full_snapshot.h"
#include "core/cas_psnap.h"
#include "core/growth.h"
#include "core/op_stats.h"
#include "core/register_psnap.h"
#include "exec/exec.h"
#include "registry/registry.h"
#include "runtime/explore.h"
#include "runtime/sim_scheduler.h"

namespace psnap::core {
namespace {

std::set<std::uint64_t> labels_touched(const exec::RecordingLogger& logger) {
  std::set<std::uint64_t> out;
  for (const auto& access : logger.accesses()) {
    if (access.label != exec::kNoLabel) out.insert(access.label);
  }
  return out;
}

TEST(Locality, Fig3ScanTouchesOnlyItsComponents) {
  CasPartialSnapshot snap(64, 2);
  exec::ScopedPid pid(0);
  exec::RecordingLogger logger;
  std::vector<std::uint64_t> out;
  {
    exec::ScopedLogger guard(&logger);
    snap.scan(std::vector<std::uint32_t>{3, 17, 40}, out);
  }
  EXPECT_EQ(labels_touched(logger),
            (std::set<std::uint64_t>{3, 17, 40}));
}

TEST(Locality, Fig1ScanTouchesOnlyItsComponents) {
  RegisterPartialSnapshot snap(64, 2);
  exec::ScopedPid pid(0);
  exec::RecordingLogger logger;
  std::vector<std::uint64_t> out;
  {
    exec::ScopedLogger guard(&logger);
    snap.scan(std::vector<std::uint32_t>{5, 60}, out);
  }
  EXPECT_EQ(labels_touched(logger), (std::set<std::uint64_t>{5, 60}));
}

TEST(Locality, FullSnapshotScanTouchesEverything) {
  // The baseline's defining non-locality: even a 1-component scan reads
  // all m registers.
  baseline::FullSnapshot snap(32, 2);
  exec::ScopedPid pid(0);
  exec::RecordingLogger logger;
  std::vector<std::uint64_t> out;
  {
    exec::ScopedLogger guard(&logger);
    snap.scan(std::vector<std::uint32_t>{7}, out);
  }
  EXPECT_EQ(labels_touched(logger).size(), 32u);
}

TEST(Locality, Fig3UpdateTouchesOnlyItsComponentWhenNoScanners) {
  CasPartialSnapshot snap(64, 2);
  exec::ScopedPid pid(0);
  exec::RecordingLogger logger;
  {
    exec::ScopedLogger guard(&logger);
    snap.update(9, 1);
  }
  EXPECT_EQ(labels_touched(logger), (std::set<std::uint64_t>{9}));
}

TEST(Locality, Fig3ScanStepsIndependentOfM) {
  // Same r, wildly different m: uncontended scan step counts must match
  // exactly.  This is the paper's core claim (a *local* implementation).
  std::uint64_t steps_small = 0, steps_large = 0;
  {
    CasPartialSnapshot snap(8, 2);
    exec::ScopedPid pid(0);
    std::vector<std::uint64_t> out;
    exec::ctx().steps.reset();
    snap.scan(std::vector<std::uint32_t>{1, 2, 5}, out);
    steps_small = exec::ctx().steps.total;
  }
  {
    CasPartialSnapshot snap(4096, 2);
    exec::ScopedPid pid(0);
    std::vector<std::uint64_t> out;
    exec::ctx().steps.reset();
    snap.scan(std::vector<std::uint32_t>{1, 2, 5}, out);
    steps_large = exec::ctx().steps.total;
  }
  EXPECT_EQ(steps_small, steps_large);
}

TEST(Locality, Fig3QuiescentCollectsAreInOrderPassesAcrossReadBlocks) {
  // The collect loads its heads a block (kReadBlock) at a time before
  // dereferencing them under EBR, and one validated head at a time under
  // hp.  At r below, at, one past and well past a block, a quiescent scan
  // must still be exactly two collects, each one counted load per
  // canonical index in index order, on every reclamation plane, shard
  // count and value plane.  The steps outside the two collects must not
  // depend on r or on the plane.  The stride spreads the wider scans over
  // several segments, so the four-shard cell pins more than one shard.
  constexpr std::size_t kBlock = CasPartialSnapshot::kReadBlock;
  constexpr std::uint32_t kStride = 97;
  constexpr std::uint32_t kM = 4 * kComponentSegmentSize;
  constexpr std::size_t kScanSizes[] = {1, kBlock, kBlock + 1, 2 * kBlock + 8};
  static_assert((2 * kBlock + 7) * kStride + 2 < kM);
  static_assert((kBlock - 1) * kStride + 2 >= kComponentSegmentSize);
  const char* const kSpecs[] = {"fig3_cas", "fig3_cas:reclaim=hp",
                                "fig3_cas:shards=4", "fig3_cas:value=blob",
                                "fig3_cas:value=blob,reclaim=hp"};
  std::optional<std::uint64_t> overhead;
  for (const char* spec : kSpecs) {
    for (std::size_t r : kScanSizes) {
      auto snap = registry::make_snapshot(spec, kM, 2);
      exec::ScopedPid pid(0);
      std::vector<std::uint32_t> canonical(r);
      for (std::size_t k = 0; k < r; ++k) {
        canonical[k] = static_cast<std::uint32_t>(kStride * k + 2);
        snap->update(canonical[k], canonical[k] + 1);
      }
      // Requested in reverse: the collects must still walk canonical order.
      const std::vector<std::uint32_t> requested(canonical.rbegin(),
                                                 canonical.rend());
      exec::RecordingLogger logger;
      std::vector<std::uint64_t> out;
      exec::ctx().steps.reset();
      {
        exec::ScopedLogger guard(&logger);
        snap->scan(requested, out);
      }
      const std::uint64_t steps = exec::ctx().steps.total;
      EXPECT_EQ(tls_op_stats().collects, 2u) << spec << " r=" << r;
      EXPECT_FALSE(tls_op_stats().borrowed) << spec << " r=" << r;

      std::vector<std::uint64_t> component_reads;
      for (const auto& access : logger.accesses()) {
        if (access.label != exec::kNoLabel) {
          component_reads.push_back(access.label);
        }
      }
      std::vector<std::uint64_t> two_passes(canonical.begin(),
                                            canonical.end());
      two_passes.insert(two_passes.end(), canonical.begin(), canonical.end());
      EXPECT_EQ(component_reads, two_passes) << spec << " r=" << r;
      EXPECT_EQ(logger.accesses().size(), steps) << spec << " r=" << r;
      if (!overhead) overhead = steps - 2 * r;
      EXPECT_EQ(steps - 2 * r, *overhead) << spec << " r=" << r;

      ASSERT_EQ(out.size(), r) << spec;
      for (std::size_t k = 0; k < r; ++k) {
        EXPECT_EQ(out[k], requested[k] + 1u)
            << spec << " r=" << r << " k=" << k;
      }
    }
  }
}

TEST(Locality, FullSnapshotScanStepsGrowWithM) {
  auto steps_for = [](std::uint32_t m) {
    baseline::FullSnapshot snap(m, 2);
    exec::ScopedPid pid(0);
    std::vector<std::uint64_t> out;
    exec::ctx().steps.reset();
    snap.scan(std::vector<std::uint32_t>{0}, out);
    return exec::ctx().steps.total;
  };
  EXPECT_GE(steps_for(256), 8 * steps_for(16));
}

TEST(WaitFreedom, Fig3UncontendedScanCollectBound) {
  // Theorem 3: at most 2r+1 collects; uncontended it is exactly 2.
  CasPartialSnapshot snap(16, 2);
  exec::ScopedPid pid(0);
  std::vector<std::uint64_t> out;
  snap.scan(std::vector<std::uint32_t>{1, 2, 3, 4}, out);
  EXPECT_EQ(tls_op_stats().collects, 2u);
  EXPECT_FALSE(tls_op_stats().borrowed);
}

TEST(WaitFreedom, Fig3ContendedScanWithinTheorem3Bound) {
  // r = 2: every scan must finish within 2r+1 = 5 collects no matter how
  // hard the updaters hammer the scanned components.  (The implementation
  // itself asserts the bound; this test also observes it and drives real
  // contention through it.)
  CasPartialSnapshot snap(4, 6);
  constexpr std::uint32_t kUpdaters = 4;
  std::atomic<bool> stop{false};
  std::vector<std::thread> updaters;
  for (std::uint32_t u = 0; u < kUpdaters; ++u) {
    updaters.emplace_back([&, u] {
      exec::ScopedPid pid(u);
      std::uint64_t k = 0;
      while (!stop) {
        snap.update(u % 2, ++k);  // components 0 and 1 churn constantly
      }
    });
  }
  {
    exec::ScopedPid pid(5);
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 3000; ++i) {
      snap.scan(std::vector<std::uint32_t>{0, 1}, out);
      ASSERT_LE(tls_op_stats().collects, 5u);
    }
  }
  stop = true;
  for (auto& t : updaters) t.join();
}

TEST(WaitFreedom, Fig1ContendedScanBoundedByContention) {
  // Theorem 1: O((Cu+1) * r) -- with n processes the implementation
  // asserts collects <= 2n+3 internally; drive it hard and observe
  // everything completes.
  RegisterPartialSnapshot snap(4, 6);
  constexpr std::uint32_t kUpdaters = 4;
  std::atomic<bool> stop{false};
  std::vector<std::thread> updaters;
  for (std::uint32_t u = 0; u < kUpdaters; ++u) {
    updaters.emplace_back([&, u] {
      exec::ScopedPid pid(u);
      std::uint64_t k = 0;
      while (!stop) snap.update(u % 2, ++k);
    });
  }
  {
    exec::ScopedPid pid(5);
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 3000; ++i) {
      snap.scan(std::vector<std::uint32_t>{0, 1}, out);
      ASSERT_LE(tls_op_stats().collects, 2u * 6 + 3);
    }
  }
  stop = true;
  for (auto& t : updaters) t.join();
}

TEST(WaitFreedom, Fig3UpdateEmbeddedScanCoversAnnouncedSets) {
  // An update's embedded scan argument set is the union of announced scan
  // sets -- never all of m.  With one scanner announcing {2,3}, a
  // concurrent update must read at most those two components (plus its own
  // target for the CAS).
  CasPartialSnapshot snap(128, 3);
  std::atomic<bool> scanner_in{false};
  std::atomic<bool> done{false};
  std::thread scanner([&] {
    exec::ScopedPid pid(0);
    std::vector<std::uint64_t> out;
    while (!done) {
      scanner_in = true;
      snap.scan(std::vector<std::uint32_t>{2, 3}, out);
    }
  });
  while (!scanner_in) std::this_thread::yield();
  {
    exec::ScopedPid pid(1);
    exec::RecordingLogger logger;
    {
      exec::ScopedLogger guard(&logger);
      snap.update(100, 1);
    }
    auto touched = labels_touched(logger);
    EXPECT_TRUE(touched.count(100));
    for (std::uint64_t label : touched) {
      EXPECT_TRUE(label == 100 || label == 2 || label == 3)
          << "update touched unrelated component " << label;
    }
  }
  done = true;
  scanner.join();
}

TEST(OpStatsTest, UpdateRecordsGetSetSize) {
  // An update whose getSet runs while a scanner is joined must report a
  // non-empty getSet.  Driven under the deterministic scheduler so the
  // overlap is produced by step-level interleaving on any host (native
  // threads on a loaded single-core runner can run all updates between
  // two scans and never observe the membership window).
  std::uint64_t max_getset = 0;
  runtime::explore_random(
      [&](std::uint64_t seed) {
        CasPartialSnapshot snap(8, 2);
        runtime::SimScheduler::Options options;
        options.policy = runtime::SimScheduler::Policy::kRandom;
        options.seed = seed;
        runtime::SimScheduler sched(options);
        sched.add_process([&] {
          std::vector<std::uint64_t> out;
          for (int i = 0; i < 4; ++i) {
            snap.scan(std::vector<std::uint32_t>{1}, out);
          }
        });
        sched.add_process([&] {
          for (int i = 0; i < 8; ++i) {
            snap.update(4, 1);
            max_getset = std::max(max_getset, tls_op_stats().getset_size);
          }
        });
        sched.run();
      },
      /*runs=*/50);
  EXPECT_GE(max_getset, 1u);
}

}  // namespace
}  // namespace psnap::core
