// Native-thread stress for the dynamic runtime: components grow while
// writer threads update and scanner threads (which register and
// deregister mid-run, exercising pid reuse through exec::ThreadRegistry)
// read overlapping subsets.
//
// Consistency oracle: each component has exactly one writing thread
// (ownership by index residue), writing strictly increasing sequence
// numbers tagged with the component index.  Any scan must therefore see
// (a) values whose component tag matches the requested index -- catches
// wrong-slot reads across segment boundaries -- and (b) per-component
// values that never go backwards across one scanner's sequential scans --
// catches stale reads after growth and torn hand-offs on pid reuse.
// Runs under ASan/UBSan and TSan via the sanitizer presets.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/partial_snapshot.h"
#include "exec/thread_registry.h"
#include "registry/registry.h"
#include "tests/support/registry_params.h"

namespace psnap::core {
namespace {

// value = seq * 4096 + component index (indices stay < 4096 here).
constexpr std::uint64_t kTag = 4096;

class GrowthStressTest
    : public ::testing::TestWithParam<registry::SnapshotVariant> {};

TEST_P(GrowthStressTest, ChurningThreadsAndGrowingComponents) {
  constexpr std::uint32_t kM0 = 4;
  constexpr std::uint32_t kGrowBlock = 8;
  constexpr std::uint32_t kGrows = 8;  // 4 -> 68 components
  constexpr std::uint32_t kWriters = 2;
  constexpr std::uint32_t kScanners = 2;
  constexpr std::uint64_t kScansPerScanner = 2000;
  constexpr std::uint64_t kScansPerLife = 100;  // pid churn cadence

  // max_threads: writers + scanners + grower, with headroom for the
  // moment a scanner's next life overlaps another thread's registration.
  auto snap = test::make_snapshot(GetParam(), kM0, 8);
  std::atomic<bool> stop_writers{false};
  std::atomic<std::uint64_t> scans_done{0};

  // Grower: extends the component space in blocks until the target, then
  // exits; runs concurrently with everything else.
  std::thread grower([&] {
    exec::ThreadHandle pid;
    for (std::uint32_t g = 0; g < kGrows; ++g) {
      std::uint32_t first = snap->add_components(kGrowBlock);
      EXPECT_EQ(first, kM0 + g * kGrowBlock);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  // Writers: component i is owned by writer (i % kWriters); sequence
  // numbers per component increase strictly.
  std::vector<std::thread> writers;
  for (std::uint32_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      exec::ThreadHandle pid;
      std::vector<std::uint64_t> seq(kM0 + kGrows * kGrowBlock, 0);
      while (!stop_writers.load(std::memory_order_acquire)) {
        const std::uint32_t m = snap->num_components();
        for (std::uint32_t i = w; i < m; i += kWriters) {
          snap->update(i, ++seq[i] * kTag + i);
        }
      }
    });
  }

  // Scanners: a new registered life every kScansPerLife scans.  Each
  // scanner remembers the last sequence number it saw per component;
  // single-writer components plus linearizable scans make those
  // observations monotone.
  std::vector<std::thread> scanners;
  for (std::uint32_t s = 0; s < kScanners; ++s) {
    scanners.emplace_back([&, s] {
      Xoshiro256 rng(s + 1);
      std::vector<std::uint64_t> last_seen(kM0 + kGrows * kGrowBlock, 0);
      std::vector<std::uint32_t> subset;
      std::vector<std::uint64_t> values;
      std::uint64_t done = 0;
      while (done < kScansPerScanner) {
        exec::ThreadHandle pid;  // one registered life
        for (std::uint64_t k = 0; k < kScansPerLife; ++k, ++done) {
          const std::uint32_t m = snap->num_components();
          subset.clear();
          for (int j = 0; j < 4; ++j) {
            std::uint32_t i =
                static_cast<std::uint32_t>(rng.next_below(m));
            if (std::find(subset.begin(), subset.end(), i) == subset.end())
              subset.push_back(i);
          }
          snap->scan(subset, values);
          for (std::size_t j = 0; j < subset.size(); ++j) {
            if (values[j] == 0) continue;  // not yet written
            ASSERT_EQ(values[j] % kTag, subset[j])
                << "component tag mismatch (wrong-slot read)";
            std::uint64_t seq = values[j] / kTag;
            ASSERT_GE(seq, last_seen[subset[j]])
                << "scan went backwards on component " << subset[j];
            last_seen[subset[j]] = seq;
          }
        }
      }
      scans_done.fetch_add(done);
    });
  }

  grower.join();
  for (auto& t : scanners) t.join();
  stop_writers.store(true, std::memory_order_release);
  for (auto& t : writers) t.join();

  EXPECT_EQ(scans_done.load(), kScanners * kScansPerScanner);
  EXPECT_EQ(snap->num_components(), kM0 + kGrows * kGrowBlock);

  // Quiescent spot-check: the final state is readable across the whole
  // grown range and carries the right tags.
  exec::ThreadHandle pid;
  auto all = snap->scan_all();
  ASSERT_EQ(all.size(), kM0 + kGrows * kGrowBlock);
  for (std::uint32_t i = 0; i < all.size(); ++i) {
    if (all[i] != 0) {
      EXPECT_EQ(all[i] % kTag, i);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WaitFreeImplementations, GrowthStressTest,
    ::testing::ValuesIn(test::snapshot_impls(
        [](const registry::SnapshotVariant& v) { return v.is_wait_free; })),
    test::snapshot_param_name);

}  // namespace
}  // namespace psnap::core
