// Native-thread stress: dedicated writers per component with increasing
// values, concurrent scanners, the sound real-time checker as oracle.
// Catches torn scans, lost updates and memory bugs at real concurrency
// levels; the exact linearizability checking happens in snapshot_sim_test.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "common/timing.h"
#include "core/partial_snapshot.h"
#include "exec/exec.h"
#include "registry/registry.h"
#include "tests/support/registry_params.h"
#include "verify/realtime_checker.h"

namespace psnap::core {
namespace {

using verify::RealtimeChecker;

class SnapshotStressTest
    : public ::testing::TestWithParam<registry::SnapshotVariant> {};

TEST_P(SnapshotStressTest, DedicatedWritersRealtimeConsistency) {
  constexpr std::uint32_t kComponents = 4;
  constexpr std::uint32_t kScanners = 2;
  constexpr std::uint64_t kWritesPerComponent = 3000;
  constexpr std::uint64_t kScansPerScanner = 3000;

  auto snap =
      test::make_snapshot(GetParam(), kComponents, kComponents + kScanners);
  RealtimeChecker checker(kComponents);
  std::vector<std::vector<RealtimeChecker::ScanObservation>> observations(
      kScanners);

  std::vector<std::thread> threads;
  // One dedicated writer per component, values 1,2,3,...
  for (std::uint32_t c = 0; c < kComponents; ++c) {
    threads.emplace_back([&, c] {
      exec::ScopedPid pid(c);
      for (std::uint64_t k = 1; k <= kWritesPerComponent; ++k) {
        checker.record_write_begin(c, k, now_nanos());
        snap->update(c, k);
        checker.record_write_end(c, k, now_nanos());
      }
    });
  }
  // Scanners over random-ish fixed pairs, recording observations.
  for (std::uint32_t s = 0; s < kScanners; ++s) {
    threads.emplace_back([&, s] {
      exec::ScopedPid pid(kComponents + s);
      std::vector<std::uint32_t> indices{s % kComponents,
                                         (s + 2) % kComponents};
      std::sort(indices.begin(), indices.end());
      std::vector<std::uint64_t> out;
      auto& obs = observations[s];
      obs.reserve(kScansPerScanner);
      for (std::uint64_t i = 0; i < kScansPerScanner; ++i) {
        RealtimeChecker::ScanObservation o;
        o.invoke_nanos = now_nanos();
        snap->scan(indices, out);
        o.respond_nanos = now_nanos();
        o.indices = indices;
        o.values = out;
        obs.push_back(std::move(o));
      }
    });
  }
  for (auto& t : threads) t.join();

  for (auto& obs : observations) {
    auto outcome = checker.check(obs);
    EXPECT_TRUE(outcome.ok) << GetParam().name << ": " << outcome.diagnosis;
  }
}

TEST_P(SnapshotStressTest, PerComponentMonotonicity) {
  // With a single writer per component producing increasing values, any
  // one scanner must observe non-decreasing values per component.
  constexpr std::uint32_t kComponents = 2;
  constexpr std::uint64_t kWrites = 20000;
  auto snap = test::make_snapshot(GetParam(), kComponents, 3);

  std::thread writer([&] {
    exec::ScopedPid pid(0);
    for (std::uint64_t k = 1; k <= kWrites; ++k) snap->update(0, k);
  });
  std::thread scanner([&] {
    exec::ScopedPid pid(2);
    std::vector<std::uint32_t> indices{0, 1};
    std::vector<std::uint64_t> out;
    std::uint64_t last = 0;
    for (int i = 0; i < 5000; ++i) {
      snap->scan(indices, out);
      ASSERT_GE(out[0], last) << GetParam().name;
      ASSERT_LE(out[0], kWrites);
      ASSERT_EQ(out[1], 0u);  // untouched component stays at initial
      last = out[0];
    }
  });
  writer.join();
  scanner.join();
}

INSTANTIATE_TEST_SUITE_P(AllImplementations, SnapshotStressTest,
                         ::testing::ValuesIn(test::snapshot_impls()),
                         test::snapshot_param_name);

}  // namespace
}  // namespace psnap::core
