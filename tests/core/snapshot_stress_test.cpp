// Native-thread stress: dedicated writers per component with increasing
// values, concurrent scanners, the sound real-time checker as oracle.
// Catches torn scans, lost updates and memory bugs at real concurrency
// levels; the exact linearizability checking happens in snapshot_sim_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <thread>

#include "common/timing.h"
#include "core/cas_psnap.h"
#include "core/op_stats.h"
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

// Dedicated writers and concurrent scanners, judged by the real-time
// checker.  Writer w owns the contiguous range of components/writers
// components starting at w * components/writers -- or, with `interleaved`,
// the components c with c % writers == w -- and sweeps them `sweeps`
// times, writing value k on sweep k; scanner s repeatedly scans
// scan_set(s).
struct RealtimeStress {
  std::uint32_t components;
  std::uint32_t writers;
  std::uint32_t scanners;
  std::uint64_t sweeps;
  std::uint64_t scans_per_scanner;
  std::function<std::vector<std::uint32_t>(std::uint32_t)> scan_set;
  bool interleaved = false;
};

void check_realtime_consistency(const registry::SnapshotVariant& variant,
                                const RealtimeStress& shape) {
  const std::uint32_t range = shape.components / shape.writers;
  auto snap = test::make_snapshot(variant, shape.components,
                                  shape.writers + shape.scanners);
  RealtimeChecker checker(shape.components);
  std::vector<std::vector<RealtimeChecker::ScanObservation>> observations(
      shape.scanners);

  std::vector<std::thread> threads;
  for (std::uint32_t w = 0; w < shape.writers; ++w) {
    threads.emplace_back([&, w] {
      exec::ScopedPid pid(w);
      std::vector<std::uint32_t> owned;
      for (std::uint32_t c = 0; c < shape.components; ++c) {
        const bool mine = shape.interleaved ? c % shape.writers == w
                                            : c / range == w;
        if (mine) owned.push_back(c);
      }
      for (std::uint64_t k = 1; k <= shape.sweeps; ++k) {
        for (std::uint32_t c : owned) {
          checker.record_write_begin(c, k, now_nanos());
          snap->update(c, k);
          checker.record_write_end(c, k, now_nanos());
        }
      }
    });
  }
  for (std::uint32_t s = 0; s < shape.scanners; ++s) {
    threads.emplace_back([&, s] {
      exec::ScopedPid pid(shape.writers + s);
      std::vector<std::uint32_t> indices = shape.scan_set(s);
      std::sort(indices.begin(), indices.end());
      std::vector<std::uint64_t> out;
      auto& obs = observations[s];
      obs.reserve(shape.scans_per_scanner);
      for (std::uint64_t i = 0; i < shape.scans_per_scanner; ++i) {
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
    EXPECT_TRUE(outcome.ok) << variant.name << ": " << outcome.diagnosis;
  }
}

TEST_P(SnapshotStressTest, DedicatedWritersRealtimeConsistency) {
  // One writer per component; scanners over fixed pairs.
  check_realtime_consistency(
      GetParam(), {.components = 4,
                   .writers = 4,
                   .scanners = 2,
                   .sweeps = 3000,
                   .scans_per_scanner = 3000,
                   .scan_set = [](std::uint32_t s) {
                     return std::vector<std::uint32_t>{s % 4, (s + 2) % 4};
                   }});
}

// Scanner s's window over 48 components: the 37 consecutive components
// (mod 48) from 11 * s.
std::vector<std::uint32_t> wide_window(std::uint32_t s) {
  std::vector<std::uint32_t> indices(37);
  for (std::uint32_t k = 0; k < 37; ++k) indices[k] = (11 * s + k) % 48;
  return indices;
}

// Scans wider than the read loops' block (CasPartialSnapshotT::kReadBlock):
// r = 37 spans two full blocks and a partial one, so concurrent updates
// land while a scan is between gathering a block's heads and
// dereferencing them.  Each scanner's window crosses the writers' ranges.
TEST_P(SnapshotStressTest, WideScansAcrossReadBlocksRealtimeConsistency) {
  check_realtime_consistency(GetParam(), {.components = 48,
                                          .writers = 3,
                                          .scanners = 2,
                                          .sweeps = 600,
                                          .scans_per_scanner = 1500,
                                          .scan_set = wide_window});
}

// The versioned plane packs four heads per cache line (CasPartialSnapshotT
// ::HeadSlot).  With writer w owning the components c = w (mod 3), every
// line of four heads has all three writers CASing it while r = 37 scans
// gather and dereference those heads; the collect planes run the same
// shape on their padded heads.
TEST_P(SnapshotStressTest, WritersSharingHeadLinesRealtimeConsistency) {
  check_realtime_consistency(GetParam(), {.components = 48,
                                          .writers = 3,
                                          .scanners = 2,
                                          .sweeps = 400,
                                          .scans_per_scanner = 1000,
                                          .scan_set = wide_window,
                                          .interleaved = true});
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

// Yields the scanner's CPU on every read of a churned component: the
// writers get to run between two collects' loads of the same location
// even on a single core, which is what makes condition-(2) borrows (a
// third distinct record seen in one location) happen reliably.
class YieldOnChurned final : public exec::AccessLogger {
 public:
  explicit YieldOnChurned(std::uint32_t first_churned)
      : first_churned_(first_churned) {}
  void on_access(exec::ObjKind, std::uint64_t label) override {
    if (label != exec::kNoLabel && label >= first_churned_) {
      std::this_thread::yield();
    }
  }

 private:
  std::uint32_t first_churned_;
};

// Figure 3's borrow path past the first read block: the scan covers
// components 0..36 (canonical positions == component indices) and only
// positions >= kReadBlock churn, so every borrow fires after the first
// block was gathered, while later blocks still owe their parity loads.
TEST(SnapshotStressBorrowTest, Fig3BorrowsAfterTheFirstReadBlock) {
  constexpr std::uint32_t kComponents = 40;
  constexpr std::uint32_t kR = 37;
  constexpr std::uint32_t kFirstChurned = CasPartialSnapshot::kReadBlock;
  constexpr std::uint32_t kWriters = 3;
  constexpr std::uint64_t kMaxWrites = 200000;
  constexpr int kMinScans = 300;
  constexpr std::uint64_t kDeadlineNanos = 30'000'000'000;

  CasPartialSnapshot snap(kComponents, kWriters + 1);
  RealtimeChecker checker(kComponents);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (std::uint32_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      exec::ScopedPid pid(w);
      // One churned component per writer, spread over the later blocks.
      const std::uint32_t c = kFirstChurned + 10 * w;
      for (std::uint64_t k = 1; k <= kMaxWrites && !stop; ++k) {
        checker.record_write_begin(c, k, now_nanos());
        snap.update(c, k);
        checker.record_write_end(c, k, now_nanos());
      }
    });
  }

  std::vector<RealtimeChecker::ScanObservation> obs;
  std::uint64_t borrows = 0;
  std::uint64_t max_collects = 0;
  {
    exec::ScopedPid pid(kWriters);
    YieldOnChurned yielder(kFirstChurned);
    exec::ScopedLogger logger(&yielder);
    std::vector<std::uint32_t> indices(kR);
    for (std::uint32_t k = 0; k < kR; ++k) indices[k] = k;
    std::vector<std::uint64_t> out;
    const std::uint64_t deadline = now_nanos() + kDeadlineNanos;
    for (int i = 0; i < kMinScans || (borrows == 0 && now_nanos() < deadline);
         ++i) {
      RealtimeChecker::ScanObservation o;
      o.invoke_nanos = now_nanos();
      snap.scan(indices, out);
      o.respond_nanos = now_nanos();
      max_collects = std::max(max_collects, tls_op_stats().collects);
      if (tls_op_stats().borrowed) ++borrows;
      o.indices = indices;
      o.values = out;
      obs.push_back(std::move(o));
    }
  }
  stop = true;
  for (auto& t : writers) t.join();

  // Theorem 3's bound, per scan.
  EXPECT_LE(max_collects, 2u * kR + 1);
  EXPECT_GT(borrows, 0u) << "no scan borrowed a view in " << obs.size()
                         << " scans";
  auto outcome = checker.check(obs);
  EXPECT_TRUE(outcome.ok) << outcome.diagnosis;
}

INSTANTIATE_TEST_SUITE_P(AllImplementations, SnapshotStressTest,
                         ::testing::ValuesIn(test::snapshot_impls()),
                         test::snapshot_param_name);

}  // namespace
}  // namespace psnap::core
