// The Checkpointer's graceful degradation: StarvationError from a capped
// scan triggers exponential backoff and a retry of the whole scan; the
// retry cap throws CheckpointAbandoned; the periodic run() loop survives
// abandonment.  Plus the satellite's direct unit tests of the
// max_attempts= registry option reaching the capped baselines' throw
// path.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <vector>

#include "baseline/double_collect.h"
#include "exec/thread_registry.h"
#include "persist/checkpoint.h"
#include "recovery/checkpointer.h"
#include "registry/registry.h"

namespace psnap::recovery {
namespace {

namespace fs = std::filesystem;
using persist::CheckpointData;
using persist::CheckpointLoader;
using persist::CheckpointWriter;

struct TempDir {
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "psnap-reco-XXXXXX").string();
    path = ::mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

// Delegates to a real snapshot but throws StarvationError for the first
// `failures` scans -- the deterministic stand-in for a scan losing races
// to a fast writer or a stalled worker.
class FlakySnapshot final : public core::PartialSnapshot {
 public:
  FlakySnapshot(core::PartialSnapshot& inner, std::uint64_t failures)
      : inner_(inner), failures_left_(failures) {}

  std::uint32_t num_components() const override {
    return inner_.num_components();
  }
  std::string_view name() const override { return "flaky"; }
  bool is_wait_free() const override { return false; }
  bool is_local() const override { return inner_.is_local(); }
  std::uint32_t add_components(std::uint32_t count) override {
    return inner_.add_components(count);
  }
  void update(std::uint32_t i, std::uint64_t v) override {
    inner_.update(i, v);
  }
  void scan(std::span<const std::uint32_t> indices,
            std::vector<std::uint64_t>& out, core::ScanContext& ctx) override {
    if (failures_left_ > 0) {
      --failures_left_;
      throw baseline::StarvationError(99);
    }
    inner_.scan(indices, out, ctx);
  }

 private:
  core::PartialSnapshot& inner_;
  std::uint64_t failures_left_;
};

Checkpointer::Options test_options(
    std::vector<std::chrono::microseconds>* sleeps) {
  Checkpointer::Options options;
  options.impl_spec = "fig3_cas";
  options.initial_m = 4;
  options.max_threads = 4;
  options.backoff.max_attempts = 8;
  options.backoff.initial = std::chrono::microseconds(100);
  options.backoff.max = std::chrono::microseconds(800);
  options.backoff.multiplier = 2.0;
  if (sleeps != nullptr) {
    options.sleep = [sleeps](std::chrono::microseconds d) {
      sleeps->push_back(d);
    };
  }
  return options;
}

TEST(Checkpointer, RetriesWithExponentialBackoff) {
  exec::ThreadHandle pid;
  auto inner = registry::make_snapshot("fig3_cas", 4, 4);
  inner->update(0, 42);
  FlakySnapshot flaky(*inner, /*failures=*/5);

  TempDir dir;
  CheckpointWriter writer(dir.path);
  std::vector<std::chrono::microseconds> sleeps;
  Checkpointer ck(flaky, writer, test_options(&sleeps));

  CheckpointData frame;
  ck.capture(frame);

  // 5 starved attempts, each followed by a backoff sleep doubling from
  // 100us and capped at 800us; the 6th attempt succeeds.
  ASSERT_EQ(sleeps.size(), 5u);
  EXPECT_EQ(sleeps[0].count(), 100);
  EXPECT_EQ(sleeps[1].count(), 200);
  EXPECT_EQ(sleeps[2].count(), 400);
  EXPECT_EQ(sleeps[3].count(), 800);
  EXPECT_EQ(sleeps[4].count(), 800);
  EXPECT_EQ(ck.stats().scan_attempts, 6u);
  EXPECT_EQ(ck.stats().starved_scans, 5u);
  EXPECT_EQ(ck.stats().abandoned, 0u);
  EXPECT_EQ(frame.values[0], 42u);
  EXPECT_EQ(frame.num_components, 4u);
  EXPECT_EQ(frame.impl_spec, "fig3_cas");
}

TEST(Checkpointer, RetryCapThrowsCheckpointAbandoned) {
  exec::ThreadHandle pid;
  auto inner = registry::make_snapshot("fig3_cas", 4, 4);
  FlakySnapshot flaky(*inner, /*failures=*/1000);

  TempDir dir;
  CheckpointWriter writer(dir.path);
  std::vector<std::chrono::microseconds> sleeps;
  auto options = test_options(&sleeps);
  options.backoff.max_attempts = 3;
  Checkpointer ck(flaky, writer, options);

  CheckpointData frame;
  try {
    ck.capture(frame);
    FAIL() << "expected CheckpointAbandoned";
  } catch (const CheckpointAbandoned& e) {
    EXPECT_EQ(e.attempts, 3u);
  }
  // No sleep after the final, abandoning attempt.
  EXPECT_EQ(sleeps.size(), 2u);
  EXPECT_EQ(ck.stats().abandoned, 1u);
  EXPECT_EQ(ck.stats().starved_scans, 3u);
}

TEST(Checkpointer, RunLoopSurvivesAbandonment) {
  exec::ThreadHandle pid;
  auto inner = registry::make_snapshot("fig3_cas", 4, 4);
  FlakySnapshot flaky(*inner, /*failures=*/~std::uint64_t{0});

  TempDir dir;
  CheckpointWriter writer(dir.path);
  auto options = test_options(nullptr);
  options.backoff.max_attempts = 2;
  options.sleep = [](std::chrono::microseconds) {
    std::this_thread::sleep_for(std::chrono::microseconds(10));
  };
  Checkpointer ck(flaky, writer, options);

  std::atomic<bool> stop{false};
  std::thread runner([&] {
    exec::ThreadHandle runner_pid;
    ck.run(stop, std::chrono::microseconds(100));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  runner.join();

  EXPECT_GE(ck.stats().abandoned, 1u);
  EXPECT_EQ(ck.stats().frames_committed, 0u);
}

TEST(Checkpointer, CommitsSequencedFrames) {
  exec::ThreadHandle pid;
  auto snap = registry::make_snapshot("fig3_cas", 4, 4);
  snap->update(2, 7);

  TempDir dir;
  CheckpointWriter writer(dir.path);
  Checkpointer ck(*snap, writer, test_options(nullptr));
  ck.set_next_sequence(41);
  ck.checkpoint_now();
  snap->update(2, 8);
  ck.checkpoint_now();
  EXPECT_EQ(ck.next_sequence(), 43u);
  EXPECT_EQ(ck.stats().frames_committed, 2u);

  auto loaded = CheckpointLoader(dir.path).load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 42u);
  EXPECT_EQ(loaded->values[2], 8u);
}

TEST(Checkpointer, PartialCaptureRecordsIndices) {
  exec::ThreadHandle pid;
  auto snap = registry::make_snapshot("fig3_cas", 8, 4);
  snap->update(1, 11);
  snap->update(5, 55);

  TempDir dir;
  CheckpointWriter writer(dir.path);
  Checkpointer ck(*snap, writer, test_options(nullptr));
  CheckpointData frame;
  std::vector<std::uint32_t> indices{1, 5};
  ck.capture(indices, frame);
  EXPECT_FALSE(frame.is_full());
  EXPECT_EQ(frame.indices, indices);
  ASSERT_EQ(frame.values.size(), 2u);
  EXPECT_EQ(frame.values[0], 11u);
  EXPECT_EQ(frame.values[1], 55u);
}

TEST(Checkpointer, CapturesVersionedEpoch) {
  exec::ThreadHandle pid;
  auto snap = registry::make_snapshot("fig3_cas:value=versioned", 4, 4);
  snap->update(0, 1);
  snap->update(0, 2);

  TempDir dir;
  CheckpointWriter writer(dir.path);
  Checkpointer ck(*snap, writer, test_options(nullptr));
  CheckpointData frame;
  ck.capture(frame);
  EXPECT_EQ(frame.value_plane, "versioned");
  EXPECT_GT(frame.epoch, 0u);
  EXPECT_EQ(frame.values[0], 2u);
}

// ---- The max_attempts= registry option (satellite) ----

TEST(MaxAttemptsOption, DoubleCollectThrowDeterministic) {
  // One collect can never produce two identical consecutive collects, so
  // max_attempts=1 starves every scan -- the direct, schedule-free unit
  // test of the retry-cap/throw path the Checkpointer degrades on.
  exec::ThreadHandle pid;
  auto snap = registry::make_snapshot("double_collect:max_attempts=1", 4, 4);
  std::vector<std::uint64_t> out;
  EXPECT_THROW(snap->scan(std::vector<std::uint32_t>{0}, out),
               baseline::StarvationError);
}

TEST(MaxAttemptsOption, ZeroRetriesForeverAndIsTheOnlySpelling) {
  exec::ThreadHandle pid;
  // max_attempts=0 (retry forever): the scan succeeds.
  auto uncapped =
      registry::make_snapshot("double_collect:max_attempts=0", 4, 4);
  std::vector<std::uint64_t> out;
  uncapped->scan(std::vector<std::uint32_t>{0}, out);
  EXPECT_EQ(out[0], 0u);
  // The cap has one option key; anything else is an unknown option.
  EXPECT_THROW(registry::make_snapshot("double_collect:cap=1", 4, 4),
               std::invalid_argument);
}

TEST(MaxAttemptsOption, SeqlockThrowsUnderWriterPressure) {
  // The seqlock's starvation needs a real concurrent writer; a hammering
  // updater makes a max_attempts=1 scan fail fast.
  auto snap = registry::make_snapshot("seqlock:max_attempts=1", 2, 4);
  std::atomic<bool> stop{false};
  std::thread writer_thread([&] {
    exec::ThreadHandle wpid;
    std::uint64_t k = 0;
    while (!stop.load(std::memory_order_acquire)) snap->update(0, ++k);
  });

  exec::ThreadHandle pid;
  std::vector<std::uint64_t> out;
  bool starved = false;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!starved && std::chrono::steady_clock::now() < deadline) {
    try {
      snap->scan(std::vector<std::uint32_t>{0, 1}, out);
    } catch (const baseline::StarvationError&) {
      starved = true;
    }
  }
  stop.store(true);
  writer_thread.join();
  EXPECT_TRUE(starved);
}

TEST(MaxAttemptsOption, GracefulDegradationEndToEnd) {
  // The whole satellite story on a real capped object: a hammering
  // writer starves capped scans, the Checkpointer backs off and retries,
  // and a checkpoint still commits (writer stops => retry succeeds).
  auto snap = registry::make_snapshot("seqlock:max_attempts=2", 2, 4);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> updates{0};
  std::thread writer_thread([&] {
    exec::ThreadHandle wpid;
    std::uint64_t k = 0;
    while (!stop.load(std::memory_order_acquire)) {
      snap->update(0, ++k);
      updates.store(k, std::memory_order_release);
    }
  });

  exec::ThreadHandle pid;
  TempDir dir;
  CheckpointWriter writer(dir.path);
  auto options = test_options(nullptr);
  options.impl_spec = "seqlock:max_attempts=2";
  options.initial_m = 2;
  options.backoff.max_attempts = ~std::uint64_t{0};  // retry until quiet
  options.sleep = [&](std::chrono::microseconds) {
    // The backoff window is where the writer gets stopped: after a few
    // starved attempts the contention source goes away, as it would in a
    // draining service.
    static int backoffs = 0;
    if (++backoffs >= 3) stop.store(true, std::memory_order_release);
  };
  Checkpointer ck(*snap, writer, options);
  ck.checkpoint_now();
  stop.store(true);
  writer_thread.join();

  EXPECT_EQ(ck.stats().frames_committed, 1u);
  auto loaded = CheckpointLoader(dir.path).load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_components, 2u);
}

}  // namespace
}  // namespace psnap::recovery
