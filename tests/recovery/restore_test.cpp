// The restore() contract: a full frame rebuilds a registry-spec'd object
// whose observable state (plane, component count, growth watermark,
// payloads) matches the consistent scan that was checkpointed -- across
// value planes, across growth, and for checkpoints taken while a grower
// was crashed mid-add_components at every step (the satellite's
// crash-during-growth suite, driven through runtime::FaultPlan).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <vector>

#include "exec/capacity.h"
#include "exec/exec.h"
#include "exec/thread_registry.h"
#include "persist/checkpoint.h"
#include "recovery/checkpointer.h"
#include "recovery/restore.h"
#include "registry/registry.h"
#include "runtime/fault_plan.h"
#include "runtime/sim_scheduler.h"
#include "tests/support/registry_params.h"

namespace psnap::recovery {
namespace {

namespace fs = std::filesystem;
using persist::CheckpointData;
using persist::CheckpointLoader;
using persist::CheckpointWriter;
using runtime::FaultPlan;
using runtime::SimScheduler;

struct TempDir {
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "psnap-rest-XXXXXX").string();
    path = ::mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

// Checkpoint `snap` through the full disk pipeline (capture -> commit ->
// load) and return the loaded frame.
CheckpointData disk_round_trip(core::PartialSnapshot& snap,
                               const std::string& spec, std::uint32_t m0,
                               std::uint32_t max_threads) {
  TempDir dir;
  CheckpointWriter writer(dir.path);
  Checkpointer::Options options;
  options.impl_spec = spec;
  options.initial_m = m0;
  options.max_threads = max_threads;
  Checkpointer ck(snap, writer, options);
  ck.checkpoint_now();
  auto loaded = CheckpointLoader(dir.path).load_newest();
  EXPECT_TRUE(loaded.has_value());
  return *loaded;
}

TEST(Restore, RoundTripAcrossSpecs) {
  const char* specs[] = {
      "fig1_register", "fig3_cas",        "fig3_cas:value=blob",
      "fig3_cas:value=versioned",         "fig3_cas:reclaim=hp",
      "full_snapshot", "double_collect",  "seqlock",
      "seqlock:value=blob",               "lock",
  };
  exec::ThreadHandle pid;
  for (const char* spec : specs) {
    SCOPED_TRACE(spec);
    auto snap = registry::make_snapshot(spec, 6, 4);
    for (std::uint32_t i = 0; i < 6; ++i) snap->update(i, 100 + i * 7);

    CheckpointData frame = disk_round_trip(*snap, spec, 6, 4);
    auto restored = restore(frame);

    EXPECT_EQ(restored->value_plane(), snap->value_plane());
    EXPECT_EQ(restored->num_components(), 6u);
    EXPECT_EQ(restored->scan_all(), snap->scan_all());
  }
}

TEST(Restore, BlobPayloadsSurvive) {
  exec::ThreadHandle pid;
  const std::string spec = "fig3_cas:value=blob";
  auto snap = registry::make_snapshot(spec, 3, 4);
  std::vector<std::byte> long_payload(300, std::byte{0x5A});
  snap->update_blob(0, long_payload);
  snap->update_blob(1, {});  // empty payload
  snap->update(2, 77);       // logical-u64 8-byte payload

  CheckpointData frame = disk_round_trip(*snap, spec, 3, 4);
  auto restored = restore(frame);

  std::vector<value::Blob> expect, got;
  snap->scan_blobs(std::vector<std::uint32_t>{0, 1, 2}, expect);
  restored->scan_blobs(std::vector<std::uint32_t>{0, 1, 2}, got);
  EXPECT_EQ(got, expect);
}

TEST(Restore, BuildsAtTheGrownWatermark) {
  exec::ThreadHandle pid;
  const std::string spec = "fig3_cas";
  auto snap = registry::make_snapshot(spec, 4, 4);
  std::uint32_t first = snap->add_components(4);
  ASSERT_EQ(first, 4u);
  for (std::uint32_t i = 0; i < 8; ++i) snap->update(i, i + 1);

  CheckpointData frame = disk_round_trip(*snap, spec, 4, 4);
  EXPECT_EQ(frame.initial_m, 4u);
  EXPECT_EQ(frame.num_components, 8u);

  // Built at the frame's count rather than at initial_m and regrown.
  auto restored = restore(frame);
  EXPECT_EQ(restored->num_components(), 8u);
  EXPECT_EQ(restored->scan_all(), snap->scan_all());

  // The grow-only lifecycle continues from the restored watermark.
  EXPECT_EQ(restored->add_components(2), 8u);
  EXPECT_EQ(restored->num_components(), 10u);
}

TEST(Restore, PartialFrameRejected) {
  exec::ThreadHandle pid;
  auto snap = registry::make_snapshot("fig3_cas", 4, 4);
  TempDir dir;
  CheckpointWriter writer(dir.path);
  Checkpointer::Options options;
  options.impl_spec = "fig3_cas";
  options.initial_m = 4;
  options.max_threads = 4;
  Checkpointer ck(*snap, writer, options);
  CheckpointData frame;
  std::vector<std::uint32_t> indices{0, 2};
  ck.capture(indices, frame);
  EXPECT_THROW(restore(frame), std::invalid_argument);
}

TEST(Restore, SucceedsWithoutPid) {
  CheckpointData frame;
  frame.impl_spec = "fig3_cas";
  frame.initial_m = 2;
  frame.num_components = 3;
  frame.max_threads = 2;
  frame.values = {1, 2, 3};
  ASSERT_EQ(exec::ctx().pid, exec::kInvalidPid);
  auto restored = restore(frame);
  ASSERT_EQ(exec::ctx().pid, exec::kInvalidPid);

  exec::ThreadHandle pid;  // reading the result back is an ordinary scan
  EXPECT_EQ(restored->num_components(), 3u);
  EXPECT_EQ(restored->scan_all(), frame.values);
}

TEST(Restore, PlaneMismatchRejected) {
  exec::ThreadHandle pid;
  CheckpointData frame;
  frame.impl_spec = "fig3_cas";  // builds the u64 plane...
  frame.value_plane = "blob";    // ...but the frame holds blobs
  frame.initial_m = 2;
  frame.num_components = 2;
  frame.max_threads = 2;
  frame.blobs = {value::Blob{}, value::Blob{}};
  EXPECT_THROW(restore(frame), std::invalid_argument);
}

TEST(Restore, ShrunkenFrameRejected) {
  exec::ThreadHandle pid;
  CheckpointData frame;
  frame.impl_spec = "fig3_cas";
  frame.initial_m = 4;
  frame.num_components = 2;  // frame claims fewer than constructed
  frame.max_threads = 2;
  frame.values = {1, 2};
  EXPECT_THROW(restore(frame), std::invalid_argument);
  // The same shrink spelled through the spec's m0= override.
  frame.initial_m = 2;
  frame.impl_spec = "fig3_cas:m0=4";
  EXPECT_THROW(restore(frame), std::invalid_argument);
}

// Checkpointer::Options leaves initial_m at 0, so frames record it as 0:
// initial_m only bounds the spec's m0=, and the frame's count builds the
// object.
TEST(Restore, FrameWithZeroInitialMRestores) {
  exec::ThreadHandle pid;
  const std::string spec = "fig3_cas";
  auto snap = registry::make_snapshot(spec, 2, 4);
  snap->update(0, 5);
  snap->update(1, 6);

  TempDir dir;
  CheckpointWriter writer(dir.path);
  Checkpointer::Options options;
  options.impl_spec = spec;
  Checkpointer ck(*snap, writer, options);
  ck.checkpoint_now();
  auto frame = CheckpointLoader(dir.path).load_newest();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->initial_m, 0u);

  auto restored = restore(*frame);
  EXPECT_EQ(restored->num_components(), 2u);
  EXPECT_EQ(restored->scan_all(), (std::vector<std::uint64_t>{5, 6}));
}

TEST(Restore, FrameWithNoComponentsRejected) {
  CheckpointData frame;
  frame.impl_spec = "fig3_cas";
  frame.max_threads = 2;
  EXPECT_THROW(restore(frame), std::invalid_argument);
}

TEST(Restore, PayloadCountMismatchRejected) {
  CheckpointData frame;
  frame.impl_spec = "fig3_cas";
  frame.num_components = 3;
  frame.max_threads = 2;
  frame.values = {1, 2};
  EXPECT_THROW(restore(frame), std::invalid_argument);
}

// A frame's header is input from disk: a max_threads no implementation
// can hold must fail as a bad frame, not abort the restoring process.
TEST(Restore, FrameWithTooManyThreadsRejected) {
  exec::ThreadHandle pid;
  const std::string spec = "fig3_cas";
  auto snap = registry::make_snapshot(spec, 3, 4);
  snap->update(1, 9);
  CheckpointData frame =
      disk_round_trip(*snap, spec, 3, exec::kMaxPidCapacity + 1);
  ASSERT_TRUE(frame.is_full());
  ASSERT_EQ(frame.max_threads, exec::kMaxPidCapacity + 1);
  EXPECT_THROW(restore(frame), std::invalid_argument);
  // The same frame at the capacity itself restores.
  frame.max_threads = exec::kMaxPidCapacity;
  EXPECT_EQ(restore(frame)->scan_all(), (std::vector<std::uint64_t>{0, 9, 0}));
}

// A frame written by an older build can name an option that is now
// retired (Figure 2's ablations were once Figure 3 options too): it fails
// as a bad frame naming the option, not with an abort.
TEST(Restore, FrameNamingARetiredOptionRejected) {
  exec::ThreadHandle pid;
  auto snap = registry::make_snapshot("fig3_cas", 3, 4);
  snap->update(1, 9);
  CheckpointData frame =
      disk_round_trip(*snap, "fig3_cas:coalesce=false", 3, 4);
  ASSERT_TRUE(frame.is_full());
  try {
    restore(frame);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'coalesce'"), std::string::npos)
        << e.what();
  }
  frame.impl_spec = "fig3_cas";
  EXPECT_EQ(restore(frame)->scan_all(), (std::vector<std::uint64_t>{0, 9, 0}));
}

// ---- Crash during add_components (satellite) ----
//
// A grower is crashed at EVERY base-object step of an
// add_components+update sequence while a survivor keeps updating; the
// checkpoint taken afterwards must always serialize, survive the disk
// round trip, and restore to an object whose component count and values
// are consistent -- the count is whatever the crashed grow left published
// (old or new, never torn), every restored value matches the checkpoint
// scan, and growth continues on the restored object.
class CrashDuringGrowthTest
    : public ::testing::TestWithParam<registry::SnapshotVariant> {};

TEST_P(CrashDuringGrowthTest, CheckpointAndRestoreStayConsistent) {
  constexpr std::uint32_t kM0 = 2;
  constexpr std::uint32_t kGrow = 2;
  for (const FaultPlan& plan : FaultPlan::sweep(/*pid=*/0, 1, 28)) {
    auto snap = test::make_snapshot(GetParam(), kM0, 3);
    SimScheduler sched(plan.apply());
    sched.add_process([&] {  // the grower, crashed mid-flight
      std::uint32_t first = snap->add_components(kGrow);
      snap->update(first, 1000);
    });
    sched.add_process([&] {  // survivor traffic
      std::vector<std::uint64_t> out;
      snap->update(0, 11);
      snap->scan(std::vector<std::uint32_t>{0, 1}, out);
      snap->update(1, 22);
    });
    sched.run();

    // The service side after the dust settles: checkpoint what the
    // object now holds, round-trip it, restore, compare.
    exec::ScopedPid pid(2);
    TempDir dir;
    CheckpointWriter::Options wopts;
    wopts.sync = false;  // dozens of crash points per impl
    CheckpointWriter writer(dir.path, wopts);
    Checkpointer::Options options;
    options.impl_spec = GetParam().spec;
    options.initial_m = kM0;
    options.max_threads = 3;
    Checkpointer ck(*snap, writer, options);
    ck.checkpoint_now();

    auto frame = CheckpointLoader(dir.path).load_newest();
    ASSERT_TRUE(frame.has_value());
    ASSERT_TRUE(frame->num_components == kM0 ||
                frame->num_components == kM0 + kGrow)
        << "torn component count " << frame->num_components;

    auto restored = restore(*frame);
    EXPECT_EQ(restored->num_components(), frame->num_components);
    if (frame->value_plane == "blob") {
      std::vector<std::uint32_t> idx(frame->num_components);
      std::iota(idx.begin(), idx.end(), 0u);
      std::vector<value::Blob> got;
      restored->scan_blobs(idx, got);
      EXPECT_EQ(got, frame->blobs);
    } else {
      EXPECT_EQ(restored->scan_all(), frame->values);
    }

    // Growth continues cleanly on the restored object regardless of where
    // the original grower died.
    std::uint32_t next = restored->add_components(1);
    EXPECT_EQ(next, frame->num_components);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WaitFreeImpls, CrashDuringGrowthTest,
    ::testing::ValuesIn(test::snapshot_impls(
        [](const registry::SnapshotVariant& variant) {
          return variant.is_wait_free && variant.sim_safe;
        })),
    test::snapshot_param_name);

}  // namespace
}  // namespace psnap::recovery
