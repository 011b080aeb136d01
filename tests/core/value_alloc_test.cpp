// Steady-state INDIRECT (value=blob) operations must not touch the heap.
//
// scan_alloc_test and update_alloc_test prove the direct (u64) plane
// allocation-free; this suite closes the new axis PR 5 opened: the blob
// plane embeds variable-size byte payloads in the pooled records, and
// pooling must keep every one of those buffers' capacity across record
// lives for the steady state to stay clean.  Concretely, after warm-up:
//
//   * update_blob(i, bytes) acquires a recycled record whose payload
//     vector already has the bytes' capacity, re-fills it in place, and
//     publishes; the replaced record returns to the pool with its
//     capacity intact (records pool-recycled through EBR);
//   * the embedded scan's view entries re-fill their per-entry payload
//     buffers in place (resize+assign, never clear+push_back);
//   * scan_blobs copies payloads into the caller's buffer, which also
//     retains element capacity (resize, not clear).
//
// Like its siblings this is its own binary: it replaces the global
// operator new/delete with the shared counting versions.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/cas_psnap.h"
#include "core/op_stats.h"
#include "core/partial_snapshot.h"
#include "core/register_psnap.h"
#include "exec/exec.h"
#include "primitives/value_plane.h"
#include "registry/registry.h"
#include "tests/support/counting_allocator.h"

namespace psnap::core {
namespace {

using test::g_allocations;

constexpr std::uint32_t kM = 64;
constexpr std::uint32_t kN = 4;

// A telemetry-record-shaped payload, deliberately larger than a word.
struct Telemetry {
  std::uint32_t id;
  std::uint64_t timestamp;
  double reading;
};

Telemetry telemetry_for(int k) {
  return Telemetry{static_cast<std::uint32_t>(k % kM),
                   static_cast<std::uint64_t>(1000 + k), k * 0.5};
}

// Runs `updates` round-robin blob updates and returns how many heap
// allocations they performed in total.
std::uint64_t allocations_during_blob_updates(PartialSnapshot& snap,
                                              int updates) {
  std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int k = 0; k < updates; ++k) {
    Telemetry t = telemetry_for(k);
    snap.update_blob(static_cast<std::uint32_t>(k % kM),
                     value::as_bytes_of(t));
  }
  return g_allocations.load(std::memory_order_relaxed) - before;
}

// Drives blob updates (and a few scans, so announcement machinery is
// live) far past every warm-up watermark: pool fill, EBR retired-list
// capacity, ScanContext scratch, per-record payload and view capacity.
void warm_up(PartialSnapshot& snap) {
  std::vector<value::Blob> out;
  const std::vector<std::uint32_t> idx{3, 9, 17, 40};
  for (int round = 0; round < 8; ++round) {
    for (std::uint32_t i = 0; i < kM; ++i) {
      Telemetry t = telemetry_for(static_cast<int>(i));
      snap.update_blob(i, value::as_bytes_of(t));
    }
    snap.scan_blobs(idx, out);
  }
  for (int k = 0; k < 512; ++k) {
    Telemetry t = telemetry_for(k);
    snap.update_blob(static_cast<std::uint32_t>(k % kM),
                     value::as_bytes_of(t));
  }
}

// Every blob-plane construction route -- value=blob on every entry that
// lists it, both runtimes -- must reach an allocation-free indirect-update
// steady state.
TEST(ValueAllocTest, SteadyStateBlobUpdatesAreAllocationFree) {
  exec::ScopedPid pid(0);
  for (const char* spec :
       {"fig1_register:value=blob", "fig3_cas:value=blob",
        "fig1_register_fast:value=blob", "fig3_cas_fast:value=blob"}) {
    auto snap = registry::make_snapshot(spec, kM, kN);
    ASSERT_EQ(snap->value_plane(), "blob") << spec;
    warm_up(*snap);
    EXPECT_EQ(allocations_during_blob_updates(*snap, 512), 0u) << spec;
    // The updates still publish real data.
    std::vector<value::Blob> out;
    const std::vector<std::uint32_t> last{511 % kM};
    snap->scan_blobs(last, out);
    Telemetry t{};
    ASSERT_TRUE(value::from_bytes(out[0], t)) << spec;
    EXPECT_EQ(t.timestamp, 1000u + 511) << spec;
  }
}

// Logical-u64 updates on the blob plane route through the same pooled
// payloads (8-byte encodings) and must be just as clean -- this is the
// path every registry-driven harness drives.
TEST(ValueAllocTest, SteadyStateU64UpdatesOnBlobPlaneAreAllocationFree) {
  exec::ScopedPid pid(0);
  for (const char* spec :
       {"fig1_register:value=blob", "fig3_cas:value=blob"}) {
    auto snap = registry::make_snapshot(spec, kM, kN);
    warm_up(*snap);
    std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int k = 0; k < 512; ++k) {
      snap->update(static_cast<std::uint32_t>(k % kM), 5000 + k);
    }
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u)
        << spec;
    EXPECT_EQ(snap->scan({static_cast<std::uint32_t>(511 % kM)}),
              (std::vector<std::uint64_t>{5000 + 511}))
        << spec;
  }
}

// Shape-stable blob scans: the collect buffers, view-entry payloads, and
// the caller's result blobs all reach capacity and stop allocating.
TEST(ValueAllocTest, SteadyStateBlobScansAreAllocationFree) {
  exec::ScopedPid pid(0);
  for (const char* spec :
       {"fig1_register:value=blob", "fig3_cas:value=blob"}) {
    auto snap = registry::make_snapshot(spec, kM, kN);
    warm_up(*snap);
    std::vector<value::Blob> out;
    const std::vector<std::uint32_t> idx{3, 9, 17, 40};
    for (int k = 0; k < 64; ++k) snap->scan_blobs(idx, out);
    std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int k = 0; k < 256; ++k) snap->scan_blobs(idx, out);
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u)
        << spec;
  }
}

// The helping path: with a scanner announced AND active, every blob
// update's getSet returns it and the embedded scan collects the announced
// set -- so the record's view carries real blob payloads.  That whole
// machinery must also be allocation-free in steady state, and the record
// pool must be demonstrably recycling (not silently heap-feeding).
template <class Snap>
void run_helping_blob_update_test(Snap& snap) {
  {
    exec::ScopedPid scanner(1);
    std::vector<value::Blob> out;
    const std::vector<std::uint32_t> idx{3, 9, 17, 40};
    snap.scan_blobs(idx, out);
    snap.active_set().join();
  }
  {
    exec::ScopedPid updater(0);
    warm_up(snap);
    std::uint64_t reused_before = snap.record_pool().reused_count();
    EXPECT_EQ(allocations_during_blob_updates(snap, 512), 0u);
    EXPECT_GT(tls_op_stats().getset_size, 0u)
        << "helping path was not exercised";
    EXPECT_GE(snap.record_pool().reused_count(), reused_before + 256)
        << "records are not recycling through the pool";
  }
  {
    exec::ScopedPid scanner(1);
    snap.active_set().leave();
  }
}

TEST(ValueAllocHelpingTest, CasSnapshotBlobHelpingUpdatesAreAllocationFree) {
  CasPartialSnapshotBlob snap(kM, kN);
  run_helping_blob_update_test(snap);
}

TEST(ValueAllocHelpingTest,
     CasSnapshotBlobFastHelpingUpdatesAreAllocationFree) {
  CasPartialSnapshotBlobFast snap(kM, kN);
  run_helping_blob_update_test(snap);
}

TEST(ValueAllocHelpingTest,
     RegisterSnapshotBlobHelpingUpdatesAreAllocationFree) {
  RegisterPartialSnapshotBlob snap(kM, kN);
  run_helping_blob_update_test(snap);
}

TEST(ValueAllocHelpingTest,
     RegisterSnapshotBlobFastHelpingUpdatesAreAllocationFree) {
  RegisterPartialSnapshotBlobFast snap(kM, kN);
  run_helping_blob_update_test(snap);
}

// Growth: after add_components, blob updates across the enlarged range
// must return to the allocation-free steady state (fresh initial records,
// segment installs, and first-lap pool flow are the one-time warm-up).
TEST(ValueAllocTestExtras, GrowthKeepsSteadyStateBlobUpdatesAllocationFree) {
  exec::ScopedPid pid(0);
  for (const char* spec :
       {"fig1_register:value=blob", "fig3_cas:value=blob"}) {
    auto snap = registry::make_snapshot(spec, kM, kN);
    warm_up(*snap);
    std::uint32_t first = snap->add_components(16);
    EXPECT_EQ(first, kM) << spec;
    const std::uint32_t grown = kM + 16;
    for (int k = 0; k < 1024; ++k) {
      Telemetry t = telemetry_for(k);
      snap->update_blob(static_cast<std::uint32_t>(k % grown),
                        value::as_bytes_of(t));
    }
    std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int k = 0; k < 512; ++k) {
      Telemetry t = telemetry_for(k);
      snap->update_blob(static_cast<std::uint32_t>(k % grown),
                        value::as_bytes_of(t));
    }
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u)
        << spec;
  }
}

// Payload-size changes are a capacity event, not a leak: growing the
// payload re-fills pooled buffers (one-time regrowth), after which the
// larger shape is steady-state clean again.
TEST(ValueAllocTestExtras, PayloadGrowthReachesANewSteadyState) {
  exec::ScopedPid pid(0);
  auto snap = registry::make_snapshot("fig3_cas:value=blob", kM, kN);
  warm_up(*snap);
  // Switch every component to a 4x larger payload; let the bigger shape
  // flow through the pool once.
  std::vector<std::byte> big(4 * sizeof(Telemetry), std::byte{0x5a});
  for (int k = 0; k < 1024; ++k) {
    snap->update_blob(static_cast<std::uint32_t>(k % kM),
                      std::span<const std::byte>(big));
  }
  std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int k = 0; k < 512; ++k) {
    snap->update_blob(static_cast<std::uint32_t>(k % kM),
                      std::span<const std::byte>(big));
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  std::vector<value::Blob> out;
  const std::vector<std::uint32_t> idx{0};
  snap->scan_blobs(idx, out);
  EXPECT_EQ(out[0].size(), big.size());
  EXPECT_EQ(std::memcmp(out[0].data(), big.data(), big.size()), 0);
}

}  // namespace
}  // namespace psnap::core
