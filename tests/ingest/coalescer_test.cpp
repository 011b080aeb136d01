// The coalescing ingest front-end (ingest/coalescer.h): flush thresholds,
// last-wins merging inside the window, visibility, and stats.
#include "ingest/coalescer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/partial_snapshot.h"
#include "exec/exec.h"
#include "registry/registry.h"

namespace psnap::ingest {
namespace {

std::unique_ptr<core::PartialSnapshot> make_snap(std::uint32_t m = 8) {
  return registry::make_snapshot("fig3_cas", m, 2);
}

Coalescer::Options opts(std::uint32_t batch, std::uint32_t window) {
  Coalescer::Options options;
  options.batch = batch;
  options.coalesce_window = window;
  return options;
}

TEST(Coalescer, FlushesWhenTheBatchThresholdFills) {
  exec::ScopedPid pid(0);
  auto snap = make_snap();
  Coalescer ingest(*snap, opts(3, 0));

  ingest.write(0, 10);
  ingest.write(1, 11);
  EXPECT_EQ(ingest.pending(), 2u);
  // Buffered writes are invisible until the flush.
  EXPECT_EQ(snap->scan({0, 1, 2}), (std::vector<std::uint64_t>{0, 0, 0}));

  ingest.write(2, 12);  // third distinct component: flush
  EXPECT_EQ(ingest.pending(), 0u);
  EXPECT_EQ(snap->scan({0, 1, 2}), (std::vector<std::uint64_t>{10, 11, 12}));
  EXPECT_EQ(ingest.stats().flushes, 1u);
  EXPECT_EQ(ingest.stats().flushed_entries, 3u);
}

TEST(Coalescer, MergesSameComponentWritesInsideTheWindow) {
  exec::ScopedPid pid(0);
  auto snap = make_snap();
  Coalescer ingest(*snap, opts(8, 4));

  // Three raw writes to one component collapse to one pending entry...
  ingest.write(5, 1);
  ingest.write(5, 2);
  ingest.write(5, 3);
  EXPECT_EQ(ingest.pending(), 1u);
  EXPECT_EQ(ingest.stats().merged, 2u);
  // ...and the fourth raw write exhausts the window, flushing two entries
  // (the newest value per component) well before `batch` filled.
  ingest.write(6, 4);
  EXPECT_EQ(ingest.pending(), 0u);
  EXPECT_EQ(snap->scan({5, 6}), (std::vector<std::uint64_t>{3, 4}));
  EXPECT_EQ(ingest.stats().writes, 4u);
  EXPECT_EQ(ingest.stats().flushed_entries, 2u);
}

TEST(Coalescer, WindowZeroDisablesMerging) {
  exec::ScopedPid pid(0);
  auto snap = make_snap();
  Coalescer ingest(*snap, opts(2, 0));

  // Without a window, repeat writes are distinct entries; the snapshot's
  // own last-wins coalescing still publishes only the newest value.
  ingest.write(3, 7);
  ingest.write(3, 8);
  EXPECT_EQ(ingest.stats().merged, 0u);
  EXPECT_EQ(ingest.stats().flushes, 1u);
  EXPECT_EQ(snap->scan({3}), (std::vector<std::uint64_t>{8}));
}

TEST(Coalescer, BatchOneIsTheSingletonPath) {
  exec::ScopedPid pid(0);
  auto snap = make_snap();
  Coalescer ingest(*snap, opts(1, 0));
  for (std::uint32_t i = 0; i < 4; ++i) ingest.write(i, 100 + i);
  EXPECT_EQ(ingest.stats().flushes, 4u);
  EXPECT_EQ(ingest.pending(), 0u);
  EXPECT_EQ(snap->scan({0, 1, 2, 3}),
            (std::vector<std::uint64_t>{100, 101, 102, 103}));
}

TEST(Coalescer, ExplicitAndDestructorFlushPublishTheTail) {
  exec::ScopedPid pid(0);
  auto snap = make_snap();
  {
    Coalescer ingest(*snap, opts(16, 0));
    ingest.write(0, 1);
    ingest.write(1, 2);
    ingest.flush();
    EXPECT_EQ(snap->scan({0, 1}), (std::vector<std::uint64_t>{1, 2}));
    ingest.write(2, 3);
    // Destructor flushes the tail batch.
  }
  EXPECT_EQ(snap->scan({2}), (std::vector<std::uint64_t>{3}));
}

TEST(Coalescer, RegistryKnobsDriveTheFrontEnd) {
  // The universal spec options land in IngestKnobs, which map 1:1 onto
  // the Coalescer's options -- the CLI-to-ingest path benches use.
  exec::ScopedPid pid(0);
  registry::IngestKnobs knobs;
  auto snap =
      registry::make_snapshot("fig3_cas:batch=2,coalesce_window=8", 8, 2,
                              &knobs);
  Coalescer ingest(*snap, opts(knobs.batch, knobs.coalesce_window));
  ingest.write(0, 5);
  ingest.write(0, 6);  // merged, still one pending entry
  EXPECT_EQ(ingest.pending(), 1u);
  ingest.write(1, 7);  // second distinct component: flush
  EXPECT_EQ(snap->scan({0, 1}), (std::vector<std::uint64_t>{6, 7}));
}

}  // namespace
}  // namespace psnap::ingest
