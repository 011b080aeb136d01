// Periodic checkpoints reuse their frame: after warm-up, a
// Checkpointer::checkpoint_now call allocates only the commit's small
// bookkeeping (the encoded header, the frame's file name and path), never
// the m x 8-byte payload.  A checkpoint that builds a fresh frame
// allocates a full payload every time, so ten of them exceed the bound
// below ten times over.  This suite replaces the global operator new,
// which is why it is its own test binary.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "exec/exec.h"
#include "persist/checkpoint.h"
#include "recovery/checkpointer.h"
#include "registry/registry.h"
#include "tests/support/counting_allocator.h"

namespace psnap::recovery {
namespace {

namespace fs = std::filesystem;
using test::g_allocated_bytes;

constexpr std::uint32_t kM = 65536;
constexpr std::uint64_t kPayloadBytes = std::uint64_t{kM} * 8;

struct TempDir {
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "psnap-calloc-XXXXXX").string();
    path = ::mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

TEST(CheckpointAllocTest, SteadyStateCheckpointsReuseTheirFrame) {
  TempDir dir;
  auto snap = registry::make_snapshot("fig3_cas", kM, 4);
  persist::CheckpointWriter::Options writer_options;
  writer_options.sync = false;
  persist::CheckpointWriter writer(dir.path, writer_options);
  Checkpointer::Options options;
  options.impl_spec = "fig3_cas";
  options.max_threads = 4;
  Checkpointer checkpointer(*snap, writer, options);
  exec::ScopedPid pid(0);
  snap->update(7, 70);

  // Warm-up: the frame, the scan context and the writer's frame list
  // reach their steady sizes, and the spare file is in rotation.
  for (std::uint32_t k = 0; k < writer_options.keep_frames + 2; ++k) {
    checkpointer.checkpoint_now();
  }
  const std::uint64_t before = g_allocated_bytes.load();
  for (int k = 0; k < 10; ++k) checkpointer.checkpoint_now();
  const std::uint64_t bytes = g_allocated_bytes.load() - before;
  EXPECT_LT(bytes, kPayloadBytes);

  auto loaded = persist::CheckpointLoader(dir.path).load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->values.size(), kM);
  EXPECT_EQ(loaded->values[7], 70u);
  EXPECT_EQ(checkpointer.stats().frames_committed,
            writer_options.keep_frames + 12);
}

}  // namespace
}  // namespace psnap::recovery
