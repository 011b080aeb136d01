// The durable checkpoint format: CRC framing, serialize/parse round
// trips on every value plane, the atomic-rename commit protocol, and the
// loader's newest-intact-frame contract (the torn/corrupt half of that
// contract lives in torn_checkpoint_test.cpp).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "persist/checkpoint.h"
#include "persist/crc32.h"

namespace psnap::persist {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "psnap-ckpt-XXXXXX").string();
    path = ::mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

CheckpointData sample_u64_frame(std::uint64_t sequence) {
  CheckpointData frame;
  frame.impl_spec = "fig3_cas:coalesce=false";
  frame.sequence = sequence;
  frame.value_plane = "u64";
  frame.initial_m = 3;
  frame.num_components = 5;
  frame.max_threads = 8;
  frame.values = {10, 20, 30, 40, 50 + sequence};
  return frame;
}

TEST(Crc32, KnownAnswer) {
  const char* check = "123456789";
  EXPECT_EQ(crc32(std::as_bytes(std::span(check, 9))), 0xCBF43926u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const char* data = "partial snapshot objects";
  auto bytes = std::as_bytes(std::span(data, 24));
  std::uint32_t state = crc32_init();
  state = crc32_update(state, bytes.first(7));
  state = crc32_update(state, bytes.subspan(7, 9));
  state = crc32_update(state, bytes.subspan(16));
  EXPECT_EQ(crc32_finish(state), crc32(bytes));
}

// Bit-at-a-time CRC-32 straight from the polynomial: the reference the
// table-driven implementation must reproduce bit for bit.
std::uint32_t reference_crc32(std::span<const std::byte> bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::byte b : bytes) {
    c ^= static_cast<std::uint32_t>(b);
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

// Random lengths 0..4096 at odd start offsets (so the 8-byte blocks never
// line up with the buffer's alignment), one-shot and split at a random
// point into two incremental updates.
TEST(Crc32, MatchesBytewiseReference) {
  std::mt19937_64 rng(0x5eed);
  std::vector<std::byte> buf(4096 + 64);
  for (std::byte& b : buf) b = static_cast<std::byte>(rng());
  for (std::size_t trial = 0; trial < 400; ++trial) {
    const std::size_t offset = 2 * (rng() % 16) + 1;
    const std::size_t len = trial < 17 ? trial : rng() % 4097;
    auto bytes = std::span<const std::byte>(buf).subspan(offset, len);
    const std::uint32_t want = reference_crc32(bytes);
    EXPECT_EQ(crc32(bytes), want) << "offset " << offset << " len " << len;

    const std::size_t split = len == 0 ? 0 : rng() % (len + 1);
    std::uint32_t state = crc32_init();
    state = crc32_update(state, bytes.first(split));
    state = crc32_update(state, bytes.subspan(split));
    EXPECT_EQ(crc32_finish(state), want)
        << "offset " << offset << " len " << len << " split " << split;
  }
}

TEST(CheckpointFrame, RoundTripU64) {
  CheckpointData frame = sample_u64_frame(7);
  frame.epoch = 0;
  auto image = serialize_frame(frame);
  std::string error;
  auto parsed = parse_frame(image, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, frame);
}

TEST(CheckpointFrame, RoundTripBlob) {
  CheckpointData frame;
  frame.impl_spec = "fig3_cas:value=blob";
  frame.sequence = 3;
  frame.value_plane = "blob";
  frame.initial_m = 2;
  frame.num_components = 3;
  frame.max_threads = 4;
  frame.blobs = {value::Blob{std::byte{1}, std::byte{2}},
                 value::Blob{},  // empty payload survives
                 value::Blob(100, std::byte{0xAB})};
  auto parsed = parse_frame(serialize_frame(frame));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, frame);
}

TEST(CheckpointFrame, RoundTripVersionedKeepsEpoch) {
  CheckpointData frame = sample_u64_frame(9);
  frame.value_plane = "versioned";
  frame.impl_spec = "fig3_cas:value=versioned";
  frame.epoch = 123456789;
  auto parsed = parse_frame(serialize_frame(frame));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->epoch, 123456789u);
  EXPECT_EQ(*parsed, frame);
}

TEST(CheckpointFrame, RoundTripPartial) {
  CheckpointData frame = sample_u64_frame(2);
  frame.indices = {1, 4};
  frame.values = {21, 54};
  auto parsed = parse_frame(serialize_frame(frame));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->is_full());
  EXPECT_EQ(*parsed, frame);
}

TEST(CheckpointFrame, SerializeValidates) {
  CheckpointData bad_plane = sample_u64_frame(1);
  bad_plane.value_plane = "exotic";
  EXPECT_THROW(serialize_frame(bad_plane), std::invalid_argument);

  CheckpointData bad_count = sample_u64_frame(1);
  bad_count.values.pop_back();
  EXPECT_THROW(serialize_frame(bad_count), std::invalid_argument);

  CheckpointData bad_index = sample_u64_frame(1);
  bad_index.indices = {99};
  bad_index.values = {1};
  EXPECT_THROW(serialize_frame(bad_index), std::invalid_argument);
}

TEST(CheckpointWriter, CommitThenLoadNewest) {
  TempDir dir;
  CheckpointWriter writer(dir.path);
  CheckpointLoader loader(dir.path);

  EXPECT_EQ(loader.load_newest(), std::nullopt);

  writer.commit(sample_u64_frame(1));
  writer.commit(sample_u64_frame(2));
  std::string path3 = writer.commit(sample_u64_frame(3));
  EXPECT_TRUE(fs::exists(path3));

  auto loaded = loader.load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, sample_u64_frame(3));
}

TEST(CheckpointWriter, PrunesToKeepFrames) {
  TempDir dir;
  CheckpointWriter::Options options;
  options.keep_frames = 2;
  options.sync = false;
  CheckpointWriter writer(dir.path, options);
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    writer.commit(sample_u64_frame(seq));
  }
  CheckpointLoader loader(dir.path);
  auto paths = loader.frame_paths();
  ASSERT_EQ(paths.size(), 2u);
  auto loaded = loader.load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 5u);
}

// A commit whose rename fails (a non-empty directory squats on the final
// frame path) throws, leaves no temp file behind, and keeps the previous
// frame the newest intact one.
TEST(CheckpointWriter, FailedCommitRemovesItsTempFile) {
  TempDir dir;
  CheckpointWriter::Options options;
  options.sync = false;
  CheckpointWriter writer(dir.path, options);
  writer.commit(sample_u64_frame(1));

  const std::string blocker = dir.path + "/ckpt-2.psnap";
  fs::create_directory(blocker);
  std::ofstream(blocker + "/occupant") << "x";
  EXPECT_THROW(writer.commit(sample_u64_frame(2)), std::runtime_error);

  for (const fs::directory_entry& entry : fs::directory_iterator(dir.path)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
  auto loaded = CheckpointLoader(dir.path).load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, sample_u64_frame(1));
}

TEST(CheckpointLoader, IgnoresTmpOrphansAndStrays) {
  TempDir dir;
  CheckpointWriter writer(dir.path);
  writer.commit(sample_u64_frame(4));

  // A torn temp file from a crash mid-write, a stray file, and a
  // non-frame name: none may influence the load.
  std::ofstream(dir.path + "/ckpt-9.psnap.tmp") << "torn";
  std::ofstream(dir.path + "/notes.txt") << "hello";
  std::ofstream(dir.path + "/ckpt-abc.psnap") << "not a sequence";

  CheckpointLoader loader(dir.path);
  auto loaded = loader.load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 4u);
}

TEST(CheckpointLoader, MissingDirectoryIsEmpty) {
  CheckpointLoader loader("/nonexistent/psnap-checkpoints");
  EXPECT_TRUE(loader.frame_paths().empty());
  EXPECT_EQ(loader.load_newest(), std::nullopt);
}

TEST(CheckpointLoader, FramePathsNewestFirst) {
  TempDir dir;
  CheckpointWriter::Options options;
  options.sync = false;
  CheckpointWriter writer(dir.path, options);
  // Commit out of order; paths must come back by sequence, not by name or
  // mtime (seq 10 sorts after seq 9 despite "ckpt-10" < "ckpt-9"
  // lexicographically).
  writer.commit(sample_u64_frame(10));
  writer.commit(sample_u64_frame(2));
  writer.commit(sample_u64_frame(9));
  CheckpointLoader loader(dir.path);
  auto paths = loader.frame_paths();
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_NE(paths[0].find("ckpt-10"), std::string::npos);
  EXPECT_NE(paths[1].find("ckpt-9"), std::string::npos);
  EXPECT_NE(paths[2].find("ckpt-2"), std::string::npos);
}

}  // namespace
}  // namespace psnap::persist
