// The loader's corruption contract, test-enforced: a torn, truncated, or
// bit-flipped frame is NEVER restored from.  Every load in this file must
// return byte-exactly one of the frames that were actually committed (or
// nothing at all) -- the loader either falls back to the previous intact
// frame or fails loudly, and in no case returns garbage.
//
// The sweeps are exhaustive, not sampled: every truncation length of the
// newest frame, and every bit of every byte.  CRC-32 detects all
// single-bit errors, so the bit-flip half holds by construction; the
// truncation half additionally exercises the structural bounds checks
// (a prefix of a valid frame re-framed by a shorter length field must
// still die on the CRC or a bounds check, never read out of range --
// ASan in CI watches exactly that).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "persist/checkpoint.h"
#include "persist/crc32.h"

namespace psnap::persist {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "psnap-torn-XXXXXX").string();
    path = ::mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

CheckpointData make_frame(std::uint64_t sequence) {
  CheckpointData frame;
  frame.impl_spec = "fig3_cas";
  frame.sequence = sequence;
  frame.value_plane = "u64";
  frame.initial_m = 2;
  frame.num_components = 4;
  frame.max_threads = 4;
  frame.values = {sequence * 100, sequence * 100 + 1, sequence * 100 + 2,
                  sequence * 100 + 3};
  return frame;
}

class TornCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CheckpointWriter::Options options;
    options.sync = false;  // thousands of commits/loads in the sweeps
    CheckpointWriter writer(dir_.path, options);
    frame_a_ = make_frame(1);
    frame_b_ = make_frame(2);
    path_a_ = writer.commit(frame_a_);
    path_b_ = writer.commit(frame_b_);
    bytes_b_ = read_file(path_b_);
    ASSERT_FALSE(bytes_b_.empty());
  }

  // Asserts the invariant every corruption case must satisfy: the load
  // returns exactly frame A (the fallback) -- not garbage, not a
  // half-believed B.
  void expect_falls_back_to_a() {
    CheckpointLoader::Report report;
    auto loaded = CheckpointLoader(dir_.path).load_newest(&report);
    ASSERT_TRUE(loaded.has_value());
    ASSERT_EQ(*loaded, frame_a_);
    ASSERT_FALSE(report.rejected.empty());
  }

  TempDir dir_;
  CheckpointData frame_a_, frame_b_;
  std::string path_a_, path_b_;
  std::vector<char> bytes_b_;
};

TEST_F(TornCheckpointTest, IntactNewestWins) {
  auto loaded = CheckpointLoader(dir_.path).load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, frame_b_);
}

TEST_F(TornCheckpointTest, EveryTruncationFallsBack) {
  for (std::size_t len = 0; len < bytes_b_.size(); ++len) {
    write_file(path_b_, std::vector<char>(bytes_b_.begin(),
                                          bytes_b_.begin() +
                                              static_cast<std::ptrdiff_t>(
                                                  len)));
    SCOPED_TRACE("truncated to " + std::to_string(len) + " bytes");
    expect_falls_back_to_a();
  }
}

TEST_F(TornCheckpointTest, EveryBitFlipFallsBack) {
  for (std::size_t i = 0; i < bytes_b_.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<char> corrupt = bytes_b_;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      write_file(path_b_, corrupt);
      SCOPED_TRACE("bit " + std::to_string(bit) + " of byte " +
                   std::to_string(i));
      expect_falls_back_to_a();
    }
  }
}

TEST_F(TornCheckpointTest, GarbageFrameFallsBack) {
  std::vector<char> garbage(257);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (char& c : garbage) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    c = static_cast<char>(x);
  }
  // Garbage posing as the NEWEST frame: must be rejected, falling back to
  // the intact B.
  write_file(dir_.path + "/ckpt-3.psnap", garbage);
  CheckpointLoader::Report report;
  auto loaded = CheckpointLoader(dir_.path).load_newest(&report);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, frame_b_);
  EXPECT_EQ(report.rejected.size(), 1u);
}

TEST_F(TornCheckpointTest, AllFramesCorruptFailsLoudly) {
  write_file(path_a_, {'n', 'o'});
  write_file(path_b_, {});
  CheckpointLoader::Report report;
  EXPECT_EQ(CheckpointLoader(dir_.path).load_newest(&report), std::nullopt);
  EXPECT_EQ(report.rejected.size(), 2u);
}

TEST_F(TornCheckpointTest, SwappedFrameBodiesRejected) {
  // A frame whose FILENAME claims sequence 3 but whose (intact) body says
  // sequence 1 is still a valid frame -- the body, protected by its CRC,
  // is the truth; the filename only orders the walk.  The loader may
  // return it, but what it returns must be the real frame A content, not
  // anything influenced by the name.
  std::vector<char> bytes_a = read_file(path_a_);
  write_file(dir_.path + "/ckpt-3.psnap", bytes_a);
  auto loaded = CheckpointLoader(dir_.path).load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, frame_a_);
}

// The writer's spare file is never a frame, whatever it holds: a torn
// one (a crash mid-commit) and one holding a complete, newer frame image
// (a retired frame, or a commit killed before its rename) are both
// skipped without a rejection, and the newest frame still wins.
TEST_F(TornCheckpointTest, SpareFileIsNeverLoaded) {
  const std::string spare =
      dir_.path + "/" + std::string(CheckpointWriter::kSpareName);
  const std::vector<std::byte> newer = serialize_frame(make_frame(3));
  const auto* chars = reinterpret_cast<const char*>(newer.data());
  const std::vector<char> images[] = {
      std::vector<char>(chars, chars + newer.size() / 2),
      std::vector<char>(chars, chars + newer.size())};
  for (const std::vector<char>& image : images) {
    write_file(spare, image);
    SCOPED_TRACE("spare of " + std::to_string(image.size()) + " bytes");
    CheckpointLoader::Report report;
    auto loaded = CheckpointLoader(dir_.path).load_newest(&report);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, frame_b_);
    EXPECT_TRUE(report.rejected.empty());
    EXPECT_EQ(CheckpointLoader(dir_.path).frame_paths().size(), 2u);
  }
}

// A blob frame with an intact CRC whose component count (byte offset 32)
// claims 2^32 - 1 entries: the parser must reject it on the bytes left
// before sizing any allocation by that count, and the loader must fall
// back to frame B instead of letting an exception escape.
TEST_F(TornCheckpointTest, HugeBlobCountRejectedBeforeAllocation) {
  CheckpointData blob_frame = make_frame(3);
  blob_frame.value_plane = "blob";
  blob_frame.values.clear();
  blob_frame.blobs = {value::Blob(3, std::byte{1}), value::Blob{},
                      value::Blob(5, std::byte{2}), value::Blob{}};
  std::vector<std::byte> image = serialize_frame(blob_frame);
  constexpr std::size_t kCountOffset = 32;
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(image.data() + kCountOffset, &huge, sizeof(huge));
  const std::uint32_t crc = crc32(std::span(image).first(image.size() - 4));
  std::memcpy(image.data() + image.size() - 4, &crc, sizeof(crc));

  std::string error;
  EXPECT_EQ(parse_frame(image, &error), std::nullopt);
  EXPECT_EQ(error, "truncated blob payload");

  const auto* chars = reinterpret_cast<const char*>(image.data());
  write_file(dir_.path + "/ckpt-3.psnap",
             std::vector<char>(chars, chars + image.size()));
  CheckpointLoader::Report report;
  auto loaded = CheckpointLoader(dir_.path).load_newest(&report);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, frame_b_);
  EXPECT_EQ(report.rejected.size(), 1u);
}

}  // namespace
}  // namespace psnap::persist
