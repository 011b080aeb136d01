// The durable checkpoint format: both CRC kernels against a bit-at-a-time
// reference, serialize/parse round trips on every value plane, pinned
// frame images, the atomic-rename commit protocol, and the loader's
// newest-intact-frame contract (the torn/corrupt half of that contract
// lives in torn_checkpoint_test.cpp).
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
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
  frame.impl_spec = "fig3_cas:reclaim=hp";
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

// Bit-at-a-time CRC-32 straight from the polynomial: the reference both
// kernels must reproduce bit for bit.
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

using Kernel = std::uint32_t (*)(std::uint32_t, std::span<const std::byte>);

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::byte> buf(n);
  for (std::byte& b : buf) b = static_cast<std::byte>(rng());
  return buf;
}

// Holds one kernel against the bit-at-a-time reference: every length up
// to 1100 (both sides of the 64-byte fold threshold and of each 16-byte
// block) at odd offsets, random lengths up to 256 KiB, two-piece
// incremental updates split at every residue mod 16 around block edges,
// and one 512 KiB frame-sized buffer.
void expect_kernel_matches_reference(Kernel update) {
  auto crc = [update](std::span<const std::byte> bytes) {
    return crc32_finish(update(crc32_init(), bytes));
  };
  const std::vector<std::byte> buf = random_bytes((512u << 10) + 64, 0xc5c);
  const std::span<const std::byte> all(buf);

  for (std::size_t len = 0; len <= 1100; ++len) {
    const std::size_t offset = 2 * (len % 8) + 1;
    auto bytes = all.subspan(offset, len);
    ASSERT_EQ(crc(bytes), reference_crc32(bytes))
        << "offset " << offset << " len " << len;
  }

  std::mt19937_64 rng(0x5eed2);
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t offset = 2 * (rng() % 8) + 1;
    auto bytes = all.subspan(offset, rng() % ((256u << 10) + 1));
    ASSERT_EQ(crc(bytes), reference_crc32(bytes))
        << "offset " << offset << " len " << bytes.size();
  }

  auto edges = all.subspan(3, 4096 + 37);
  const std::uint32_t want = reference_crc32(edges);
  for (std::size_t edge : {std::size_t{64}, std::size_t{128},
                           std::size_t{1024}, std::size_t{4096}}) {
    for (std::size_t split = edge - 17; split <= edge + 17; ++split) {
      std::uint32_t state = update(crc32_init(), edges.first(split));
      state = update(state, edges.subspan(split));
      ASSERT_EQ(crc32_finish(state), want) << "split " << split;
    }
  }

  auto frame_sized = all.subspan(1, 512u << 10);
  EXPECT_EQ(crc(frame_sized), reference_crc32(frame_sized));
}

TEST(Crc32, SlicingBy8MatchesReference) {
  expect_kernel_matches_reference(crc32_update_slicing8);
}

// crc32_update routes every span of 64 bytes or more through the folding
// kernel on a CPU that has PCLMULQDQ.
TEST(Crc32, FoldingMatchesReference) {
  if (crc32_kernel() != "pclmul") {
    GTEST_SKIP() << "CPU without PCLMULQDQ; crc32_update is slicing-by-8";
  }
  expect_kernel_matches_reference(crc32_update);
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

// Three fixed frames whose images are pinned below: a full 65536-entry
// versioned frame (the psnapbench versioned_range size), a partial u64
// frame and a blob frame.
CheckpointData pinned_versioned_frame() {
  CheckpointData frame;
  frame.impl_spec = "fig3_cas:value=versioned";
  frame.sequence = 42;
  frame.epoch = 0x1234567;
  frame.value_plane = "versioned";
  frame.initial_m = 1024;
  frame.num_components = 65536;
  frame.max_threads = 8;
  frame.values.resize(frame.num_components);
  for (std::uint64_t i = 0; i < frame.values.size(); ++i) {
    frame.values[i] = (i + 1) * 0x9E3779B97F4A7C15ull;
  }
  return frame;
}

CheckpointData pinned_partial_frame() {
  CheckpointData frame;
  // A spelling an older build wrote (restore now rejects its retired
  // option): the frame format carries the spec as opaque bytes, and this
  // image's size and CRC are pinned below.
  frame.impl_spec = "fig3_cas:coalesce=false";
  frame.sequence = 7;
  frame.value_plane = "u64";
  frame.initial_m = 3;
  frame.num_components = 9;
  frame.max_threads = 4;
  frame.indices = {0, 3, 4, 8};
  frame.values = {100, 0xFFFFFFFFFFFFFFFFull, 0, 0x0123456789ABCDEFull};
  return frame;
}

CheckpointData pinned_blob_frame() {
  CheckpointData frame;
  frame.impl_spec = "fig3_cas:value=blob";
  frame.sequence = 3;
  frame.value_plane = "blob";
  frame.initial_m = 2;
  frame.num_components = 3;
  frame.max_threads = 4;
  frame.blobs = {value::Blob{std::byte{1}, std::byte{2}}, value::Blob{},
                 value::Blob(100, std::byte{0xAB})};
  return frame;
}

// The on-disk bytes do not depend on the CRC kernel or on how the image
// is assembled: size and trailer CRC of each image are pinned to what the
// slicing-by-8, single-buffer serializer wrote, and the trailer is the
// bit-at-a-time CRC of the bytes before it.  (The header is native-endian;
// the pins are a little-endian host's.)
TEST(CheckpointFrame, ImagesArePinned) {
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "pinned images are little-endian";
  }
  struct Pin {
    CheckpointData frame;
    std::size_t size;
    std::uint32_t trailer;
  };
  const Pin pins[] = {{pinned_versioned_frame(), 524364, 0xC99F5C30u},
                      {pinned_partial_frame(), 123, 0xBC48E0DEu},
                      {pinned_blob_frame(), 185, 0xC8E6A2A4u}};
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.frame.value_plane);
    const std::vector<std::byte> image = serialize_frame(pin.frame);
    ASSERT_EQ(image.size(), pin.size);
    const auto body = std::span(image).first(image.size() - 4);
    std::uint32_t trailer = 0;
    std::memcpy(&trailer, image.data() + body.size(), sizeof(trailer));
    EXPECT_EQ(trailer, pin.trailer);
    EXPECT_EQ(reference_crc32(body), trailer);
    auto parsed = parse_frame(image);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, pin.frame);
  }
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

// A 512 KiB frame goes through commit's writev loop and back: the file
// holds exactly serialize_frame's image, and load_newest returns the frame.
TEST(CheckpointWriter, LargeFrameRoundTrip) {
  TempDir dir;
  CheckpointWriter::Options options;
  options.sync = false;
  CheckpointWriter writer(dir.path, options);
  const CheckpointData frame = pinned_versioned_frame();
  const std::string path = writer.commit(frame);

  const std::vector<std::byte> image = serialize_frame(frame);
  std::ifstream in(path, std::ios::binary);
  std::vector<char> file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ASSERT_EQ(file.size(), image.size());
  EXPECT_EQ(std::memcmp(file.data(), image.data(), image.size()), 0);

  auto loaded = CheckpointLoader(dir.path).load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, frame);
}

// A commit whose sequence is older than the newest keep_frames on disk
// still leaves its own frame in place: the prune never removes the frame
// it was called for, so the returned path exists.
TEST(CheckpointWriter, PruneKeepsTheFrameJustCommitted) {
  TempDir dir;
  CheckpointWriter::Options options;
  options.keep_frames = 2;
  options.sync = false;
  CheckpointWriter writer(dir.path, options);
  writer.commit(sample_u64_frame(10));
  writer.commit(sample_u64_frame(11));
  const std::string path = writer.commit(sample_u64_frame(5));
  EXPECT_TRUE(fs::exists(path));

  CheckpointLoader loader(dir.path);
  EXPECT_EQ(loader.frame_paths().size(), 3u);
  auto loaded = loader.load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 11u);

  // The next in-order commit prunes back to keep_frames.
  writer.commit(sample_u64_frame(12));
  auto paths = loader.frame_paths();
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_NE(paths[0].find("ckpt-12"), std::string::npos);
  EXPECT_NE(paths[1].find("ckpt-11"), std::string::npos);
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

ino_t inode_of(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return st.st_ino;
}

std::string spare_path(const std::string& dir) {
  return dir + "/" + std::string(CheckpointWriter::kSpareName);
}

// Every file in `dir` by name, with its bytes.
std::map<std::string, std::vector<char>> directory_image(
    const std::string& dir) {
  std::map<std::string, std::vector<char>> out;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      out[entry.path().filename().string()] = read_file(entry.path());
    }
  }
  return out;
}

// A commit whose rename fails (a non-empty directory squats on the final
// frame path) throws, unlinks the spare it had started to overwrite, and
// leaves every committed frame exactly as it was before the call; the
// next commit creates a fresh spare and succeeds.
TEST(CheckpointWriter, FailedCommitRemovesItsTempFile) {
  TempDir dir;
  CheckpointWriter::Options options;
  options.keep_frames = 2;
  options.sync = false;
  CheckpointWriter writer(dir.path, options);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    writer.commit(sample_u64_frame(seq));
  }
  ASSERT_TRUE(fs::exists(spare_path(dir.path)));
  const std::vector<std::string> paths_before =
      CheckpointLoader(dir.path).frame_paths();
  auto frames_before = directory_image(dir.path);
  frames_before.erase(std::string(CheckpointWriter::kSpareName));

  const std::string blocker = dir.path + "/ckpt-4.psnap";
  fs::create_directory(blocker);
  std::ofstream(blocker + "/occupant") << "x";
  EXPECT_THROW(writer.commit(sample_u64_frame(4)), std::runtime_error);

  EXPECT_FALSE(fs::exists(spare_path(dir.path)));
  EXPECT_EQ(directory_image(dir.path), frames_before);
  EXPECT_EQ(CheckpointLoader(dir.path).frame_paths(), paths_before);
  auto loaded = CheckpointLoader(dir.path).load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, sample_u64_frame(3));

  fs::remove_all(blocker);
  writer.commit(sample_u64_frame(5));
  loaded = CheckpointLoader(dir.path).load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, sample_u64_frame(5));
}

// A frame smaller than the spare it overwrites is cut to its own size: a
// commit that left the spare's old tail in place would fail the CRC.
// Frames that grow from commit to commit, as a growing object's do, round
// trip too.
TEST(CheckpointWriter, SpareIsCutToEachFramesSize) {
  TempDir dir;
  CheckpointWriter::Options options;
  options.keep_frames = 2;
  options.sync = false;
  CheckpointWriter writer(dir.path, options);
  CheckpointData big = pinned_versioned_frame();
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    big.sequence = seq;
    writer.commit(big);
  }
  ASSERT_EQ(fs::file_size(spare_path(dir.path)),
            serialize_frame(big).size());

  const CheckpointData small = sample_u64_frame(4);
  const std::string path = writer.commit(small);
  const std::vector<std::byte> image = serialize_frame(small);
  const std::vector<char> file = read_file(path);
  ASSERT_EQ(file.size(), image.size());
  EXPECT_EQ(std::memcmp(file.data(), image.data(), image.size()), 0);
  auto loaded = CheckpointLoader(dir.path).load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, small);

  CheckpointData growing = sample_u64_frame(5);
  for (std::uint64_t seq = 5; seq <= 12; ++seq) {
    growing.sequence = seq;
    growing.num_components = static_cast<std::uint32_t>(1024 * (seq - 4));
    growing.values.resize(growing.num_components, seq);
    writer.commit(growing);
    loaded = CheckpointLoader(dir.path).load_newest();
    ASSERT_TRUE(loaded.has_value()) << "sequence " << seq;
    EXPECT_EQ(*loaded, growing);
  }
}

// Once keep_frames + 1 frames have been committed, every commit writes
// into the inode the previous commit retired: the frame file is recycled,
// not created and unlinked.
TEST(CheckpointWriter, CommitsRecycleTheRetiredInode) {
  TempDir dir;
  constexpr std::uint64_t kKeep = 3;
  CheckpointWriter::Options options;
  options.keep_frames = kKeep;
  options.sync = false;
  CheckpointWriter writer(dir.path, options);
  std::map<std::uint64_t, ino_t> inode;
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    inode[seq] = inode_of(writer.commit(sample_u64_frame(seq)));
    if (seq <= kKeep) continue;
    // This commit retired frame seq - kKeep into the spare...
    EXPECT_EQ(inode_of(spare_path(dir.path)), inode[seq - kKeep])
        << "sequence " << seq;
    // ...and was itself written into the one the previous commit retired.
    if (seq > kKeep + 1) {
      EXPECT_EQ(inode[seq], inode[seq - kKeep - 1]) << "sequence " << seq;
    }
  }
  EXPECT_EQ(CheckpointLoader(dir.path).frame_paths().size(), kKeep);
}

// A writer over a directory an earlier writer left -- more frames than it
// keeps and a torn spare, as a crash mid-write leaves it -- adopts both:
// its first commit overwrites the spare and prunes to keep_frames.
TEST(CheckpointWriter, AdoptsLeftoverFramesAndSpare) {
  TempDir dir;
  CheckpointWriter::Options options;
  options.keep_frames = 8;
  options.sync = false;
  {
    CheckpointWriter earlier(dir.path, options);
    for (std::uint64_t seq = 1; seq <= 9; ++seq) {
      earlier.commit(sample_u64_frame(seq));
    }
  }
  const std::string spare = spare_path(dir.path);
  fs::resize_file(spare, fs::file_size(spare) / 2);
  const ino_t spare_inode = inode_of(spare);

  options.keep_frames = 2;
  CheckpointWriter writer(dir.path, options);
  const std::string path = writer.commit(sample_u64_frame(10));
  EXPECT_EQ(inode_of(path), spare_inode);

  CheckpointLoader loader(dir.path);
  const std::vector<std::string> paths = loader.frame_paths();
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_NE(paths[0].find("ckpt-10"), std::string::npos);
  EXPECT_NE(paths[1].find("ckpt-9"), std::string::npos);
  EXPECT_TRUE(fs::exists(spare));
  EXPECT_EQ(directory_image(dir.path).size(), 3u);  // two frames + spare
  auto loaded = loader.load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, sample_u64_frame(10));
}

// Files removed behind the writer's back -- the frame its next prune
// would recycle, then the spare -- cost the recycling, never the commit.
TEST(CheckpointWriter, VanishedFramesAndSpareDoNotFailCommits) {
  TempDir dir;
  CheckpointWriter::Options options;
  options.keep_frames = 2;
  options.sync = false;
  CheckpointWriter writer(dir.path, options);
  const std::string first = writer.commit(sample_u64_frame(1));
  writer.commit(sample_u64_frame(2));
  fs::remove(first);
  EXPECT_NO_THROW(writer.commit(sample_u64_frame(3)));
  fs::remove(spare_path(dir.path));
  EXPECT_NO_THROW(writer.commit(sample_u64_frame(4)));
  EXPECT_NO_THROW(writer.commit(sample_u64_frame(5)));

  CheckpointLoader loader(dir.path);
  const std::vector<std::string> paths = loader.frame_paths();
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_NE(paths[0].find("ckpt-5"), std::string::npos);
  EXPECT_NE(paths[1].find("ckpt-4"), std::string::npos);
  auto loaded = loader.load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, sample_u64_frame(5));
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

// The listing follows symlinks, as opening a frame does: a link to a
// frame file is a frame, a link to a directory or a dangling one is not.
TEST(CheckpointLoader, ListsSymlinksToFrameFiles) {
  TempDir dir;
  TempDir elsewhere;
  CheckpointWriter::Options options;
  options.sync = false;
  const std::string target =
      CheckpointWriter(elsewhere.path, options).commit(sample_u64_frame(6));
  fs::create_symlink(target, dir.path + "/ckpt-6.psnap");
  fs::create_directory_symlink(elsewhere.path, dir.path + "/ckpt-7.psnap");
  fs::create_symlink(dir.path + "/missing", dir.path + "/ckpt-8.psnap");

  CheckpointLoader loader(dir.path);
  const std::vector<std::string> paths = loader.frame_paths();
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_NE(paths[0].find("ckpt-6"), std::string::npos);
  auto loaded = loader.load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, sample_u64_frame(6));
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
