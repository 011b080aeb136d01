// Durable checkpoint frames: the on-disk form of one consistent scan.
//
// The paper's headline application (Section 1) is "storing checkpoints
// for data recovery"; this layer is the durability half of that story.  A
// frame captures one linearizable scan of a snapshot object -- any value
// plane, including blob payloads and the versioned plane's camera epoch --
// plus everything restore() needs to rebuild the object: the registry
// spec, the construction-time component count (so growth is replayed, not
// faked), and the runtime bounds.
//
// Frame file layout (native-endian; a checkpoint restores on the machine
// that wrote it):
//
//   magic   "PSNPCKP1"                      8 bytes
//   u64     sequence   writer-monotone commit number (newest-frame order)
//   u64     epoch      versioned-plane camera epoch at the scan (else 0)
//   u32     plane      0 = u64, 1 = blob, 2 = versioned
//   u32     initial_m  components at construction
//   u32     m          components at the scan (restore builds the
//                      object at this count; initial_m may not exceed it)
//   u32     max_threads
//   u32     spec_len   + that many bytes of registry spec
//   u32     index_count  0 = full frame over [0, m); else that many u32
//                        component indices (a PARTIAL frame)
//   payload per entry: u64 value (planes 0/2) or u32 len + bytes (plane 1)
//   u32     crc32 over every byte above
//
// Commit protocol (CheckpointWriter): the writer keeps one SPARE file,
// "ckpt-spare" in the checkpoint directory -- the inode its last prune
// retired, under a name that is not a frame name.  A commit overwrites
// the spare in place (open, one writev loop, ftruncate to the frame's
// size, fdatasync), then rename(2)s it to "ckpt-<seq>.psnap".  The prune
// then renames the retired frame to the spare name, unlinks only the
// frames beyond that one, and one directory fsync makes both renames
// durable (on a file system that journals metadata in order, as ext4 and
// xfs do), so no commit ever overwrites a file that a crash could bring
// back under a frame name.  rename is atomic, so a reader (or a loader
// after kill -9) sees either no new frame or a complete one; a crash
// mid-write leaves only a torn spare, which the loader never considers
// and the next commit overwrites.  In steady state a commit creates no
// inode, unlinks none and lists no directory: the writer lists the
// directory once, at construction, to adopt frames an earlier writer
// left, and then tracks its own frames in memory, by sequence.  When the
// spare is missing (the first commits, or after a failed commit, which
// unlinks it, or an outside unlink) the same open creates it.  Pruning
// never removes the frame just committed, even one older than the newest
// keep_frames on disk.  Two cases are left out: frames another process
// adds to the directory later are never pruned, and a loader running
// concurrently with a commit may read a frame just as it is retired into
// the spare and overwritten, and reject it on its CRC (it then falls back
// to the next frame, as for any torn one).
//
// The writer builds no image: one encoder yields the header bytes (magic
// through the index list), the payload straight from the frame's values
// and the CRC trailer, threading the CRC through crc32_update, and the
// writev loop writes the three pieces (blob payloads are encoded into
// the header buffer).  serialize_frame concatenates the same pieces, so
// its image is byte for byte the file commit writes.
//
// Load protocol (CheckpointLoader): list the directory in one readdir
// pass (names parsed in place, d_type for the file type, fstatat only for
// a symlink or where the file system leaves d_type unknown), walk frames
// newest-sequence-first and return the first that verifies -- magic,
// structural bounds, and CRC over the whole frame BEFORE any field is
// trusted.  A torn, truncated,
// or bit-flipped frame is rejected (with a reason, reported per file) and
// the walk falls back to the previous intact frame; if nothing intact
// remains the loader returns nullopt rather than ever returning garbage.
// tests/persist/torn_checkpoint_test.cpp enforces exactly that contract.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "primitives/value_plane.h"

namespace psnap::persist {

// One consistent scan, in memory.  `values` carries the payloads on the
// u64 and versioned planes, `blobs` on the blob plane; entry k belongs to
// component indices[k] (or to component k when the frame is full).
struct CheckpointData {
  std::string impl_spec;          // registry spec that rebuilds the object
  std::uint64_t sequence = 0;     // writer-side monotone commit number
  std::uint64_t epoch = 0;        // versioned-plane epoch (0 elsewhere)
  std::string value_plane = "u64";
  std::uint32_t initial_m = 0;    // m at construction
  std::uint32_t num_components = 0;  // m at the scan
  std::uint32_t max_threads = 0;
  std::vector<std::uint32_t> indices;  // empty = full frame over [0, m)
  std::vector<std::uint64_t> values;
  std::vector<psnap::value::Blob> blobs;

  bool is_full() const { return indices.empty(); }
  std::size_t entry_count() const {
    return is_full() ? num_components : indices.size();
  }

  bool operator==(const CheckpointData&) const = default;
};

// Serializes a frame to its on-disk byte image (including the CRC
// trailer): the bytes CheckpointWriter::commit writes, in one buffer.
// Throws std::invalid_argument when the frame is malformed (unknown plane
// name, payload count != entry_count()).
std::vector<std::byte> serialize_frame(const CheckpointData& frame);

// Parses and VERIFIES a frame image; returns nullopt (with a reason in
// *error when non-null) on any magic, bounds, or CRC failure.  Never
// returns a partially-believed frame: the CRC is checked before the
// payload is decoded.
std::optional<CheckpointData> parse_frame(std::span<const std::byte> bytes,
                                          std::string* error = nullptr);

// Commits frames into a checkpoint directory by overwriting the spare
// file and renaming it into place.  Not thread-safe: one writer per
// directory.
class CheckpointWriter {
 public:
  // The spare file's name in the checkpoint directory; not a frame name.
  static constexpr std::string_view kSpareName = "ckpt-spare";

  struct Options {
    // Intact frames to retain; older ones are pruned after each commit.
    // At least 2, so one bad newest frame always leaves a fallback.
    std::uint32_t keep_frames = 4;
    // fsync file and directory on commit (off only for tests that
    // hammer the write path).
    bool sync = true;
  };

  // Creates the directory if absent and adopts the frames already in it
  // (pruned from the first commit on).  Throws std::runtime_error on IO
  // failure.
  CheckpointWriter(std::string dir, Options options);
  explicit CheckpointWriter(std::string dir)
      : CheckpointWriter(std::move(dir), Options{}) {}

  // Atomically commits one frame; returns the committed path.  Throws
  // std::runtime_error on IO failure, after unlinking the spare, so the
  // committed frames are as before the call.
  std::string commit(const CheckpointData& frame);

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::string spare_path_;
  Options options_;
  // (sequence, file name) of every frame this writer may prune, ascending.
  std::vector<std::pair<std::uint64_t, std::string>> frames_;
};

// Reads the newest intact frame from a checkpoint directory.
class CheckpointLoader {
 public:
  struct Report {
    // "path: reason" for every frame rejected during the walk.
    std::vector<std::string> rejected;
  };

  explicit CheckpointLoader(std::string dir);

  // Frame paths in the directory, newest sequence first (by filename; a
  // lying filename is caught later by the CRC'd in-frame sequence).
  std::vector<std::string> frame_paths() const;

  // The newest frame that verifies end to end, walking back past corrupt
  // ones; nullopt when the directory holds no intact frame (including
  // when it does not exist).
  std::optional<CheckpointData> load_newest(Report* report = nullptr) const;

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

}  // namespace psnap::persist
