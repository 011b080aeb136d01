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
// Commit protocol (CheckpointWriter): write the frame to "<name>.tmp" in
// the checkpoint directory, fsync the file, rename(2) to
// "ckpt-<seq>.psnap", fsync the directory.  rename is atomic, so a reader
// (or a loader after kill -9) sees either no frame or a complete one; a
// crash mid-write leaves only a .tmp orphan the loader never considers.
// The writer builds no image: one encoder yields the header bytes (magic
// through the index list), the payload straight from the frame's values
// and the CRC trailer, threading the CRC through crc32_update, and one
// writev loop writes the three pieces (blob payloads are encoded into
// the header buffer).  serialize_frame concatenates the same pieces, so
// its image is byte for byte the file commit writes.  Pruning never
// removes the frame just committed, even one older than the newest
// keep_frames on disk.
//
// Load protocol (CheckpointLoader): walk frames newest-sequence-first and
// return the first that verifies -- magic, structural bounds, and CRC
// over the whole frame BEFORE any field is trusted.  A torn, truncated,
// or bit-flipped frame is rejected (with a reason, reported per file) and
// the walk falls back to the previous intact frame; if nothing intact
// remains the loader returns nullopt rather than ever returning garbage.
// tests/persist/torn_checkpoint_test.cpp enforces exactly that contract.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
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

// Commits frames into a checkpoint directory via write-temp-then-rename.
class CheckpointWriter {
 public:
  struct Options {
    // Intact frames to retain; older ones are pruned after each commit.
    // At least 2, so one bad newest frame always leaves a fallback.
    std::uint32_t keep_frames = 4;
    // fsync file and directory on commit (off only for tests that
    // hammer the write path).
    bool sync = true;
  };

  // Creates the directory if absent.  Throws std::runtime_error on IO
  // failure.
  CheckpointWriter(std::string dir, Options options);
  explicit CheckpointWriter(std::string dir)
      : CheckpointWriter(std::move(dir), Options{}) {}

  // Atomically commits one frame; returns the committed path.  Throws
  // std::runtime_error on IO failure, after removing the frame's temp
  // file, so the committed frames are as before the call.
  std::string commit(const CheckpointData& frame);

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  Options options_;
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
