#include "persist/checkpoint.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <system_error>

#include "common/assert.h"
#include "persist/crc32.h"

namespace psnap::persist {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[8] = {'P', 'S', 'N', 'P', 'C', 'K', 'P', '1'};
constexpr std::size_t kCrcBytes = sizeof(std::uint32_t);
constexpr std::string_view kFramePrefix = "ckpt-";
constexpr std::string_view kFrameSuffix = ".psnap";

enum class Plane : std::uint32_t { kU64 = 0, kBlob = 1, kVersioned = 2 };

std::optional<Plane> plane_from_name(std::string_view name) {
  if (name == "u64") return Plane::kU64;
  if (name == "blob") return Plane::kBlob;
  if (name == "versioned") return Plane::kVersioned;
  return std::nullopt;
}

std::string_view plane_name(Plane plane) {
  switch (plane) {
    case Plane::kU64: return "u64";
    case Plane::kBlob: return "blob";
    case Plane::kVersioned: return "versioned";
  }
  return "u64";
}

template <class T>
void append_raw(std::vector<std::byte>& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

void append_bytes(std::vector<std::byte>& out,
                  std::span<const std::byte> bytes) {
  // resize + memcpy instead of insert(end, first, last): GCC 12's -O2
  // stringop-overflow analysis misreads the range-insert over span
  // iterators as a write past the end and fails the -Werror release
  // build.
  if (bytes.empty()) return;
  const std::size_t old_size = out.size();
  out.resize(old_size + bytes.size());
  std::memcpy(out.data() + old_size, bytes.data(), bytes.size());
}

// Bounds-checked cursor over an untrusted byte image.  Every read is
// validated against the remaining length BEFORE dereferencing, so a
// bit-flipped length field can at worst make parsing fail, never read out
// of bounds or allocate absurd amounts.
struct Cursor {
  std::span<const std::byte> bytes;
  std::size_t pos = 0;

  std::size_t remaining() const { return bytes.size() - pos; }

  template <class T>
  bool read(T& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) return false;
    std::memcpy(&out, bytes.data() + pos, sizeof(T));
    pos += sizeof(T);
    return true;
  }

  bool read_bytes(std::size_t n, std::span<const std::byte>& out) {
    if (remaining() < n) return false;
    out = bytes.subspan(pos, n);
    pos += n;
    return true;
  }
};

bool fail(std::string* error, std::string_view reason) {
  if (error != nullptr) *error = std::string(reason);
  return false;
}

// Parses "<prefix><seq><suffix>"; nullopt for anything else (tmp orphans,
// stray files).
std::optional<std::uint64_t> frame_sequence(std::string_view name) {
  if (name.size() <= kFramePrefix.size() + kFrameSuffix.size()) {
    return std::nullopt;
  }
  if (name.substr(0, kFramePrefix.size()) != kFramePrefix ||
      name.substr(name.size() - kFrameSuffix.size()) != kFrameSuffix) {
    return std::nullopt;
  }
  std::string_view digits = name.substr(
      kFramePrefix.size(),
      name.size() - kFramePrefix.size() - kFrameSuffix.size());
  std::uint64_t seq = 0;
  auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), seq);
  if (ec != std::errc{} || ptr != digits.data() + digits.size()) {
    return std::nullopt;
  }
  return seq;
}

struct CloseDir {
  void operator()(DIR* dir) const { ::closedir(dir); }
};
using DirHandle = std::unique_ptr<DIR, CloseDir>;

DirHandle open_directory(const std::string& dir) {
  return DirHandle(::opendir(dir.c_str()));
}

// The frames in an open directory as (sequence, file name), ascending,
// from one readdir pass.  d_type answers "regular file?" without a stat;
// for a symlink, or where the file system leaves d_type unknown, fstatat
// decides (following the link, as opening it would).
std::vector<std::pair<std::uint64_t, std::string>> list_frames(DIR* dir) {
  std::vector<std::pair<std::uint64_t, std::string>> frames;
  while (const dirent* entry = ::readdir(dir)) {
    const std::optional<std::uint64_t> seq = frame_sequence(entry->d_name);
    if (!seq) continue;
    bool regular = entry->d_type == DT_REG;
    if (entry->d_type == DT_UNKNOWN || entry->d_type == DT_LNK) {
      struct stat st {};
      regular = ::fstatat(::dirfd(dir), entry->d_name, &st, 0) == 0 &&
                S_ISREG(st.st_mode);
    }
    if (regular) frames.emplace_back(*seq, entry->d_name);
  }
  std::sort(frames.begin(), frames.end());
  return frames;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void fsync_path(const std::string& path, bool directory) {
  int flags = O_RDONLY;
#ifdef O_DIRECTORY
  if (directory) flags |= O_DIRECTORY;
#endif
  int fd = ::open(path.c_str(), flags);
  if (fd < 0) throw_errno("open for fsync " + path);
  if (::fsync(fd) != 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("fsync " + path);
  }
  ::close(fd);
}

// One frame's byte image in the three pieces it is written from:
// `header` is magic through the index list (on the blob plane followed by
// the length-prefixed payloads, encoded into the same buffer), `payload`
// the frame's own u64 values in place (empty on the blob plane), and
// `trailer` the CRC over both.  The writer hands the pieces to writev;
// serialize_frame concatenates them.
struct EncodedFrame {
  std::vector<std::byte> header;
  std::span<const std::byte> payload;
  std::array<std::byte, kCrcBytes> trailer{};

  std::size_t size() const {
    return header.size() + payload.size() + trailer.size();
  }
};

// The one frame encoder.  The result borrows frame.values, so it must
// not outlive the frame.
EncodedFrame encode_frame(const CheckpointData& frame) {
  auto plane = plane_from_name(frame.value_plane);
  if (!plane) {
    throw std::invalid_argument("serialize_frame: unknown value plane '" +
                                frame.value_plane + "'");
  }
  const std::size_t entries = frame.entry_count();
  const std::size_t payloads =
      *plane == Plane::kBlob ? frame.blobs.size() : frame.values.size();
  if (payloads != entries) {
    throw std::invalid_argument(
        "serialize_frame: " + std::to_string(payloads) + " payloads for " +
        std::to_string(entries) + " entries");
  }
  for (std::uint32_t i : frame.indices) {
    if (i >= frame.num_components) {
      throw std::invalid_argument(
          "serialize_frame: partial-frame index " + std::to_string(i) +
          " >= m=" + std::to_string(frame.num_components));
    }
  }

  // The exact header size, so the one allocation below is the only one.
  std::size_t header_size = sizeof(kMagic) + 2 * sizeof(std::uint64_t) +
                            6 * sizeof(std::uint32_t) +
                            frame.impl_spec.size() +
                            frame.indices.size() * sizeof(std::uint32_t);
  if (*plane == Plane::kBlob) {
    for (const value::Blob& blob : frame.blobs) {
      header_size += sizeof(std::uint32_t) + blob.size();
    }
  }

  EncodedFrame out;
  std::vector<std::byte>& header = out.header;
  header.reserve(header_size);
  append_bytes(header, std::as_bytes(std::span(kMagic)));
  append_raw(header, frame.sequence);
  append_raw(header, frame.epoch);
  append_raw(header, static_cast<std::uint32_t>(*plane));
  append_raw(header, frame.initial_m);
  append_raw(header, frame.num_components);
  append_raw(header, frame.max_threads);
  append_raw(header, static_cast<std::uint32_t>(frame.impl_spec.size()));
  append_raw(header, static_cast<std::uint32_t>(frame.indices.size()));
  append_bytes(header, std::as_bytes(std::span(frame.impl_spec)));
  append_bytes(header, std::as_bytes(std::span(frame.indices)));
  if (*plane == Plane::kBlob) {
    for (const value::Blob& blob : frame.blobs) {
      append_raw(header, static_cast<std::uint32_t>(blob.size()));
      append_bytes(header, blob);
    }
  } else {
    out.payload = std::as_bytes(std::span(frame.values));
  }
  PSNAP_ASSERT(header.size() == header_size);

  const std::uint32_t crc = crc32_finish(
      crc32_update(crc32_update(crc32_init(), header), out.payload));
  std::memcpy(out.trailer.data(), &crc, kCrcBytes);
  return out;
}

}  // namespace

std::vector<std::byte> serialize_frame(const CheckpointData& frame) {
  const EncodedFrame encoded = encode_frame(frame);
  std::vector<std::byte> out;
  out.reserve(encoded.size());
  append_bytes(out, encoded.header);
  append_bytes(out, encoded.payload);
  append_bytes(out, encoded.trailer);
  return out;
}

std::optional<CheckpointData> parse_frame(std::span<const std::byte> bytes,
                                          std::string* error) {
  auto reject = [&](std::string_view why) -> std::optional<CheckpointData> {
    fail(error, why);
    return std::nullopt;
  };

  // Integrity first: nothing in the image is believed until the CRC over
  // everything before the trailer matches the trailer.
  if (bytes.size() < sizeof(kMagic) + kCrcBytes) {
    return reject("frame shorter than header + CRC trailer");
  }
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - kCrcBytes,
              kCrcBytes);
  if (crc32(bytes.first(bytes.size() - kCrcBytes)) != stored_crc) {
    return reject("CRC mismatch");
  }

  Cursor cur{bytes.first(bytes.size() - kCrcBytes)};
  std::span<const std::byte> magic;
  if (!cur.read_bytes(sizeof(kMagic), magic) ||
      std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
    return reject("bad magic");
  }

  CheckpointData frame;
  std::uint32_t plane_id = 0, spec_len = 0, index_count = 0;
  if (!cur.read(frame.sequence) || !cur.read(frame.epoch) ||
      !cur.read(plane_id) || !cur.read(frame.initial_m) ||
      !cur.read(frame.num_components) || !cur.read(frame.max_threads) ||
      !cur.read(spec_len) || !cur.read(index_count)) {
    return reject("truncated header");
  }
  if (plane_id > static_cast<std::uint32_t>(Plane::kVersioned)) {
    return reject("unknown value plane id");
  }
  const Plane plane = static_cast<Plane>(plane_id);
  frame.value_plane = std::string(plane_name(plane));
  if (frame.initial_m > frame.num_components) {
    return reject("initial_m exceeds component count");
  }

  std::span<const std::byte> spec_bytes;
  if (!cur.read_bytes(spec_len, spec_bytes)) {
    return reject("truncated registry spec");
  }
  frame.impl_spec.assign(reinterpret_cast<const char*>(spec_bytes.data()),
                         spec_bytes.size());

  if (index_count > cur.remaining() / sizeof(std::uint32_t)) {
    return reject("truncated index list");
  }
  frame.indices.resize(index_count);
  for (std::uint32_t& i : frame.indices) {
    if (!cur.read(i)) return reject("truncated index list");
    if (i >= frame.num_components) return reject("index out of range");
  }

  const std::size_t entries = frame.entry_count();
  if (plane == Plane::kBlob) {
    // Every entry carries at least its length prefix: a count the bytes
    // left cannot hold is rejected before it sizes an allocation.
    if (entries > cur.remaining() / sizeof(std::uint32_t)) {
      return reject("truncated blob payload");
    }
    frame.blobs.reserve(entries);
    for (std::size_t k = 0; k < entries; ++k) {
      std::uint32_t len = 0;
      std::span<const std::byte> payload;
      if (!cur.read(len) || !cur.read_bytes(len, payload)) {
        return reject("truncated blob payload");
      }
      frame.blobs.emplace_back(payload.begin(), payload.end());
    }
  } else {
    std::span<const std::byte> payload;
    if (entries > cur.remaining() / sizeof(std::uint64_t) ||
        !cur.read_bytes(entries * sizeof(std::uint64_t), payload)) {
      return reject("truncated value payload");
    }
    frame.values.resize(entries);
    if (!payload.empty()) {
      std::memcpy(frame.values.data(), payload.data(), payload.size());
    }
  }
  if (cur.remaining() != 0) {
    return reject("trailing bytes after payload");
  }
  return frame;
}

CheckpointWriter::CheckpointWriter(std::string dir, Options options)
    : dir_(std::move(dir)),
      spare_path_(dir_ + "/" + std::string(kSpareName)),
      options_(options) {
  if (options_.keep_frames < 2) options_.keep_frames = 2;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw std::runtime_error("CheckpointWriter: cannot create '" + dir_ +
                             "': " + ec.message());
  }
  // The one listing: adopt the frames an earlier writer left (a spare it
  // left needs no adopting; the first commit opens it by name).
  if (DirHandle d = open_directory(dir_)) frames_ = list_frames(d.get());
}

std::string CheckpointWriter::commit(const CheckpointData& frame) {
  const EncodedFrame encoded = encode_frame(frame);
  std::pair<std::uint64_t, std::string> entry(
      frame.sequence, std::string(kFramePrefix) +
                          std::to_string(frame.sequence) +
                          std::string(kFrameSuffix));
  const std::string final_path = dir_ + "/" + entry.second;

  // The spare is the inode the last prune retired: overwritten in place,
  // then cut to the frame's size.  O_CREAT makes a fresh one only when
  // there is none (the first commits into a directory, or after a failed
  // commit or an outside unlink removed it).
  int fd = ::open(spare_path_.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) throw_errno("open " + spare_path_);
  // Every later failure closes the file if it is open and unlinks the
  // spare (best effort), so a failed commit leaves the committed frames as
  // they were and no half-written file behind; the exception reports the
  // failing call's errno.
  auto fail = [this](int open_fd, const std::string& what) {
    const int saved = errno;
    if (open_fd >= 0) ::close(open_fd);
    ::unlink(spare_path_.c_str());
    errno = saved;
    throw_errno(what);
  };
  // header | payload | trailer straight from their buffers; a partial
  // write resumes inside the piece it stopped in.
  std::array<iovec, 3> pieces = {{
      {const_cast<std::byte*>(encoded.header.data()), encoded.header.size()},
      {const_cast<std::byte*>(encoded.payload.data()),
       encoded.payload.size()},
      {const_cast<std::byte*>(encoded.trailer.data()),
       encoded.trailer.size()},
  }};
  iovec* next = pieces.data();
  int left = static_cast<int>(pieces.size());
  while (left > 0) {
    ssize_t n = ::writev(fd, next, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(fd, "write " + spare_path_);
    }
    auto written = static_cast<std::size_t>(n);
    for (; left > 0 && written >= next->iov_len; ++next, --left) {
      written -= next->iov_len;
    }
    if (left > 0) {
      next->iov_base = static_cast<std::byte*>(next->iov_base) + written;
      next->iov_len -= written;
    }
  }
  if (::ftruncate(fd, static_cast<off_t>(encoded.size())) != 0) {
    fail(fd, "ftruncate " + spare_path_);
  }
  if (options_.sync && ::fdatasync(fd) != 0) {
    fail(fd, "fdatasync " + spare_path_);
  }
  ::close(fd);
  if (::rename(spare_path_.c_str(), final_path.c_str()) != 0) {
    fail(-1, "rename " + spare_path_ + " -> " + final_path);
  }

  // Prune: keep the newest keep_frames frames and the one just committed,
  // even when its sequence is older than those.  The oldest victim is
  // renamed to the spare name for the next commit and any others are
  // unlinked, best effort: a victim that vanished is only forgotten.
  // Pruning after the commit means a crash anywhere in here leaves MORE
  // history than asked for, never less, and the directory fsync below
  // makes the commit's rename and the spare's rename durable together, so
  // no later commit overwrites a file a crash could bring back under a
  // frame name.
  auto at = std::lower_bound(frames_.begin(), frames_.end(), entry);
  if (at == frames_.end() || *at != entry) {
    at = frames_.insert(at, std::move(entry));
  }
  const auto committed = static_cast<std::size_t>(at - frames_.begin());
  const std::size_t victims = frames_.size() > options_.keep_frames
                                  ? frames_.size() - options_.keep_frames
                                  : 0;
  bool recycled = false;
  std::size_t kept = 0;
  for (std::size_t k = 0; k < frames_.size(); ++k) {
    if (k >= victims || k == committed) {
      if (kept != k) frames_[kept] = std::move(frames_[k]);
      ++kept;
      continue;
    }
    const std::string victim = dir_ + "/" + frames_[k].second;
    if (!recycled && ::rename(victim.c_str(), spare_path_.c_str()) == 0) {
      recycled = true;
    } else {
      ::unlink(victim.c_str());
    }
  }
  frames_.resize(kept);
  if (options_.sync) fsync_path(dir_, /*directory=*/true);
  return final_path;
}

CheckpointLoader::CheckpointLoader(std::string dir) : dir_(std::move(dir)) {}

std::vector<std::string> CheckpointLoader::frame_paths() const {
  std::vector<std::string> out;
  DirHandle d = open_directory(dir_);
  if (!d) return out;
  const auto frames = list_frames(d.get());
  for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
    out.push_back(dir_ + "/" + it->second);
  }
  return out;
}

std::optional<CheckpointData> CheckpointLoader::load_newest(
    Report* report) const {
  // Frames open relative to the listed directory: one path walk per load.
  DirHandle d = open_directory(dir_);
  if (!d) return std::nullopt;
  const auto frames = list_frames(d.get());
  for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
    const std::string& name = it->second;
    auto reject = [&](std::string_view why) {
      if (report != nullptr) {
        report->rejected.push_back(dir_ + "/" + name + ": " +
                                   std::string(why));
      }
    };
    std::unique_ptr<std::byte[]> image;
    std::size_t got = 0;
    {
      int fd = ::openat(::dirfd(d.get()), name.c_str(), O_RDONLY | O_CLOEXEC);
      if (fd < 0) {
        reject(std::strerror(errno));
        continue;
      }
      // The size fstat reports is the image's size: read straight into a
      // buffer of that size, left uninitialized because the read fills
      // it.  A short read leaves a truncated image, and a frame a
      // concurrent commit retires and overwrites meanwhile a mixed one;
      // the parser rejects either like any other torn frame.
      struct stat st {};
      bool ok = ::fstat(fd, &st) == 0;
      std::size_t size = 0;
      if (ok) {
        size = static_cast<std::size_t>(st.st_size);
        image = std::make_unique_for_overwrite<std::byte[]>(size);
      }
      while (ok && got < size) {
        ssize_t n = ::read(fd, image.get() + got, size - got);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0) ok = false;
        if (n <= 0) break;
        got += static_cast<std::size_t>(n);
      }
      ::close(fd);
      if (!ok) {
        reject("read failed");
        continue;
      }
    }
    std::string error;
    if (auto frame = parse_frame(std::span(image.get(), got), &error)) {
      return frame;
    }
    reject(error);
  }
  return std::nullopt;
}

}  // namespace psnap::persist
