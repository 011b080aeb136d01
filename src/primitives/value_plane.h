// The value plane: what a component's payload IS, as a compile-time policy.
//
// The paper treats each component as one opaque register word, and until
// this header the whole stack hard-coded that word as std::uint64_t.  Real
// workloads carry string sensor ids, struct telemetry records, blobs --
// and the algorithms never cared: they synchronize on the *identity* of an
// immutable record published through one atomic word, not on the payload's
// shape (Wei et al. and Kallimanis & Kanellou both get arbitrary payloads
// from exactly this indirection; see PAPERS.md).
//
// A Value policy picks the payload representation, orthogonally to the
// Instrumented/Release runtime policy (primitives.h):
//
//   * DirectU64 -- today's behavior, bit-identical and zero-cost: the
//     payload is the 64-bit word itself.  The default and the fast path.
//
//   * IndirectBlob -- the payload is an owned, variable-size byte buffer
//     living behind the indirection each algorithm already has:
//       - fig1/fig3 publish immutable heap records through an atomic
//         pointer; the blob is embedded in the
//         record, so it rides the existing pool + EBR lifecycle (pooled
//         records keep the blob vector's capacity across lives -- steady
//         state updates stay allocation-free, and a crash-unwound update
//         returns its unpublished record, blob and all, to the pool
//         instantly);
//       - the seqlock baseline stored raw words; its cells become
//         primitives::ValueCell pointers to standalone pooled BlobNodes
//         (value_cell.h) -- the "CAS'd pointer to an immutable payload
//         record" construction, one extra acquire dereference per read and
//         one pool acquire per update.
//     The full-snapshot, double-collect and lock baselines are u64-only.
//
// Every implementation still speaks the logical-u64 interface
// (PartialSnapshot::update/scan) on BOTH planes -- on the blob plane a
// logical u64 round-trips through an 8-byte payload -- so the sim
// linearizability, validity, crash, growth, and churn suites cover
// indirect values without a parallel harness.  Arbitrary payloads go
// through PartialSnapshot::update_blob/scan_blobs, which the u64 plane
// rejects.
//
// Value policies never perform shared-memory operations themselves: a
// plane only says how payload bytes are stored and copied.  Step counts
// are therefore IDENTICAL across planes -- the paper's theorems, stated in
// base-object steps, hold unchanged on the blob plane.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

namespace psnap::value {

// An owned payload: arbitrary bytes, capacity retained across re-fills
// (vector assignment never shrinks capacity), so blobs embedded in pooled
// records re-fill without touching the heap once warmed up.
using Blob = std::vector<std::byte>;

// The payload plane of the original algorithms: one 64-bit word.
struct DirectU64 {
  using ValueType = std::uint64_t;
  static constexpr bool kIndirect = false;
  static constexpr bool kVersioned = false;
  static constexpr std::string_view kName = "u64";

  static void encode(std::uint64_t v, ValueType& out) { out = v; }
  static std::uint64_t decode(const ValueType& v) { return v; }
  // Payload-to-payload copy (view building, borrow extraction).
  static void copy(const ValueType& src, ValueType& dst) { dst = src; }
};

// The versioned read plane (primitives/version_chain.h): the payload is
// still one 64-bit word, but every publication appends an immutable
// {value, version, prev} node to a per-component version chain and a
// global camera epoch orders them.  Scans become constant-time per
// component -- grab an epoch, walk each requested chain to the newest
// node at or below it -- with no collects, no helping round, and no
// seqlock retries; see PartialSnapshot::scan_versioned.  The plane policy
// itself is payload-only (bit-identical to DirectU64); the chain fields
// live in Figure 3's records (core::VersionedRecordT), keyed off
// kVersioned.
struct VersionedU64 {
  using ValueType = std::uint64_t;
  static constexpr bool kIndirect = false;
  static constexpr bool kVersioned = true;
  static constexpr std::string_view kName = "versioned";

  static void encode(std::uint64_t v, ValueType& out) { out = v; }
  static std::uint64_t decode(const ValueType& v) { return v; }
  static void copy(const ValueType& src, ValueType& dst) { dst = src; }
};

// Larger-than-word payloads: owned byte buffers behind the record
// indirection.  The logical-u64 interface maps onto the first 8 bytes
// (native-endian, zero-extended when the payload is shorter), so a blob
// object driven only through update()/scan() behaves exactly like a u64
// object -- which is what lets every existing harness cover this plane.
struct IndirectBlob {
  using ValueType = Blob;
  static constexpr bool kIndirect = true;
  static constexpr bool kVersioned = false;
  static constexpr std::string_view kName = "blob";

  static void encode(std::uint64_t v, Blob& out) {
    out.resize(sizeof v);  // capacity-retaining
    std::memcpy(out.data(), &v, sizeof v);
  }
  static std::uint64_t decode(const Blob& b) {
    std::uint64_t v = 0;
    if (!b.empty()) std::memcpy(&v, b.data(), std::min(b.size(), sizeof v));
    return v;
  }
  static void copy(const Blob& src, Blob& dst) { dst = src; }

  static void assign(Blob& dst, std::span<const std::byte> bytes) {
    dst.assign(bytes.begin(), bytes.end());
  }
};

// Convenience for examples/tests publishing trivially-copyable structs.
template <class T>
std::span<const std::byte> as_bytes_of(const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(&v), sizeof(T));
}

// Reads a trivially-copyable struct back out of a blob; returns false on a
// size mismatch (e.g. a component still holding its 8-byte initial
// payload).
template <class T>
bool from_bytes(const Blob& b, T& out) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (b.size() != sizeof(T)) return false;
  std::memcpy(&out, b.data(), sizeof(T));
  return true;
}

}  // namespace psnap::value
