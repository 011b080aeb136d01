// The partial snapshot object interface (paper Section 2.1).
//
// A partial snapshot object stores a vector of m components from a domain D
// (here: uint64_t) and provides two linearizable operations:
//
//   * update(i, v): set component i to v;
//   * scan(i1..ir): atomically read components i1..ir -- the returned
//     values must all have been simultaneously present at the scan's
//     linearization point.
//
// Implementations in this library:
//   core::RegisterPartialSnapshot  -- Figure 1 (registers only)
//   core::CasPartialSnapshot       -- Figure 3 (CAS + F&I; local scans)
//   baseline::FullSnapshot         -- complete-scan extraction baseline (u64)
//   baseline::DoubleCollectSnapshot-- lock-free, no helping (u64)
//   baseline::LockSnapshot         -- global mutex reference (u64)
//   baseline::SeqlockSnapshot      -- global seqlock reference (u64, blob)
// Only Figure 3 has the versioned plane.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>
#include <vector>

#include "common/assert.h"
#include "primitives/value_plane.h"

namespace psnap::core {

struct ScanContext;

// The vector an object is constructed from (Section 2.1's initial
// vector): count() components, each starting at its payload from the
// given u64 or blob span, or at 0 when no span is given.  This is the
// only way to give an object an initial state; recovery::restore() builds
// from a checkpoint frame this way.  The payloads are written once, as
// construction builds each component: no operation runs, no pid is
// needed, and on the versioned plane they carry stamp 0, so every epoch
// sees them.  Implicit from a count, so a constructor or make_snapshot()
// call that passes m still reads the same.  The spans are borrowed: they
// must outlive the construction, not the object.  Blob payloads need the
// blob plane.
class InitialVector {
 public:
  InitialVector(std::uint32_t count = 0) : count_(count) {}  // NOLINT
  explicit InitialVector(std::span<const std::uint64_t> values)
      : count_(clamp(values.size())), values_(values) {}
  explicit InitialVector(std::span<const value::Blob> blobs)
      : count_(clamp(blobs.size())), blobs_(blobs) {}

  std::uint32_t count() const { return count_; }
  bool has_payloads() const { return !values_.empty() || !blobs_.empty(); }
  bool has_blobs() const { return !blobs_.empty(); }

  // Writes component i's starting payload, on plane Value, into `out`:
  // the one given, or 0 if none was.
  template <class Value>
  void fill(std::uint64_t i, typename Value::ValueType& out) const {
    if constexpr (Value::kIndirect) {
      if (i < blobs_.size()) return Value::copy(blobs_[i], out);
    } else {
      PSNAP_ASSERT_MSG(blobs_.empty(), "blob payloads need the blob plane");
    }
    Value::encode(i < values_.size() ? values_[i] : 0, out);
  }

 private:
  // A span too long for a count saturates, so the component limit
  // (core/growth.h) refuses it instead of a wrapped count passing.
  static std::uint32_t clamp(std::size_t n) {
    return n > ~std::uint32_t{0} ? ~std::uint32_t{0}
                                 : static_cast<std::uint32_t>(n);
  }

  std::uint32_t count_;
  std::span<const std::uint64_t> values_;
  std::span<const value::Blob> blobs_;
};

// One component write of a batched update (update_batch below).
struct BatchEntry {
  std::uint32_t index;
  std::uint64_t value;
};

// The blob plane's batch entry: the bytes are borrowed for the duration of
// the update_batch_blob call, like update_blob's span.
struct BlobBatchEntry {
  std::uint32_t index;
  std::span<const std::byte> bytes;
};

// What a scan can observe of a k-entry batch (batch_atomicity below):
//
//   kUnsupported -- the implementation has no batch path (fig1); the batch
//                   entry points throw std::logic_error.
//   kAmortized   -- the k writes share one announcement/helping round/grace
//                   period (the cost amortization), but each entry
//                   linearizes individually: a concurrent scan may observe
//                   a prefix of the batch.
//   kAtomic      -- the whole batch linearizes at one point: no scan ever
//                   observes some of the batch's writes without the others.
enum class BatchAtomicity { kUnsupported, kAmortized, kAtomic };

class PartialSnapshot {
 public:
  virtual ~PartialSnapshot() = default;

  // The current component count.  Monotone at runtime: construction sets
  // the initial count (InitialVector::count()) and add_components() grows
  // it; there is no shrink.
  virtual std::uint32_t num_components() const = 0;
  virtual std::string_view name() const = 0;

  // True if every operation completes in a bounded number of its own steps.
  virtual bool is_wait_free() const = 0;
  // True if scan complexity depends only on r (never on m) -- the property
  // the paper is after.
  virtual bool is_local() const = 0;

  // Appends `count` fresh components (initialized to the object's initial
  // value) and returns the index of the first; the new indices are
  // [first, first+count).  Concurrent with updates and scans: an operation
  // that began before the grow may or may not observe the enlarged count,
  // but every index below the count it DID observe is valid for its whole
  // duration (grow-only segmented storage -- no reader's pointer is ever
  // invalidated).  Concurrent add_components calls receive disjoint
  // blocks.  Lock-free for the wait-free implementations; the lock/seqlock
  // baselines serialize growth through their global writer section, in
  // character for those baselines.  A request past the component limit
  // (core::kMaxComponents) throws std::length_error and changes nothing;
  // so does constructing an object above it.
  virtual std::uint32_t add_components(std::uint32_t count) = 0;

  // Sets component i (0-based, < num_components) to v on behalf of
  // exec::ctx().pid.
  virtual void update(std::uint32_t i, std::uint64_t v) = 0;

  // ---- Batched updates ----
  //
  // Applies k component writes as ONE protocol instance: one EBR pin, one
  // announcement-set read + helping round (collect planes), one version
  // stamp (versioned planes), one grace period -- the per-write cost of
  // the singleton protocol amortizes over the batch.  Entries are applied
  // in order; when two entries name the same component the later one wins.
  // An empty span is a no-op.
  //
  // Consistency is per-implementation, reported by batch_atomicity():
  // kAtomic implementations guarantee no scan observes a torn batch;
  // kAmortized ones only share the protocol cost.  On the versioned plane
  // a batch RETRIES until every entry is applied (lock-free), unlike the
  // singleton update's wait-free try-once CAS -- ingest batches must not
  // silently drop writes.
  //
  // The default implementations throw std::logic_error (fig1 has no batch
  // path; update_batch_blob additionally requires the blob plane).
  virtual void update_batch(std::span<const BatchEntry> entries);
  virtual void update_batch_blob(std::span<const BlobBatchEntry> entries);

  // What a concurrent scan can observe of a batch (kUnsupported when the
  // entry points above throw).
  virtual BatchAtomicity batch_atomicity() const {
    return BatchAtomicity::kUnsupported;
  }

  void update_batch(std::initializer_list<BatchEntry> il) {
    update_batch(std::span<const BatchEntry>(il.begin(), il.size()));
  }

  // Reads the given components atomically; out[k] receives the value of
  // indices[k] (indices may be unsorted and may contain duplicates; an
  // empty set yields an empty result).  Resizes and fills `out`.  The
  // scan's local work beyond its shared-memory steps -- canonicalizing the
  // index set and extracting the result -- is O(r) for strictly increasing
  // indices and O(r log r) otherwise.  A strictly increasing set is read in
  // place (core::canonical_indices: no copy) and, when the view holds
  // exactly those components, its result is copied by position; unsorted
  // or repeating sets, and borrowed views that cover more than the scan's
  // set, find each component with a forward cursor (core::extract_view).
  //
  // `ctx` provides the operation's scratch storage (collect buffers,
  // canonical index set, embedded-scan view); reusing one context across
  // calls makes the steady-state scan allocation-free.  The two-argument
  // overload forwards the calling pid's context (pid_scan_context()).
  virtual void scan(std::span<const std::uint32_t> indices,
                    std::vector<std::uint64_t>& out, ScanContext& ctx) = 0;

  void scan(std::span<const std::uint32_t> indices,
            std::vector<std::uint64_t>& out);

  // ---- The value plane (primitives/value_plane.h) ----
  //
  // Every implementation stores one of the payload planes, chosen at
  // construction (registry option value=u64|blob|versioned): "u64" keeps
  // today's word components; "blob" stores variable-size byte payloads
  // behind the object's record indirection; "versioned" keeps word
  // payloads but publishes them through per-component version chains
  // ordered by a global camera epoch (primitives/version_chain.h), which
  // turns scans constant-time per component.  On EVERY plane the u64
  // operations above work -- on the blob plane update(i, v) publishes an
  // 8-byte payload encoding v and scan decodes a payload's first 8 bytes
  // (native-endian, zero-extended); on the versioned plane scan() routes
  // through the epoch walk -- so u64-driven harnesses exercise any plane
  // unchanged.
  virtual std::string_view value_plane() const { return "u64"; }

  // ---- The reclamation plane (reclaim/) ----
  //
  // How published records are reclaimed, chosen at construction (registry
  // option reclaim=ebr|hp on the implementations that support both):
  // "ebr" pins an epoch per operation (cheap, but a stalled reader delays
  // every later retirement in its domain -- or its shard, with shards>1);
  // "hp" protects individual records with hazard pointers (a stalled
  // reader delays at most the handful of records it protects).  Purely an
  // engineering axis: the protocol's step counts and linearizability are
  // identical on either plane.
  virtual std::string_view reclaim_plane() const { return "ebr"; }
  // Number of independent reclamation domains (EBR sharding; 1 everywhere
  // except fig3_cas instances built with shards=k).
  virtual std::uint32_t reclaim_shards() const { return 1; }
  // Retired-but-not-yet-freed records, aggregated over the instance's
  // domains.  Quiescent-read observability for the RCL bench and tests; 0
  // for implementations that do not expose it.
  virtual std::uint64_t reclaim_outstanding() const { return 0; }

  // Sets component i to an arbitrary byte payload, atomically, on behalf
  // of exec::ctx().pid.  Blob plane only: the u64 plane (the default
  // implementation here) throws std::logic_error.
  virtual void update_blob(std::uint32_t i, std::span<const std::byte> bytes);

  // Reads the given components' payloads atomically (same consistency
  // contract as scan, same index semantics); out[k] receives a copy of
  // indices[k]'s payload, reusing out's element capacity.  Blob plane
  // only: the u64 plane throws std::logic_error.
  virtual void scan_blobs(std::span<const std::uint32_t> indices,
                          std::vector<value::Blob>& out, ScanContext& ctx);

  void scan_blobs(std::span<const std::uint32_t> indices,
                  std::vector<value::Blob>& out);

  // Reads the given components atomically through the version-chain walk
  // (same consistency contract and index semantics as scan) and returns
  // the epoch the scan linearized at: one camera fetch-add, then per
  // component the newest version at or below that epoch.  Epochs returned
  // to one thread are strictly increasing, and a value stamped at epoch e
  // is visible to every scan with epoch >= e -- the "camera" semantics
  // callers can key retries/merges off.  Versioned plane only: the other
  // planes (the default implementation here) throw std::logic_error.
  virtual std::uint64_t scan_versioned(std::span<const std::uint32_t> indices,
                                       std::vector<std::uint64_t>& out,
                                       ScanContext& ctx);

  std::uint64_t scan_versioned(std::span<const std::uint32_t> indices,
                               std::vector<std::uint64_t>& out);

  // Convenience forms.
  std::vector<std::uint64_t> scan(std::span<const std::uint32_t> indices) {
    std::vector<std::uint64_t> out;
    scan(indices, out);
    return out;
  }
  std::vector<std::uint64_t> scan(std::initializer_list<std::uint32_t> il) {
    std::vector<std::uint32_t> idx(il);
    return scan(std::span<const std::uint32_t>(idx));
  }
  // Complete scan (partial scan of all components).
  std::vector<std::uint64_t> scan_all();
};

}  // namespace psnap::core
