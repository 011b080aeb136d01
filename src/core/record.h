// Shared record types for the snapshot algorithms.
//
// Both algorithms store, per component, a pointer to an immutable record
// carrying (value, view, counter, id) -- the paper's large register
// contents, realized as its own suggested variant "store a pointer to a set
// of registers" (Section 3).  A RecordHeader holds what every plane
// publishes (value, counter, pid); the collect planes' RecordT adds the
// view, and the versioned plane's VersionedRecordT the chain fields
// instead (48 bytes either way on the word planes).  Records are:
//
//   * immutable after publication: a record is fully built before the
//     store/CAS that publishes it, and never written again;
//   * uniquely tagged: (pid, counter) pairs are never reused across
//     *published* records, reproducing the paper's "no two write operations
//     write exactly the same contents" ABA argument;
//   * reclaimed through EBR (or hazard pointers): readers dereference
//     records only while protected, so pointer identity is also ABA-safe
//     within one operation.
//
// Where records live.  An update's record comes from a reclaim::Pool, and
// a pool that is still warming up heap-allocates it.  Figure 1's and
// Figure 3's INITIAL records -- one per component, installed by the
// constructor and add_components -- are instead built in place in a
// ComponentStorage the object owns (build_initial_records), so building an
// object of m components allocates once per storage segment (1024
// components), not m times.  Each is written once, in the pass that
// constructs its segment, with its final payload: the constructor's
// InitialVector (a restored checkpoint's values) or the initial value.
// Past construction a storage-owned record is an ordinary record: an
// update displaces it, the pool recycles it, and a later update
// republishes it with a real tag.  Only its memory differs, and it says so
// in its storage_owned bit, which no life of the record ever clears.
//
// Disposal.  Every record delete -- an owner's destructor sweep over its
// heads, chain predecessors and crashed batches, and Pool teardown -- goes
// through RecordHeader::dispose, the one rule: delete a heap record, skip a
// storage-owned one, whose storage frees it.  An owner declares its
// initial-record storage before its pools, and its pools before its
// reclamation domain, so teardown runs domain flush -> pools -> storage.
//
// Everything here is templated over the payload type V of the value plane
// (primitives/value_plane.h): V = std::uint64_t on the direct plane (the
// historical types keep their names as aliases), V = value::Blob on the
// indirect plane.  The record is the indirection the blob plane rides: an
// update builds the payload inside the (pooled) record and publishes both
// with the one atomic store/CAS the algorithm already performs.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "common/assert.h"
#include "core/growth.h"
#include "core/partial_snapshot.h"
#include "primitives/value_plane.h"
#include "primitives/version_chain.h"

namespace psnap::core {

// pid value used for the pre-installed initial records (not a real process).
inline constexpr std::uint32_t kInitPid = ~std::uint32_t{0};

// One (component, value) pair of an embedded-scan result.
template <class V>
struct ViewEntryT {
  std::uint32_t index;
  V value;

  friend bool operator==(const ViewEntryT&, const ViewEntryT&) = default;
};

// A view is a vector of ViewEntryT sorted by component index.  A scan
// extracts its components from it with extract_view.
template <class V>
using ViewT = std::vector<ViewEntryT<V>>;

using ViewEntry = ViewEntryT<std::uint64_t>;
using View = ViewT<std::uint64_t>;
using BlobViewEntry = ViewEntryT<value::Blob>;
using BlobView = ViewT<value::Blob>;

// Finds `key` among the strictly increasing keys proj(keys[0..n-1]) from
// the hint `cursor`: gallops forward from it, then bisects the bracket it
// lands in; a key behind the cursor restarts from 0.  Returns the key's
// position (n if absent) and moves `cursor` past it.  A lookup that skips g
// keys reads at most 3 + 2g of them, O(log g) asymptotically, so increasing
// keys cost amortized O(1) each and any other key O(log distance).
template <class Keys, class Proj = std::identity>
std::size_t cursor_find(const Keys& keys, std::uint32_t key,
                        std::size_t& cursor, Proj proj = {}) {
  const std::size_t n = std::size(keys);
  auto key_at = [&](std::size_t j) { return std::invoke(proj, keys[j]); };
  std::size_t lo = cursor < n ? cursor : n;
  if (lo > 0 && key_at(lo - 1) >= key) lo = 0;
  // Every key before lo is < key; key_at(hi) >= key once a probe finds it.
  std::size_t hi = n;
  for (std::size_t step = 1; lo + step - 1 < n; step *= 2) {
    if (key_at(lo + step - 1) >= key) {
      hi = lo + step - 1;
      break;
    }
    lo += step;
  }
  const auto first = std::ranges::begin(keys);
  lo = std::ranges::lower_bound(first + lo, first + hi, key, {}, proj) - first;
  const bool found = lo < n && key_at(lo) == key;
  cursor = lo + found;
  return found ? lo : n;
}

// Looks up `index` in a sorted view with cursor_find; returns nullptr if
// absent.  Start `cursor` at 0 for each view.
template <class V>
const ViewEntryT<V>* view_find(const ViewT<V>& view, std::uint32_t index,
                               std::size_t& cursor) {
  const std::size_t k = cursor_find(view, index, cursor, &ViewEntryT<V>::index);
  return k == view.size() ? nullptr : &view[k];
}

// A scan's result extraction: emit(k, value) receives indices[k]'s value
// in `view`.  When the view has as many entries as the caller asked for
// and the caller's indices are the canonical set the scan collected, entry
// k is component indices[k]: it is copied by position, its index checked
// as it goes.  From the first entry that does not match -- an unsorted or
// repeating caller, or a borrowed superset view -- the rest are looked up
// in the caller's order with one forward cursor.  The correctness argument
// guarantees every announced index is present, borrowed views included.
template <class V, class Emit>
void extract_view(const ViewT<V>& view, std::span<const std::uint32_t> indices,
                  Emit&& emit) {
  std::size_t k = 0;
  if (view.size() == indices.size()) {
    for (; k < indices.size() && view[k].index == indices[k]; ++k) {
      emit(k, view[k].value);
    }
  }
  std::size_t cursor = k;
  for (; k < indices.size(); ++k) {
    const ViewEntryT<V>* e = view_find(view, indices[k], cursor);
    PSNAP_ASSERT_MSG(e != nullptr,
                     "borrowed view is missing an announced component");
    emit(k, e->value);
  }
}

// The view an embedded scan of no components returns: an update with no
// scanners.  Not a context's view, so the context's entries -- and on the
// blob plane their byte buffers -- survive for the pid's next scan.
template <class V>
inline const ViewT<V> kEmptyView{};

// The part of a record both kinds of plane share: the payload and the
// (pid, counter) tag.
template <class V>
struct RecordHeader {
  V value{};
  std::uint64_t counter = 0;     // per-process publication counter
  std::uint32_t pid = kInitPid;  // writing process
  // Set once, on an initial record built in its object's storage; it
  // survives every recycle and republication (the memory stays the
  // storage's).  Sits in the padding after pid, so it costs no size.
  bool storage_owned = false;

  bool is_initial() const { return pid == kInitPid; }

  // The one disposal rule (see the header comment): delete a heap record,
  // leave a storage-owned one to its storage.  Rec is the record's full
  // type -- RecordHeader has no virtual destructor.
  template <class Rec>
  static void dispose(const Rec* rec) {
    if (rec != nullptr && !rec->storage_owned) delete rec;
  }
};

// The collect planes' record: the header plus the view of the update's
// embedded scan, which a concurrent scan may borrow (condition (2)).
template <class V>
struct RecordT : RecordHeader<V> {
  ViewT<V> view;
};

using Record = RecordT<std::uint64_t>;
static_assert(sizeof(Record) == 48,
              "storage_owned must fit the padding after pid");

// The versioned plane's record (primitives/version_chain.h): the header
// extended with the chain fields.  A publication appends the record to its
// component's version chain (prev set before the publishing CAS, version
// fixed afterwards by the publish-then-stamp protocol), so the record
// doubles as the plane's version node -- no second allocation, same
// Pool/EBR lifecycle.  Versioned scans never collect, so no update embeds
// a scan and the record carries no view.
template <class V>
struct VersionedRecordT : RecordHeader<V> {
  mutable std::atomic<std::uint64_t> version{primitives::kUnstamped};
  std::atomic<const VersionedRecordT<V>*> prev{nullptr};
  // Non-null while the record is an unresolved update_batch member
  // (primitives::BatchControl); singleton publications clear it.
  std::atomic<const primitives::BatchControl*> batch{nullptr};
};

static_assert(sizeof(VersionedRecordT<std::uint64_t>) == 48,
              "versioned records carry the header and the chain fields only");

// The record type a value plane publishes: versioned planes carry the
// chain fields, the others are plain RecordT.
template <class Value>
using RecordFor =
    std::conditional_t<Value::kVersioned,
                       VersionedRecordT<typename Value::ValueType>,
                       RecordT<typename Value::ValueType>>;

// Builds component `index`'s initial record in place in `rec`, a freshly
// constructed slot of the owner's initial-record storage: its payload from
// `initial`, the sentinel pid, the component index as the counter, which
// keeps every record tag unique, and storage_owned set.  On the versioned
// plane the initial record roots its chain: version 0 (older than every
// epoch), no predecessor.
template <class Value>
void init_initial_record(RecordFor<Value>& rec, const InitialVector& initial,
                         std::uint64_t index) {
  initial.fill<Value>(index, rec.value);
  rec.counter = index;
  rec.pid = kInitPid;
  rec.storage_owned = true;
  if constexpr (Value::kVersioned) {
    rec.version.store(primitives::kInitialVersion, std::memory_order_relaxed);
  }
}

// Builds components [first, first + count) of fig1 or fig3, one storage
// segment at a time (SegmentedArray::build): the segment's initial
// records in place in `records` (init_initial_record), then its heads,
// each pointing at its record.  A segment's records are contiguous, so a
// head finds its record by offset, with one directory lookup per segment,
// not per component.  The constructor builds [0, m) and add_components its
// reserved block, so both leave the same storage.
template <class Value, class Records, class Heads>
void build_initial_records(Records& records, Heads& heads, std::uint32_t first,
                           std::uint32_t count, const InitialVector& initial) {
  const std::uint64_t end = std::uint64_t{first} + count;
  for (std::uint64_t lo = first; lo < end;) {
    const std::uint64_t hi = std::min<std::uint64_t>(
        end, (lo / kComponentSegmentSize + 1) * kComponentSegmentSize);
    records.build(lo, hi - lo, [&](auto& slot, std::uint64_t i) {
      init_initial_record<Value>(*slot, initial, i);
    });
    auto* recs = &records.at(lo);
    heads.build(lo, hi - lo, [&](auto& head, std::uint64_t i) {
      head->init(&*recs[i - lo], /*label=*/i);
    });
    lo = hi;
  }
}

// An announced index set (the contents of the paper's A[p] / S[p]
// registers): sorted, duplicate-free component indices, heap-allocated and
// published by pointer.
struct IndexSet {
  std::vector<std::uint32_t> indices;
};

// Canonicalizes an index list in place: sorted, duplicates removed.  A
// strictly increasing list costs one linear check and no sort.
void canonicalize(std::vector<std::uint32_t>& indices);

// A scan's canonical index set.  A non-empty, strictly increasing
// `indices` already is one and comes back as is: no copy.  Any other set
// is copied into `canonical` and canonicalized there, and the returned
// span views `canonical`.
std::span<const std::uint32_t> canonical_indices(
    std::span<const std::uint32_t> indices,
    std::vector<std::uint32_t>& canonical);

}  // namespace psnap::core
