// Shared record types for the snapshot algorithms.
//
// Both algorithms store, per component, a pointer to an immutable heap
// record carrying (value, view, counter, id) -- the paper's large register
// contents, realized as its own suggested variant "store a pointer to a set
// of registers" (Section 3).  Records are:
//
//   * immutable after publication: a record is fully built before the
//     store/CAS that publishes it, and never written again;
//   * uniquely tagged: (pid, counter) pairs are never reused across
//     *published* records, reproducing the paper's "no two write operations
//     write exactly the same contents" ABA argument;
//   * reclaimed through EBR: readers dereference records only while pinned,
//     so pointer identity is also ABA-safe within one operation.
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
// extracts its components from it with view_find's forward cursor.
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
// in `view`, looked up in the caller's order with one forward cursor.  The
// correctness argument guarantees every announced index is present,
// borrowed views included.
template <class V, class Emit>
void extract_view(const ViewT<V>& view, std::span<const std::uint32_t> indices,
                  Emit&& emit) {
  std::size_t cursor = 0;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const ViewEntryT<V>* e = view_find(view, indices[k], cursor);
    PSNAP_ASSERT_MSG(e != nullptr,
                     "borrowed view is missing an announced component");
    emit(k, e->value);
  }
}

template <class V>
struct RecordT {
  V value{};
  std::uint64_t counter = 0;     // per-process publication counter
  std::uint32_t pid = kInitPid;  // writing process
  ViewT<V> view;                 // the update's embedded-scan result

  bool is_initial() const { return pid == kInitPid; }
};

using Record = RecordT<std::uint64_t>;

// The versioned plane's record (primitives/version_chain.h): the same
// pooled immutable record, extended with the chain fields.  A publication
// appends the record to its component's version chain (prev set before the
// publishing CAS, version fixed afterwards by the publish-then-stamp
// protocol), so the record doubles as the plane's version node -- no
// second allocation, same Pool/EBR lifecycle.
template <class V>
struct VersionedRecordT : RecordT<V> {
  mutable std::atomic<std::uint64_t> version{primitives::kUnstamped};
  std::atomic<const VersionedRecordT<V>*> prev{nullptr};
  // Non-null while the record is an unresolved update_batch member
  // (primitives::BatchControl); singleton publications clear it.
  std::atomic<const primitives::BatchControl*> batch{nullptr};
};

// The record type a value plane publishes: versioned planes carry the
// chain fields, the others are plain RecordT.
template <class Value>
using RecordFor =
    std::conditional_t<Value::kVersioned,
                       VersionedRecordT<typename Value::ValueType>,
                       RecordT<typename Value::ValueType>>;

// Builds a pre-installed initial record (constructor / add_components
// paths of fig1 and fig3): sentinel pid, the component index as the
// counter, which keeps every record tag unique.  On the versioned plane
// the initial record roots its chain: version 0 (older than every epoch),
// no predecessor.
template <class Value>
RecordFor<Value>* make_initial_record(std::uint64_t initial_value,
                                      std::uint32_t index) {
  auto* rec = new RecordFor<Value>();
  Value::encode(initial_value, rec->value);
  rec->counter = index;
  rec->pid = kInitPid;
  if constexpr (Value::kVersioned) {
    rec->version.store(primitives::kInitialVersion,
                       std::memory_order_relaxed);
  }
  return rec;
}

// The seed() loop of the record-publishing implementations (fig1, fig3,
// the full-snapshot and double-collect baselines).  The seed contract (no
// operation has run, no other thread holds the object) leaves every
// component's head the initial record the constructor or add_components
// installed, reachable by nobody else, so its payload is written in place;
// on the versioned plane it keeps its stamp 0 and null prev.
// `head_at(i)` is a non-step read of component i's head; `fill(i, payload)`
// writes component i's payload.
template <class HeadAt, class Fill>
void seed_initial_records(std::uint32_t m, HeadAt&& head_at, Fill&& fill) {
  for (std::uint32_t i = 0; i < m; ++i) {
    const auto* head = head_at(i);
    PSNAP_ASSERT_MSG(head->pid == kInitPid,
                     "seed() after an update: the seed contract requires a "
                     "freshly constructed object");
    using Rec = std::remove_cvref_t<decltype(*head)>;
    fill(i, const_cast<Rec*>(head)->value);
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

}  // namespace psnap::core
