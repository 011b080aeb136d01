// Lock-free grow-only segmented array.
//
// Figure 2's active set uses an unbounded array I[1..] of registers: each
// join claims a fresh slot via fetch&increment and the slot is never
// recycled (the paper leaves recycling as an open problem, Section 6).
// SegmentedArray provides that unbounded array: a fixed directory of
// atomically installed fixed-size segments.  Slot addresses are stable
// forever once created, which the algorithm relies on (a leave writes 0
// into its old slot with no synchronization beyond the register write).
//
// Segment installation uses a single CAS on the directory entry; losers
// delete their segment.  Installation is memory management, not an
// algorithm step, so it is not counted by exec::on_step (the contained
// elements are themselves step-counted primitives).
//
// Two ways in: at(i) installs a value-initialized segment on first touch
// (lazy per-pid state), and build(first, count, init) initializes a whole
// index range, building each segment it installs in one pass (the
// component storage of every snapshot object, at construction and in
// add_components).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <new>

#include "common/assert.h"

namespace psnap::segarray {

// Defaults give 4M slots with a 32KB directory per array instance; both
// parameters are compile-time tunable.
template <class T, std::size_t kSegmentSize = 1024,
          std::size_t kMaxSegments = 1 << 12>
class SegmentedArray {
  static_assert(kSegmentSize > 0 && (kSegmentSize & (kSegmentSize - 1)) == 0,
                "segment size must be a power of two");

 public:
  SegmentedArray() {
    for (auto& d : directory_) d.store(nullptr, std::memory_order_relaxed);
  }

  ~SegmentedArray() {
    for (auto& d : directory_) {
      delete d.load(std::memory_order_relaxed);
    }
  }

  SegmentedArray(const SegmentedArray&) = delete;
  SegmentedArray& operator=(const SegmentedArray&) = delete;

  static constexpr std::uint64_t capacity() {
    return static_cast<std::uint64_t>(kSegmentSize) * kMaxSegments;
  }

  // Returns the element at index, creating its segment if needed.  The
  // reference is valid for the lifetime of the array.
  T& at(std::uint64_t index) {
    PSNAP_ASSERT_MSG(index < capacity(), "SegmentedArray capacity exceeded");
    std::size_t seg = static_cast<std::size_t>(index / kSegmentSize);
    std::size_t off = static_cast<std::size_t>(index % kSegmentSize);
    Segment* s = directory_[seg].load(std::memory_order_acquire);
    if (s == nullptr) {
      // A value-initialized segment: no slot is in an init range.
      s = install(seg, Segment::build(0, 0, [](T&, std::uint64_t) {}, 0),
                  [](T&) {}, 0, 0);
    }
    return s->slots[off];
  }

  // Initializes slots [first, first + count): init(slot, index) runs once
  // per index on the installed array, in increasing index order.  A
  // segment this call installs is built in one pass before the CAS that
  // publishes it: each slot is constructed and, inside the range, handed
  // to init in the same iteration, so its memory is written once.  The
  // in-range slots of a segment that is already installed go to init in
  // place.  If another thread installs a segment between our check and our
  // CAS, ours is destroyed and init runs again on the winner's slots;
  // discard(slot) first releases whatever init put in each in-range slot
  // of the destroyed segment that the slot's destructor does not free.
  template <class InitFn, class DiscardFn>
  void build(std::uint64_t first, std::uint64_t count, InitFn&& init,
             DiscardFn&& discard) {
    PSNAP_ASSERT_MSG(count <= capacity() && first <= capacity() - count,
                     "SegmentedArray capacity exceeded");
    const std::uint64_t end = first + count;
    for (std::uint64_t i = first; i < end;) {
      const std::size_t seg = static_cast<std::size_t>(i / kSegmentSize);
      const std::uint64_t base = std::uint64_t{seg} * kSegmentSize;
      const std::size_t lo = static_cast<std::size_t>(i - base);
      const std::size_t hi = static_cast<std::size_t>(
          std::min<std::uint64_t>(kSegmentSize, end - base));
      Segment* s = directory_[seg].load(std::memory_order_acquire);
      if (s == nullptr) {
        Segment* fresh = Segment::build(lo, hi, init, base);
        s = install(seg, fresh, discard, lo, hi);
        if (s == fresh) {
          i = base + hi;
          continue;
        }
      }
      for (std::size_t off = lo; off < hi; ++off) {
        init(s->slots[off], base + off);
      }
      i = base + hi;
    }
  }

  template <class InitFn>
  void build(std::uint64_t first, std::uint64_t count, InitFn&& init) {
    build(first, count, init, [](T&) {});
  }

  // Read-only variant that must not allocate: returns nullptr if the
  // segment does not exist yet (the caller treats the slot as
  // "never written").
  const T* try_at(std::uint64_t index) const {
    PSNAP_ASSERT_MSG(index < capacity(), "SegmentedArray capacity exceeded");
    std::size_t seg = static_cast<std::size_t>(index / kSegmentSize);
    std::size_t off = static_cast<std::size_t>(index % kSegmentSize);
    const Segment* s = directory_[seg].load(std::memory_order_acquire);
    if (s == nullptr) return nullptr;
    return &s->slots[off];
  }

  // Number of segments currently allocated (observability for tests).
  std::size_t allocated_segments() const {
    std::size_t n = 0;
    for (const auto& d : directory_) {
      if (d.load(std::memory_order_relaxed) != nullptr) ++n;
    }
    return n;
  }

 private:
  // The slots live in a union so that Segment::build can construct them
  // one at a time; a Segment is only ever destroyed fully constructed.
  struct Segment {
    union {
      T slots[kSegmentSize];
    };

    Segment() {}
    ~Segment() { std::destroy_n(slots, kSegmentSize); }

    // Value-initializes every slot and runs init on those in [lo, hi), in
    // one pass.  `base` is the index of slot 0.
    template <class InitFn>
    static Segment* build(std::size_t lo, std::size_t hi, InitFn&& init,
                          std::uint64_t base) {
      auto* s = new Segment;
      for (std::size_t off = 0; off < kSegmentSize; ++off) {
        T* slot = ::new (&s->slots[off]) T();
        if (off >= lo && off < hi) init(*slot, base + off);
      }
      return s;
    }
  };

  // Publishes a fully built segment; the release CAS orders its
  // construction before any acquire load.  Returns the installed segment:
  // `fresh`, or the winner's, in which case `fresh` is discarded.
  template <class DiscardFn>
  Segment* install(std::size_t seg, Segment* fresh, DiscardFn&& discard,
                   std::size_t lo, std::size_t hi) {
    Segment* expected = nullptr;
    if (directory_[seg].compare_exchange_strong(expected, fresh,
                                                std::memory_order_acq_rel)) {
      return fresh;
    }
    for (std::size_t off = lo; off < hi; ++off) discard(fresh->slots[off]);
    delete fresh;
    return expected;
  }

  std::atomic<Segment*> directory_[kMaxSegments];
};

}  // namespace psnap::segarray
