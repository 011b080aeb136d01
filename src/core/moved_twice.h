// Population-adaptive table for the condition-(2) "moved twice" helping
// rule, shared by Figure 1 and the full-snapshot baseline (see the
// multi-writer soundness discussion in register_psnap.cpp).  Figure 3
// publishes by CAS and borrows per location instead (core/cas_psnap.cpp).
//
// The table has one slot per pid that publishes during the scan.  The seed
// implementation arena-took max_processes slots -- an O(max_threads)
// zero-fill on EVERY embedded scan, even with two threads live out of 128.
// This version sizes the table at the PidBound walk bound and regrows
// mid-scan on the rare occasion a record from a fresher pid appears:
//
//   * sizing by the bound is usually exact -- a record observed during the
//     scan was published by a live pid, and live pids are below the
//     watermark the bound read returned... unless the publisher acquired
//     its pid after that read;
//   * in that one case (pid >= table size) the table re-takes a larger
//     zero-filled span from the arena and copies itself over.  The copy is
//     O(current size), happens at most a handful of times per scan (sizes
//     double, capped at max_processes), and only when the thread
//     population is actively growing -- never in steady state, so the
//     allocation-free guarantees (scan_alloc_test / update_alloc_test)
//     and the collect-bound asserts are unaffected.
//
// Rec must expose `pid`, `counter`, and `is_initial()`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/assert.h"
#include "core/scan_context.h"

namespace psnap::core {

template <class Rec>
class MovedTwiceTable {
 public:
  // `initial` is the PidBound walk bound at scan start; `capacity` the
  // hard pid ceiling (max_processes).
  MovedTwiceTable(ScanArena& arena, std::uint32_t initial,
                  std::uint32_t capacity)
      : arena_(arena),
        capacity_(capacity),
        seen_(arena.take<Slot>(std::min(std::max(initial, 1u), capacity))) {}

  // Called for a record that just appeared as a change at some location;
  // returns the record to borrow from once its process has two moves --
  // the later of the two ("the one with the highest counter field"): its
  // update began after the earlier move's write, hence after this scan
  // began.
  //
  // A move is an OPERATION, keyed by (pid, counter), not a record: a
  // batch is one move with k records.  Its records share a counter
  // because they share one embedded scan, and counting them as separate
  // moves would let a scan borrow a view whose collect predates it (two
  // "moves" from a single batch prove nothing about when that batch's
  // scan began).  So one move can show up as k changes, and a caller's
  // collect bound must allow for that (full_snapshot.cpp).  For singleton
  // updates -- one record per operation -- the counter key degenerates to
  // the historical record identity.
  const Rec* note_move(const Rec* rec) {
    PSNAP_ASSERT(!rec->is_initial());  // initial records are never published
    Slot& s = slot(rec->pid);
    for (std::uint32_t k = 0; k < s.count; ++k) {
      if (s.moved[k]->counter == rec->counter) return nullptr;  // same op
    }
    s.moved[s.count++] = rec;
    if (s.count < 2) return nullptr;
    return s.moved[0]->counter > s.moved[1]->counter ? s.moved[0]
                                                     : s.moved[1];
  }

 private:
  // Zero-filled arena storage is the empty state.
  struct Slot {
    const Rec* moved[2];
    std::uint32_t count;
  };

  Slot& slot(std::uint32_t pid) {
    PSNAP_ASSERT_MSG(pid < capacity_,
                     "record published by a pid beyond max_processes");
    if (pid >= seen_.size()) {
      // A pid acquired after our bound read published during this scan:
      // re-take wider (doubling, so regrowth is logarithmic in the
      // population) and carry the bookkeeping over.
      std::uint32_t want = std::min(
          capacity_,
          std::max(pid + 1, 2 * static_cast<std::uint32_t>(seen_.size())));
      std::span<Slot> wider = arena_.take<Slot>(want);
      std::copy(seen_.begin(), seen_.end(), wider.begin());
      seen_ = wider;
    }
    return seen_[pid];
  }

  ScanArena& arena_;
  std::uint32_t capacity_;
  std::span<Slot> seen_;
};

}  // namespace psnap::core
