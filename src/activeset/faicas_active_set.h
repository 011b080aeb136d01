// The paper's new active set algorithm (Figure 2, Section 4.1).
//
//   join:   l <- fetch&increment(H);  I[l] <- id          (O(1) steps)
//   leave:  I[l] <- 0                                     (O(1) steps)
//   getSet: oldC <- C; h <- H
//           walk I[1..h], skipping indices covered by oldC's intervals;
//           vacated entries are gathered and the union is published back
//           to C with a single compare&swap (losers simply move on).
//
// Invariant (the paper's one-line correctness argument): an index appears
// in an interval stored in C only after the corresponding entry of I was
// set to 0, and that entry never changes thereafter.
//
// One deviation from the pseudocode, required to keep that invariant true:
// the pseudocode tests "entry = 0" for vacated slots, but a slot can also
// read as fresh/unwritten when a joiner has performed its fetch&increment
// and not yet written its id.  Treating that transient state as vacated
// would permanently skip a process that is about to become active,
// violating the invariant ("... is set to 0 and never changes thereafter"
// -- a mid-join slot *does* still change).  We therefore distinguish three
// slot states: kEmpty (allocated, id not yet written; skipped but NOT added
// to the interval list), kVacated (left; added to the list), and an id.
// A mid-join process is neither active nor inactive, so omitting it is
// allowed by the specification.
//
// Space: slots are never recycled, exactly as in the paper (Section 6
// leaves recycling open).  When a bound on the total number of joins is
// known a priori the constructor accepts it and asserts it is respected,
// which is the bounded-space variant the paper sketches.
//
// Templated over the primitives' runtime policy (see primitives.h).
// Release-mode soundness, per operation:
//   * join: the F&I is acq_rel (slot indices stay unique) and the I[l]
//     id store is release, sequenced after the caller's announcement
//     store; a getSet that loads the id therefore also sees the
//     announcement -- the message-passing property Figures 1/3 need.
//     The converse direction (a getSet running after the caller's
//     post-join fence must SEE the join) is the Dekker-shaped half:
//     scanners fence between join and collects, and the I[] walk below
//     uses load_sync -- see the protocol-fence discussion in
//     primitives.h.
//   * getSet: reads C with acquire (the IntervalSet behind the pointer is
//     immutable and was release-published), H with acquire, and each I[l]
//     with load_sync as above.  The skip-list CAS is acq_rel.
//   * The paper's invariant only demands per-location ordering ("is set to
//     0 and never changes thereafter"), which coherence gives even
//     relaxed.
//
// Bookkeeping off the operation path: the only shared read-modify-writes
// a getSet performs are the paper's (the skip-list CAS) and the EBR epoch
// CAS inside its pin; counters follow reclaim/ebr.h's per-slot
// single-writer rule.  A getSet that publishes builds the new list in
// place, in a node recycled through a reclaim::Pool on this set's own EBR
// domain, so steady-state churn allocates nothing.  The publication count
// rides inside the published list (generation = old + 1, installed by the
// CAS that already runs) rather than in a shared counter.
#pragma once

#include <cstdint>
#include <vector>

#include "activeset/active_set.h"
#include "common/padding.h"
#include "core/growth.h"
#include "exec/pid_bound.h"
#include "intervals/interval_set.h"
#include "primitives/primitives.h"
#include "reclaim/ebr.h"
#include "reclaim/pool.h"
#include "segarray/segmented_array.h"

namespace psnap::activeset {

// Options are policy-independent so registry code can build them once and
// hand them to either runtime's constructor.
struct FaiCasOptions {
  // Coalesce adjacent intervals when publishing (Section 4.1's rule).
  // Disabled only by the ABL-1 ablation (spec option coalesce=false).
  bool coalesce = true;
  // Publish the vacated-interval list at all.  Disabled only by the ABL-1
  // ablation (publish=false), to measure how getSet cost degrades
  // without C.
  bool publish_skip_list = true;
  // The per-pid walk bound (exec/pid_bound.h).  Figure 2's I[] walk is
  // slot-indexed and already population-adaptive through the published
  // skip list (bounded by live joiners plus not-yet-skip-listed vacated
  // slots), so the bound's role here is sizing: getSet reserves its
  // result capacity at min(max_processes, bound) once instead of growing
  // the vector member by member.
  exec::PidBound bound;
};

template <class Policy = primitives::Instrumented>
class FaiCasActiveSetT final : public ActiveSet {
 public:
  using Options = FaiCasOptions;

  explicit FaiCasActiveSetT(std::uint32_t max_processes);
  FaiCasActiveSetT(std::uint32_t max_processes, Options options);
  ~FaiCasActiveSetT() override;

  void join() override;
  void leave() override;
  void get_set(std::vector<std::uint32_t>& out) override;
  using ActiveSet::get_set;

  std::string_view name() const override {
    return Policy::kCountsSteps ? "faicas-as" : "faicas-as-fast";
  }
  std::uint32_t max_processes() const override { return n_; }

  // --- observability for tests and benches ---
  // The currently published interval list (a copy, read under a pin).
  intervals::IntervalSet published_list() const;
  // Length of the currently published interval list.
  std::size_t published_intervals() const;
  // Highest slot index handed out so far.
  std::uint64_t slots_used() const { return h_.peek(); }
  // Number of successful publications of a new interval list: the
  // generation of the currently published one.
  std::uint64_t skip_list_publications() const;

 private:
  // What C points to: Figure 2's interval list plus the number of
  // publications that led to it.  Built in place before the publishing
  // CAS, immutable afterwards, recycled through pool_.
  struct SkipList {
    intervals::IntervalSet intervals;
    std::uint64_t generation = 0;
  };

  // Slot states; ids are stored as pid + kIdBase so they collide with
  // neither sentinel.
  static constexpr std::uint64_t kEmpty = 0;    // allocated, id not written
  static constexpr std::uint64_t kVacated = 1;  // left; eligible for skipping
  static constexpr std::uint64_t kIdBase = 2;

  std::uint32_t n_;
  Options options_;

  primitives::FetchIncrementT<Policy> h_;  // highest issued slot (1-based)
  primitives::CasObject<const SkipList*, Policy> c_;
  segarray::SegmentedArray<primitives::Register<std::uint64_t, Policy>> i_;

  // Per-process slot index from the most recent join (local state), in
  // grow-only per-pid storage so a dynamic thread population only pays for
  // the pids it actually registers.
  core::PerPidStorage<CachelinePadded<std::uint64_t>> my_slot_;

  // Declared before ebr_: ebr_'s destructor flushes retired lists into it.
  reclaim::Pool<SkipList> pool_;
  // Mutable: the const observability reads pin it too.
  mutable reclaim::EbrDomain ebr_;
};

using FaiCasActiveSet = FaiCasActiveSetT<primitives::Instrumented>;

}  // namespace psnap::activeset
