#include "activeset/faicas_active_set.h"

#include <algorithm>

#include "common/assert.h"
#include "exec/exec.h"

namespace psnap::activeset {

using intervals::IntervalSet;

template <class Policy>
FaiCasActiveSetT<Policy>::FaiCasActiveSetT(std::uint32_t max_processes)
    : FaiCasActiveSetT(max_processes, Options{}) {}

template <class Policy>
FaiCasActiveSetT<Policy>::FaiCasActiveSetT(std::uint32_t max_processes,
                                           Options options)
    : n_(max_processes), options_(options), c_(new SkipList()) {
  PSNAP_ASSERT(max_processes > 0);
}

template <class Policy>
FaiCasActiveSetT<Policy>::~FaiCasActiveSetT() {
  // Retired lists are drained into pool_ by the EbrDomain destructor; the
  // currently published list is still owned here.
  delete c_.peek();
}

template <class Policy>
void FaiCasActiveSetT<Policy>::join() {
  std::uint32_t pid = exec::ctx().pid;
  PSNAP_ASSERT(pid < n_);
  std::uint64_t l = h_.fetch_increment();  // 1-based slot index
  i_.at(l - 1).store(kIdBase + pid);
  my_slot_.at(pid).value = l;
}

template <class Policy>
void FaiCasActiveSetT<Policy>::leave() {
  std::uint32_t pid = exec::ctx().pid;
  PSNAP_ASSERT(pid < n_);
  std::uint64_t l = my_slot_.at(pid).value;
  PSNAP_ASSERT_MSG(l != 0, "leave without a preceding join");
  i_.at(l - 1).store(kVacated);
  my_slot_.at(pid).value = 0;
}

template <class Policy>
void FaiCasActiveSetT<Policy>::get_set(std::vector<std::uint32_t>& out) {
  out.clear();
  // Reserve once at the population bound; repeated collects then reuse
  // the caller's capacity with no member-by-member growth (the get_set
  // allocation audit in tests/activeset/getset_alloc_test.cpp).
  out.reserve(options_.bound.get(n_));
  auto guard = ebr_.pin();

  const SkipList* old_c = c_.load();
  std::uint64_t h = h_.read();

  // Reusable vacated-slot scratch: per native thread, cleared per call,
  // capacity retained -- so collects stay allocation-free even while
  // concurrent churn keeps producing vacated slots to gather.  (Not a
  // member: concurrent getSets by different threads must not share it.)
  static thread_local std::vector<std::uint64_t> vacated_scratch;
  std::vector<std::uint64_t>& vacated = vacated_scratch;
  vacated.clear();
  const IntervalSet empty;
  const IntervalSet& skip =
      options_.publish_skip_list ? old_c->intervals : empty;
  if (h > 0) {
    skip.for_each_gap(1, h, [&](std::uint64_t l) {
      // load_sync: the getSet end of the announce/join handshake -- a
      // join the scanner fenced before our walk must be seen here (see
      // primitives.h).
      std::uint64_t entry = i_.at(l - 1).load_sync();
      if (entry == kVacated) {
        vacated.push_back(l);
      } else if (entry != kEmpty) {
        out.push_back(static_cast<std::uint32_t>(entry - kIdBase));
      }
      // kEmpty: a process between its fetch&increment and its id write.
      // Neither a member nor skippable -- see the header comment.
    });
  }

  if (options_.publish_skip_list && !vacated.empty()) {
    // Publish oldC ∪ vacated with one CAS; on failure another getSet
    // advanced the list and our additions will be rediscovered (charged,
    // in the amortized analysis, to the leaves that wrote the zeros).
    // The new list is built in a recycled node: `vacated` is ascending
    // (walk order), so the build is one linear merge into the node's
    // retained capacity.  The pool handle owns the node until
    // publication: a lost CAS or an injected halt at the CAS step (crash
    // tests) returns it to this thread's free list.
    auto new_c = pool_.acquire(ebr_);
    new_c->intervals.assign_union(old_c->intervals, vacated,
                                  options_.coalesce);
    new_c->generation = old_c->generation + 1;
    if (c_.compare_and_swap_bool(old_c, new_c.get())) {
      new_c.release();
      pool_.recycle(ebr_, const_cast<SkipList*>(old_c));
    }
  }

  // The same process can legitimately appear in two slots within one scan
  // of I (it left slot a and re-joined into slot b mid-getSet); the
  // abstraction returns a set, so deduplicate.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

template <class Policy>
IntervalSet FaiCasActiveSetT<Policy>::published_list() const {
  auto guard = ebr_.pin();
  return c_.peek()->intervals;
}

template <class Policy>
std::size_t FaiCasActiveSetT<Policy>::published_intervals() const {
  auto guard = ebr_.pin();
  return c_.peek()->intervals.size();
}

template <class Policy>
std::uint64_t FaiCasActiveSetT<Policy>::skip_list_publications() const {
  auto guard = ebr_.pin();
  return c_.peek()->generation;
}

template class FaiCasActiveSetT<primitives::Instrumented>;
template class FaiCasActiveSetT<primitives::Release>;

}  // namespace psnap::activeset
