// Bitmap active set: one membership bit per pid, collected a word at a
// time.
//
// The register active set spends one base-object read per pid it walks;
// with the watermark bound that is O(live population) reads.  This
// implementation packs 64 membership flags into each AtomicBits word
// (primitives.h), so
//
//   join:   one fetch_or of the pid's bit        (O(1) steps)
//   leave:  one fetch_and clearing the bit       (O(1) steps)
//   getSet: read ceil(bound/64) words and iterate their set bits
//           (O(live/64) steps with the adaptive PidBound)
//
// -- a collect whose step count is 1/64th of the register walk's, meeting
// the same specification as the register substitution Figure 1 owns.
// Words are cacheline-padded so join/leave RMWs by
// pids in different 64-pid blocks never false-share; pids within a block
// do share their word, which is the price of the packed collect (the
// paper's model charges per base object, and 64 flags per readable base
// object is the whole win).
//
// Specification fit (Section 2.1): a set bit IS membership -- join's RMW
// linearizes the transition to active, leave's RMW the transition to
// inactive, so a getSet word read observes each pid's state at one instant
// and never returns an inactive process.  Concurrent joins/leaves resolve
// per word read, which the (deliberately weak) active-set spec allows.
// Pids at or beyond the walk bound can only be mid-join (the bound covers
// every pid whose acquisition completed before the collect started; see
// exec/pid_bound.h), and a mid-join process may be omitted.
//
// Release-mode soundness carries over from register_active_set.h
// unchanged, both directions of the Dekker-shaped handshake: (a) an
// update whose getSet reads pid p's bit synchronizes-with p's acq_rel
// join RMW and therefore sees p's earlier announcement; (b) a scanner
// fences (seq_cst, primitives::protocol_fence) between its join and its
// collects, and getSet reads both the walk bound and the words with
// seq_cst loads (high_watermark_sync / AtomicBits::load_sync), so an
// update whose walk runs after that fence cannot miss the scanner.
#pragma once

#include <memory>
#include <vector>

#include "activeset/active_set.h"
#include "common/padding.h"
#include "exec/pid_bound.h"
#include "primitives/primitives.h"

namespace psnap::activeset {

template <class Policy = primitives::Instrumented>
class BitmapActiveSetT final : public ActiveSet {
 public:
  explicit BitmapActiveSetT(std::uint32_t max_processes,
                            exec::PidBound bound = {});

  void join() override;
  void leave() override;
  void get_set(std::vector<std::uint32_t>& out) override;
  using ActiveSet::get_set;

  std::string_view name() const override {
    return Policy::kCountsSteps ? "bitmap-as" : "bitmap-as-fast";
  }
  std::uint32_t max_processes() const override { return n_; }

 private:
  static constexpr std::uint32_t kBitsPerWord = 64;

  std::uint32_t n_;
  std::uint32_t num_words_;
  exec::PidBound bound_;
  // Fixed at construction (ceil(n/64) words): membership is per-pid state
  // with a hard capacity, not grow-only history, and at the registry's
  // 128-pid ceiling the whole bitmap is two cache lines.
  std::unique_ptr<CachelinePadded<primitives::AtomicBits<Policy>>[]> words_;
};

using BitmapActiveSet = BitmapActiveSetT<primitives::Instrumented>;

}  // namespace psnap::activeset
