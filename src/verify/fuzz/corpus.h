// Pinned regression corpus: repro tokens re-run at the start of every
// fuzz campaign, before any freshly generated cases.
//
// A token lands here when a schedule class once required a hand-written
// test to hit -- pinning it keeps the fuzzer regenerating that exact
// op-stream + schedule forever, independent of generator drift elsewhere
// (the plan is a pure function of the token's seeds).  On correct
// implementations every pinned token replays CLEAN; a pin that starts
// failing is a regression, not a flaky seed.
//
// Campaign runners fold pinned_corpus() into CampaignOptions::pinned_tokens.
// Tokens whose implementation is not registered in the running binary are
// skipped by the campaign (production binaries don't register mutants).
#pragma once

#include <string>
#include <vector>

namespace psnap::verify::fuzz {

// The Dekker-shaped announce/join edge from the DFS validity sweeps
// (tests/activeset/validity_sim_test.cpp, ChurnersAndObserverAllSchedules):
// two churners join/leave while an observer getSets twice, exercising the
// announce-then-read-vs-read-then-announce race in the FAI+CAS active set.
// This seed pair regenerates that shape -- three processes where churners
// interleave join/leave with an observing getSet stream.
inline constexpr char kPinnedAsetDekker[] =
    "psnapfuzz/1|aset|faicas|m0=1|procs=3|ops=4|op=7|sched=2f";

// Batched fig3 under the coalescing front-end: multi-entry flushes racing
// a versioned scan stream, the shape that stresses batch-tier expansion
// in the checker (PR 8) together with camera epochs (PR 6).
inline constexpr char kPinnedSnapBatchedScan[] =
    "psnapfuzz/1|snap|fig3_cas_batch:value=versioned,batch=3,"
    "coalesce_window=6|m0=3|procs=3|ops=5|op=11|sched=3";

// Growth racing scans on fig3: add_components interleaved with partial
// scans near the old/new boundary (the grow-only watermark oracle).  The
// Instrumented runtime's sim hooks are what let the schedule interleave
// the two.
inline constexpr char kPinnedSnapGrowth[] =
    "psnapfuzz/1|snap|fig3_cas:value=u64|m0=2|procs=3|ops=5|op=1d|"
    "sched=9";

// The try-once-CAS-vs-lazy-stamping race the fuzzer itself found on the
// versioned plane (campaign base_seed=123): an update whose try-once CAS
// loses linearizes immediately before the winner, but the winner's stamp
// fix used to float past the loser's response -- so a scan invoked after
// the loser returned could fetch an epoch below the winner's eventual
// stamp and miss both writes.  Fixed by ensure_stamped on the observed
// head in the failure branch (cas_psnap.cpp, do_update).  Two flavors:
// singleton winner, and a batch winner whose shared stamp is the one that
// floats.
inline constexpr char kPinnedSnapLoserStamp[] =
    "psnapfuzz/1|snap|fig3_cas:value=versioned|m0=2|procs=3|"
    "ops=4|op=120878d18ad3f6da|sched=25b55ac85950db3a";
inline constexpr char kPinnedSnapLoserStampBatch[] =
    "psnapfuzz/1|snap|fig3_cas:value=versioned|m0=2|procs=2|ops=5|"
    "op=397ddcbe50ba0e1|sched=e7c6347fe50c7a25";

inline std::vector<std::string> pinned_corpus() {
  return {kPinnedAsetDekker, kPinnedSnapBatchedScan, kPinnedSnapGrowth,
          kPinnedSnapLoserStamp, kPinnedSnapLoserStampBatch};
}

}  // namespace psnap::verify::fuzz
