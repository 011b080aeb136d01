// Linearizability checking for partial snapshot histories.
//
// Wing & Gong's algorithm with Lowe-style memoization: depth-first search
// over linearization orders, where at each point any operation whose
// invocation precedes every remaining operation's response ("minimal"
// operations) may linearize next; visited (remaining-set, abstract-state)
// pairs are cached so equivalent search branches are explored once.
//
// The sequential specification is the paper's Section 2.1 object: a vector
// of m components; update(i,v) mutates component i; scan(i1..ir) returns
// exactly the current values of those components.
//
// Pending operations -- invocations without responses, produced by the
// scheduler's halting-failure injection -- are handled per the standard
// definition: a pending update may be assigned a linearization point
// anywhere after its invocation or omitted entirely; a pending scan
// returned nothing and imposes no constraint, so it is ignored.
//
// General linearizability checking is NP-complete (that is fine: the
// histories come from the deterministic scheduler and are small).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "verify/history.h"

namespace psnap::verify {

enum class LinResult : std::uint8_t {
  kLinearizable,
  kNotLinearizable,
  kBudgetExceeded,  // search node budget exhausted (inconclusive)
};

struct LinCheckOptions {
  std::uint32_t num_components = 0;  // m, each starting at 0
  std::uint64_t max_nodes = 5'000'000;
};

struct LinCheckOutcome {
  LinResult result;
  std::uint64_t nodes_visited = 0;
  // On kNotLinearizable: a human-readable description of the stuck frontier.
  std::string diagnosis;
};

// ops may contain kUpdate, kScan, kScanVersioned, kUpdateBatch and kGrow
// operations.  kGrow is skipped (run the check against the final component
// count); kScanVersioned checks like kScan; a kUpdateBatch linearizes
// atomically at one point -- expand amortized-tier batches into per-entry
// kUpdates (sharing the batch's interval) before calling, as
// fuzz/oracles.h does.
LinCheckOutcome check_snapshot_linearizable(const std::vector<Operation>& ops,
                                            const LinCheckOptions& options);

}  // namespace psnap::verify
