// Per-operation observability counters.
//
// Reset at the start of every update/scan and filled in as the operation
// runs.  The benchmark harness reads them after each call to reproduce the
// quantities Theorems 1-3 are stated in (collects per embedded scan,
// embedded-scan argument counts, getSet sizes) without perturbing the
// algorithms.  They live in the caller's exec::ThreadCtx, so concurrent
// benchmark threads see their own.
#pragma once

#include <cstdint>

namespace psnap::core {

struct OpStats {
  // Collects performed by the operation's embedded scan.
  std::uint64_t collects = 0;
  // Operation terminated through condition (2) (borrowed a view).
  bool borrowed = false;
  // Number of argument components of the embedded scan (for updates: the
  // size of the union of announced scan sets).
  std::uint64_t embedded_args = 0;
  // Number of scanners returned by getSet (updates only).
  std::uint64_t getset_size = 0;
  // The update's compare&swap failed (CAS-based algorithm only).
  bool cas_failed = false;
  // Versioned plane: the longest version-chain walk any component of the
  // scan needed (1 = every head was already at or below the epoch -- the
  // quiescent steady state the chain-boundedness tests pin down).
  std::uint64_t chain_nodes = 0;
  // Versioned plane: the epoch the scan linearized at.
  std::uint64_t epoch = 0;
  // update_batch: number of distinct components the batch wrote (after
  // last-wins coalescing of duplicate indices).  0 for singleton ops.
  std::uint64_t batch_size = 0;

  void reset() { *this = OpStats{}; }
};

// Stats of the most recent operation performed by this thread
// (exec::ctx().op_stats).
OpStats& tls_op_stats();

}  // namespace psnap::core
