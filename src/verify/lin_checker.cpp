#include "verify/lin_checker.h"

#include <algorithm>
#include <unordered_set>

#include "common/assert.h"

namespace psnap::verify {

namespace {

// Search-state key: which operations have linearized (bitmask) plus the
// exact component values.  Exact equality -- a hash collision must not be
// able to fake a visited state, so the full state participates in
// operator==.
struct StateKey {
  std::uint64_t mask;
  std::vector<std::uint64_t> components;

  bool operator==(const StateKey&) const = default;
};

struct StateKeyHash {
  std::size_t operator()(const StateKey& key) const {
    // FNV-1a over mask and components.
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t x) {
      h ^= x;
      h *= 1099511628211ull;
    };
    mix(key.mask);
    for (std::uint64_t v : key.components) mix(v);
    return static_cast<std::size_t>(h);
  }
};

class Searcher {
 public:
  Searcher(const std::vector<Operation>& ops, const LinCheckOptions& options)
      : ops_(ops),
        options_(options),
        state_(options.num_components, 0) {}

  LinCheckOutcome run() {
    LinCheckOutcome outcome;
    std::uint64_t all = ops_.size() == 64
                            ? ~std::uint64_t{0}
                            : ((std::uint64_t{1} << ops_.size()) - 1);
    completed_mask_ = 0;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (ops_[i].complete()) completed_mask_ |= std::uint64_t{1} << i;
    }
    bool ok = dfs(all);
    outcome.nodes_visited = nodes_;
    if (budget_hit_) {
      outcome.result = LinResult::kBudgetExceeded;
    } else if (ok) {
      outcome.result = LinResult::kLinearizable;
    } else {
      outcome.result = LinResult::kNotLinearizable;
      outcome.diagnosis = diagnosis_.empty()
                              ? "no linearization order can explain the "
                                "recorded scan results"
                              : diagnosis_;
    }
    return outcome;
  }

 private:
  // remaining: bitmask of operations not yet linearized.
  bool dfs(std::uint64_t remaining) {
    // Success once every COMPLETED operation has linearized: remaining
    // pending updates are simply never assigned linearization points
    // (their effects never became visible, which is allowed).
    if ((remaining & completed_mask_) == 0) return true;
    if (++nodes_ > options_.max_nodes) {
      budget_hit_ = true;
      return false;
    }
    StateKey key{remaining, state_};
    if (!visited_.insert(key).second) return false;

    // Minimal operations: invocation precedes every remaining response.
    std::uint64_t min_respond = kPending;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if ((remaining >> i) & 1) {
        min_respond = std::min(min_respond, ops_[i].respond_seq);
      }
    }

    bool any_candidate = false;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (!((remaining >> i) & 1)) continue;
      const Operation& op = ops_[i];
      if (op.invoke_seq > min_respond) continue;
      any_candidate = true;

      if (op.type == Operation::Type::kUpdate) {
        std::uint64_t saved = state_[op.index];
        state_[op.index] = op.value;
        if (dfs(remaining & ~(std::uint64_t{1} << i))) return true;
        state_[op.index] = saved;
      } else if (op.type == Operation::Type::kUpdateBatch) {
        // The whole batch takes effect at ONE linearization point
        // (kAtomic tier; amortized-tier batches are expanded into
        // per-entry updates before the search).  Entries apply in
        // argument order, so duplicate indices coalesce last-wins.
        std::vector<std::uint64_t> saved;
        saved.reserve(op.indices.size());
        for (std::size_t j = 0; j < op.indices.size(); ++j) {
          saved.push_back(state_[op.indices[j]]);
          state_[op.indices[j]] = op.batch_values[j];
        }
        if (dfs(remaining & ~(std::uint64_t{1} << i))) return true;
        for (std::size_t j = op.indices.size(); j-- > 0;) {
          state_[op.indices[j]] = saved[j];
        }
      } else {
        PSNAP_ASSERT(op.type == Operation::Type::kScan ||
                     op.type == Operation::Type::kScanVersioned);
        PSNAP_ASSERT(op.indices.size() == op.result.size());
        bool matches = true;
        for (std::size_t j = 0; j < op.indices.size(); ++j) {
          if (state_[op.indices[j]] != op.result[j]) {
            matches = false;
            break;
          }
        }
        if (matches) {
          if (dfs(remaining & ~(std::uint64_t{1} << i))) return true;
        }
      }
      if (budget_hit_) return false;
    }

    if (!any_candidate && diagnosis_.empty()) {
      diagnosis_ = "no minimal operation can linearize; frontier:";
      for (std::size_t i = 0; i < ops_.size(); ++i) {
        if ((remaining >> i) & 1) {
          diagnosis_ += "\n  " + ops_[i].to_string();
        }
      }
    }
    return false;
  }

  const std::vector<Operation>& ops_;
  const LinCheckOptions& options_;
  std::uint64_t completed_mask_ = 0;
  std::vector<std::uint64_t> state_;
  std::unordered_set<StateKey, StateKeyHash> visited_;
  std::uint64_t nodes_ = 0;
  bool budget_hit_ = false;
  std::string diagnosis_;
};

}  // namespace

LinCheckOutcome check_snapshot_linearizable(const std::vector<Operation>& ops,
                                            const LinCheckOptions& options) {
  PSNAP_ASSERT(options.num_components > 0);
  // Pending scans returned nothing: drop them before the search.  Pending
  // updates stay in (apply-or-omit is explored by the searcher).
  std::vector<Operation> filtered;
  filtered.reserve(ops.size());
  for (const Operation& op : ops) {
    PSNAP_ASSERT_MSG(op.type == Operation::Type::kUpdate ||
                         op.type == Operation::Type::kScan ||
                         op.type == Operation::Type::kScanVersioned ||
                         op.type == Operation::Type::kUpdateBatch ||
                         op.type == Operation::Type::kGrow,
                     "snapshot checker accepts only snapshot operations");
    if (op.type == Operation::Type::kGrow) {
      // Growth is not a value operation: new components hold the initial
      // value, indistinguishable from having existed all along, so the
      // search runs against the final component count.  (The grow-only
      // oracle checks the blocks themselves.)
      continue;
    }
    if (op.type == Operation::Type::kUpdate) {
      PSNAP_ASSERT(op.index < options.num_components);
    } else if (op.type == Operation::Type::kUpdateBatch) {
      PSNAP_ASSERT(op.indices.size() == op.batch_values.size());
      for (std::uint32_t i : op.indices) {
        PSNAP_ASSERT(i < options.num_components);
      }
    } else {
      for (std::uint32_t i : op.indices) {
        PSNAP_ASSERT(i < options.num_components);
      }
      if (!op.complete()) continue;  // pending scans returned nothing
    }
    filtered.push_back(op);
  }
  PSNAP_ASSERT_MSG(filtered.size() <= 64,
                   "checker handles at most 64 operations per history");
  Searcher searcher(filtered, options);
  return searcher.run();
}

}  // namespace psnap::verify
