#include "verify/fuzz/fuzzer.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>

#include "common/rng.h"
#include "exec/exec.h"
#include "exec/thread_registry.h"
#include "ingest/coalescer.h"
#include "registry/registry.h"
#include "runtime/sim_scheduler.h"
#include "verify/activeset_checker.h"
#include "verify/recording.h"

namespace psnap::verify::fuzz {

namespace {

using runtime::SimScheduler;

// Release this process's pid to the case-local registry and take a fresh
// one (lowest-free, so churn usually re-issues the SAME pid -- exactly the
// reuse the History's incarnation lanes must keep apart).  The process-wide
// watermark is raised like exec::ScopedPid would, so adaptive per-pid walks
// stay sound for the new pid.
void churn_pid(exec::ThreadRegistry& reg, History& history) {
  std::uint32_t old = exec::ctx().pid;
  reg.release(old);
  history.note_pid_released(old);
  std::uint32_t fresh = reg.acquire();
  exec::ThreadRegistry::process_wide().note_pid_in_use(fresh);
  exec::ctx().pid = fresh;
}

// Count of operations the linearizability searcher will actually hold in
// its 64-bit mask after filtering.
std::size_t checked_op_count(const std::vector<Operation>& lin_ops) {
  std::size_t n = 0;
  for (const Operation& op : lin_ops) {
    if (op.type == Operation::Type::kGrow) continue;
    if ((op.type == Operation::Type::kScan ||
         op.type == Operation::Type::kScanVersioned) &&
        !op.complete()) {
      continue;
    }
    ++n;
  }
  return n;
}

struct RunError {
  std::mutex mu;
  std::string what;

  void capture(const std::exception& e) {
    std::scoped_lock lock(mu);
    if (what.empty()) what = e.what();
  }
};

CaseOutcome run_snapshot_case(const CaseSpec& spec, const FuzzPlan& plan,
                              const std::vector<std::uint32_t>* script,
                              std::vector<std::uint32_t>* ranks_out) {
  CaseOutcome outcome;
  const FuzzTarget& target = spec.target;
  const std::uint32_t procs = static_cast<std::uint32_t>(plan.procs.size());
  const std::uint32_t max_threads = procs * 2 + 2;

  registry::IngestKnobs knobs;
  auto snap =
      registry::make_snapshot(target.spec, plan.initial_m, max_threads,
                              &knobs);
  History history;
  RecordingSnapshot recorded(*snap, history);
  exec::ThreadRegistry churn_reg(max_threads);
  for (std::uint32_t p = 0; p < procs; ++p) churn_reg.acquire();
  RunError error;

  SimScheduler::Options sopt;
  if (script != nullptr) {
    sopt.policy = SimScheduler::Policy::kScriptThenLowest;
    sopt.script = *script;
  } else {
    sopt.policy = SimScheduler::Policy::kRandom;
    sopt.seed = spec.sched_seed;
  }
  SimScheduler sched(sopt);
  for (std::uint32_t p = 0; p < procs; ++p) {
    sched.add_process([&, p] {
      try {
        std::optional<ingest::Coalescer> co;
        if (target.coalesced) {
          ingest::Coalescer::Options co_options;
          co_options.batch = knobs.batch;
          co_options.coalesce_window = knobs.coalesce_window;
          co.emplace(recorded, std::move(co_options));
        }
        std::vector<std::uint64_t> out;
        for (const FuzzOp& op : plan.procs[p]) {
          switch (op.kind) {
            case FuzzOp::Kind::kUpdate:
              if (co) {
                co->write(op.index, op.value);
              } else {
                recorded.update(op.index, op.value);
              }
              break;
            case FuzzOp::Kind::kUpdateBlob: {
              std::array<std::byte, 8> buf;
              std::memcpy(buf.data(), &op.value, sizeof(op.value));
              recorded.update_blob(
                  op.index, std::span<const std::byte>(buf.data(), 8));
              break;
            }
            case FuzzOp::Kind::kUpdateBatch:
              recorded.update_batch(std::span<const core::BatchEntry>(
                  op.entries.data(), op.entries.size()));
              break;
            case FuzzOp::Kind::kScan:
              recorded.scan(std::span<const std::uint32_t>(op.indices), out);
              break;
            case FuzzOp::Kind::kScanVersioned:
              recorded.scan_versioned(
                  std::span<const std::uint32_t>(op.indices), out);
              break;
            case FuzzOp::Kind::kGrow:
              recorded.add_components(op.count);
              break;
            case FuzzOp::Kind::kChurn:
              // Buffered writes belong to the pid that accepted them:
              // publish before handing the pid back.
              if (co) co->flush();
              churn_pid(churn_reg, history);
              break;
            default:
              break;
          }
        }
        if (co) {
          co->flush();
          co.reset();
        }
      } catch (const std::exception& e) {
        error.capture(e);
      }
    });
  }
  SimScheduler::RunResult run = sched.run();
  if (ranks_out != nullptr) *ranks_out = run.chosen_rank;

  if (!error.what.empty()) {
    outcome.failed = true;
    outcome.diagnosis = "operation threw: " + error.what;
    outcome.history = history.to_string();
    return outcome;
  }

  const std::uint32_t final_m = snap->num_components();
  std::vector<Operation> ops = history.operations();
  std::vector<Operation> lin_ops =
      expand_batches_for_lin(ops, snap->batch_atomicity());
  if (checked_op_count(lin_ops) > 64) {
    outcome.inconclusive = true;
    return outcome;
  }
  LinCheckOptions lopt;
  lopt.num_components = final_m;
  lopt.max_nodes = 4'000'000;
  LinCheckOutcome lin = check_snapshot_linearizable(lin_ops, lopt);
  if (lin.result == LinResult::kBudgetExceeded) {
    outcome.inconclusive = true;
    return outcome;
  }
  if (lin.result == LinResult::kNotLinearizable) {
    outcome.failed = true;
    outcome.diagnosis = "linearizability: " + lin.diagnosis;
    outcome.history = history.to_string();
    return outcome;
  }
  OracleOutcome epochs = check_epochs(ops);
  if (!epochs.ok) {
    outcome.failed = true;
    outcome.diagnosis = "epoch oracle: " + epochs.diagnosis;
    outcome.history = history.to_string();
    return outcome;
  }
  OracleOutcome growth = check_growth(ops, plan.initial_m, final_m);
  if (!growth.ok) {
    outcome.failed = true;
    outcome.diagnosis = "growth oracle: " + growth.diagnosis;
    outcome.history = history.to_string();
    return outcome;
  }
  return outcome;
}

CaseOutcome run_active_set_case(const CaseSpec& spec, const FuzzPlan& plan,
                                const std::vector<std::uint32_t>* script,
                                std::vector<std::uint32_t>* ranks_out) {
  CaseOutcome outcome;
  const std::uint32_t procs = static_cast<std::uint32_t>(plan.procs.size());
  const std::uint32_t max_threads = procs * 2 + 2;

  auto as = registry::make_active_set(spec.target.spec, max_threads);
  History history;
  RecordingActiveSet recorded(*as, history);
  exec::ThreadRegistry churn_reg(max_threads);
  for (std::uint32_t p = 0; p < procs; ++p) churn_reg.acquire();
  RunError error;

  SimScheduler::Options sopt;
  if (script != nullptr) {
    sopt.policy = SimScheduler::Policy::kScriptThenLowest;
    sopt.script = *script;
  } else {
    sopt.policy = SimScheduler::Policy::kRandom;
    sopt.seed = spec.sched_seed;
  }
  SimScheduler sched(sopt);
  for (std::uint32_t p = 0; p < procs; ++p) {
    sched.add_process([&, p] {
      try {
        std::vector<std::uint32_t> out;
        for (const FuzzOp& op : plan.procs[p]) {
          switch (op.kind) {
            case FuzzOp::Kind::kJoin:
              recorded.join();
              break;
            case FuzzOp::Kind::kLeave:
              recorded.leave();
              break;
            case FuzzOp::Kind::kGetSet:
              recorded.get_set(out);
              break;
            case FuzzOp::Kind::kChurn:
              churn_pid(churn_reg, history);
              break;
            default:
              break;
          }
        }
      } catch (const std::exception& e) {
        error.capture(e);
      }
    });
  }
  SimScheduler::RunResult run = sched.run();
  if (ranks_out != nullptr) *ranks_out = run.chosen_rank;

  if (!error.what.empty()) {
    outcome.failed = true;
    outcome.diagnosis = "operation threw: " + error.what;
    outcome.history = history.to_string();
    return outcome;
  }
  auto validity = check_active_set_validity(history.operations());
  if (!validity.ok) {
    outcome.failed = true;
    outcome.diagnosis = "active-set validity: " + validity.diagnosis;
    outcome.history = history.to_string();
  }
  return outcome;
}

// A plan is runnable only when every index an op uses is covered by the
// initial count plus the grows THAT process completed earlier (the
// generator's invariant; see plan.cpp).  Shrink edits can break it --
// dropping an add_components while keeping an update into the grown range
// would index out of bounds at runtime -- so candidates that lose the
// invariant are rejected without running.
bool plan_is_valid(const FuzzPlan& plan) {
  for (const std::vector<FuzzOp>& proc : plan.procs) {
    std::uint32_t local_m = plan.initial_m;
    for (const FuzzOp& op : proc) {
      switch (op.kind) {
        case FuzzOp::Kind::kUpdate:
        case FuzzOp::Kind::kUpdateBlob:
          if (op.index >= local_m) return false;
          break;
        case FuzzOp::Kind::kUpdateBatch:
          for (const core::BatchEntry& e : op.entries) {
            if (e.index >= local_m) return false;
          }
          break;
        case FuzzOp::Kind::kScan:
        case FuzzOp::Kind::kScanVersioned:
          for (std::uint32_t i : op.indices) {
            if (i >= local_m) return false;
          }
          break;
        case FuzzOp::Kind::kGrow:
          local_m += op.count;
          break;
        default:
          break;
      }
    }
  }
  return true;
}

// Greedy structural shrink with a hard run budget (each probe is a full
// sim run; the budget keeps worst-case shrink time bounded).
class Shrinker {
 public:
  Shrinker(const CaseSpec& spec, FuzzPlan seed) : spec_(spec), best_(seed) {}

  static constexpr std::uint64_t kMaxRuns = 600;

  const FuzzPlan& best() const { return best_; }

  void shrink() {
    bool improved = true;
    while (improved && runs_ < kMaxRuns) {
      improved = false;
      improved |= drop_processes();
      improved |= drop_ops();
      improved |= thin_arguments();
    }
  }

 private:
  bool fails(const FuzzPlan& plan) {
    if (!plan_is_valid(plan)) return false;
    if (runs_ >= kMaxRuns) return false;
    ++runs_;
    return run_case(spec_, plan).failed;
  }

  bool drop_processes() {
    bool improved = false;
    for (std::size_t p = 0; p < best_.procs.size() && best_.procs.size() > 1;) {
      FuzzPlan cand = best_;
      cand.procs.erase(cand.procs.begin() + static_cast<std::ptrdiff_t>(p));
      if (fails(cand)) {
        best_ = std::move(cand);
        improved = true;
      } else {
        ++p;
      }
    }
    return improved;
  }

  bool drop_ops() {
    bool improved = false;
    for (std::size_t p = 0; p < best_.procs.size(); ++p) {
      for (std::size_t i = 0; i < best_.procs[p].size();) {
        FuzzPlan cand = best_;
        cand.procs[p].erase(cand.procs[p].begin() +
                            static_cast<std::ptrdiff_t>(i));
        if (fails(cand)) {
          best_ = std::move(cand);
          improved = true;
        } else {
          ++i;
        }
      }
    }
    return improved;
  }

  bool thin_arguments() {
    bool improved = false;
    for (std::size_t p = 0; p < best_.procs.size(); ++p) {
      for (std::size_t i = 0; i < best_.procs[p].size(); ++i) {
        // Re-fetch best_.procs[p][i] on every probe: accepting a candidate
        // move-assigns best_ and would invalidate any held reference.
        const FuzzOp::Kind kind = best_.procs[p][i].kind;
        auto try_erase = [&](auto member) {
          for (std::size_t j = 0;;) {
            const auto& vec = best_.procs[p][i].*member;
            if (vec.size() <= 1 || j >= vec.size()) break;
            FuzzPlan cand = best_;
            auto& cvec = cand.procs[p][i].*member;
            cvec.erase(cvec.begin() + static_cast<std::ptrdiff_t>(j));
            if (fails(cand)) {
              best_ = std::move(cand);
              improved = true;
            } else {
              ++j;
            }
          }
        };
        if (kind == FuzzOp::Kind::kUpdateBatch) {
          try_erase(&FuzzOp::entries);
        } else if (kind == FuzzOp::Kind::kScan ||
                   kind == FuzzOp::Kind::kScanVersioned) {
          try_erase(&FuzzOp::indices);
        }
      }
    }
    return improved;
  }

  const CaseSpec& spec_;
  FuzzPlan best_;
  std::uint64_t runs_ = 0;
};

std::uint64_t hash_target(const FuzzTarget& target) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(target.kind));
  for (char c : target.spec) mix(static_cast<std::uint8_t>(c));
  return h;
}

// Shrinks a known-failing spec into *failing.  Deterministic: every probe
// reuses the token's seeds, so two invocations converge on the same
// minimal plan, script, and diagnosis.
void shrink_failure(const CaseSpec& spec, const FuzzPlan& plan,
                    const CaseOutcome& first, FailingCase* failing) {
  failing->spec = spec;
  failing->token = encode_token(spec);
  failing->diagnosis = first.diagnosis;

  Shrinker shrinker(spec, plan);
  shrinker.shrink();
  FuzzPlan best = shrinker.best();

  // Schedule shrink: capture the rank trace the minimal plan takes under
  // the seeded policy, then find a short failing prefix (script + fall
  // back to lowest-index).  Binary search is deterministic even where the
  // predicate is not monotone; the full trace is the fallback.
  std::vector<std::uint32_t> ranks;
  CaseOutcome traced = run_case(spec, best, nullptr, &ranks);
  std::size_t lo = 0, hi = ranks.size();
  while (lo < hi) {
    std::size_t mid = lo + (hi - lo) / 2;
    std::vector<std::uint32_t> prefix(ranks.begin(),
                                      ranks.begin() + static_cast<std::ptrdiff_t>(mid));
    if (run_case(spec, best, &prefix).failed) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  std::vector<std::uint32_t> script(
      ranks.begin(), ranks.begin() + static_cast<std::ptrdiff_t>(hi));
  CaseOutcome minimal = run_case(spec, best, &script);
  if (!minimal.failed) {
    script = ranks;
    minimal = std::move(traced);
  }
  failing->minimal_plan = std::move(best);
  failing->minimal_script = std::move(script);
  failing->minimal_diagnosis = minimal.diagnosis;
  failing->minimal_history = minimal.history;
}

}  // namespace

CaseOutcome run_case(const CaseSpec& spec, const FuzzPlan& plan,
                     const std::vector<std::uint32_t>* script,
                     std::vector<std::uint32_t>* ranks_out) {
  if (spec.target.kind == FuzzTarget::Kind::kSnapshot) {
    return run_snapshot_case(spec, plan, script, ranks_out);
  }
  return run_active_set_case(spec, plan, script, ranks_out);
}

std::string FailingCase::minimal_summary() const {
  std::ostringstream os;
  os << "token: " << token << "\nminimal plan:\n" << minimal_plan.to_string()
     << "schedule script (" << minimal_script.size() << " ranks):";
  for (std::uint32_t r : minimal_script) os << " " << r;
  os << "\ndiagnosis: " << minimal_diagnosis << "\n";
  return os.str();
}

bool run_and_shrink(const CaseSpec& spec, FailingCase* failing) {
  FuzzPlan plan = generate_plan(spec.target, spec.shape, spec.op_seed);
  CaseOutcome first = run_case(spec, plan);
  if (!first.failed) return false;
  shrink_failure(spec, plan, first, failing);
  return true;
}

bool replay_token(const std::string& token, FailingCase* failing) {
  return run_and_shrink(decode_token(token), failing);
}

CampaignStats run_campaign(
    const std::vector<FuzzTarget>& targets, const CampaignOptions& options,
    const std::function<void(const FailingCase&)>& on_failure) {
  CampaignStats stats;
  const auto start = std::chrono::steady_clock::now();
  auto out_of_budget = [&] {
    if (options.budget_seconds <= 0) return false;
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() >= options.budget_seconds;
  };
  auto report = [&](const FailingCase& failing) {
    ++stats.failures;
    if (on_failure) on_failure(failing);
    return options.max_failures != 0 &&
           stats.failures >= options.max_failures;
  };

  // Pinned regression corpus first: a token whose implementation is not
  // registered in this binary (e.g. a mutant token under the production
  // registry) is skipped, not an error.
  for (const std::string& token : options.pinned_tokens) {
    ++stats.cases_run;
    try {
      FailingCase failing;
      if (replay_token(token, &failing) && report(failing)) return stats;
    } catch (const std::invalid_argument&) {
      --stats.cases_run;
    }
  }

  std::uint64_t sweep = 0;
  do {
    for (const FuzzTarget& target : targets) {
      SplitMix64 seeder(options.base_seed ^ hash_target(target) ^
                        (sweep * 0x9e3779b97f4a7c15ull));
      for (std::uint32_t i = 0; i < options.iters_per_target; ++i) {
        if (out_of_budget()) return stats;
        CaseSpec spec;
        spec.target = target;
        std::uint64_t shape_bits = seeder.next();
        spec.shape.procs = static_cast<std::uint32_t>(2 + shape_bits % 2);
        spec.shape.ops_per_proc =
            static_cast<std::uint32_t>(3 + (shape_bits >> 8) % 3);
        spec.shape.initial_m =
            static_cast<std::uint32_t>(2 + (shape_bits >> 16) % 3);
        spec.op_seed = seeder.next();
        spec.sched_seed = seeder.next();
        ++stats.cases_run;

        FuzzPlan plan = generate_plan(spec.target, spec.shape, spec.op_seed);
        CaseOutcome outcome = run_case(spec, plan);
        if (outcome.inconclusive) {
          ++stats.inconclusive;
        } else if (outcome.failed) {
          FailingCase failing;
          if (options.shrink) {
            shrink_failure(spec, plan, outcome, &failing);
          } else {
            failing.spec = spec;
            failing.token = encode_token(spec);
            failing.diagnosis = outcome.diagnosis;
            failing.minimal_plan = plan;
            failing.minimal_diagnosis = outcome.diagnosis;
            failing.minimal_history = outcome.history;
          }
          if (report(failing)) return stats;
        }
      }
    }
    ++sweep;
  } while (options.budget_seconds > 0 && !out_of_budget());
  return stats;
}

}  // namespace psnap::verify::fuzz
