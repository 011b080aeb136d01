// Figure 3's step counts, pinned.
//
// Steps are the paper's unit of cost, and the only performance number that
// is exact: under the deterministic scheduler a seeded schedule replays
// byte-for-byte, so the steps each operation takes are a fixed function of
// the code.  This suite runs one fixed op plan under three fixed
// SimScheduler seeds for every sim-safe Figure 3 variant (fig3_cas and
// fig3_cas_batch over their value x reclaim planes, plus fig3_cas at two
// EBR shards) and compares every operation's step total with the table
// below.
//
// A change that claims to move no step (a reclamation or layout refactor,
// a cache-miss optimisation) must leave the table as it is.  A change that
// does move steps updates the table in the same commit, so the diff shows
// exactly which operations got dearer or cheaper: on a mismatch the test
// prints the whole table as the code now counts it, ready to paste.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/growth.h"
#include "core/partial_snapshot.h"
#include "exec/exec.h"
#include "runtime/sim_scheduler.h"
#include "tests/support/registry_params.h"

namespace psnap::core {
namespace {

// Components 0, 1 sit in segment 0 and the other two in segment 1, so the
// two-shard cell pins both shards.
constexpr std::uint32_t kA = 0;
constexpr std::uint32_t kB = 1;
constexpr std::uint32_t kC = kComponentSegmentSize;
constexpr std::uint32_t kD = kComponentSegmentSize + 1;
constexpr std::uint32_t kM = kComponentSegmentSize + 2;
constexpr std::uint32_t kProcs = 3;
constexpr std::uint64_t kSeeds[] = {1, 2, 3};

// One process's part of the plan: each call is one operation.
using Op = void (*)(PartialSnapshot&);

const std::vector<std::vector<Op>>& plan() {
  static const std::vector<std::vector<Op>> kPlan = {
      {
          [](PartialSnapshot& s) { s.update(kA, 1); },
          [](PartialSnapshot& s) { (void)s.scan({kA, kC}); },
          [](PartialSnapshot& s) {
            const BatchEntry batch[] = {{kB, 2}, {kC, 3}};
            s.update_batch(batch);
          },
          [](PartialSnapshot& s) { (void)s.scan({kA, kB, kC, kD}); },
          [](PartialSnapshot& s) { s.update(kA, 4); },
          [](PartialSnapshot& s) { (void)s.scan({kA}); },
      },
      {
          [](PartialSnapshot& s) { s.update(kC, 10); },
          [](PartialSnapshot& s) { s.update(kA, 11); },
          [](PartialSnapshot& s) { (void)s.scan({kB, kD}); },
          [](PartialSnapshot& s) {
            const BatchEntry batch[] = {{kA, 12}};
            s.update_batch(batch);
          },
          [](PartialSnapshot& s) { s.update(kA, 13); },
          [](PartialSnapshot& s) { s.update(kC, 14); },
      },
      {
          [](PartialSnapshot& s) { (void)s.scan({kA, kB, kC, kD}); },
          [](PartialSnapshot& s) { s.update(kD, 20); },
          [](PartialSnapshot& s) { (void)s.scan({kA, kC}); },
          [](PartialSnapshot& s) { s.update(kB, 21); },
          [](PartialSnapshot& s) { s.update(kA, 22); },
          [](PartialSnapshot& s) { (void)s.scan({kA, kB}); },
      },
  };
  return kPlan;
}

// Per-op step totals of one seeded run, process by process, "/" between
// processes.
std::string run_plan(const std::string& spec, std::uint64_t seed) {
  auto snap = registry::make_snapshot(spec, kM, kProcs);
  std::vector<std::vector<std::uint64_t>> steps(kProcs);
  runtime::SimScheduler::Options options;
  options.policy = runtime::SimScheduler::Policy::kRandom;
  options.seed = seed;
  runtime::SimScheduler sched(options);
  for (std::uint32_t p = 0; p < kProcs; ++p) {
    sched.add_process([&, p] {
      for (Op op : plan()[p]) {
        const std::uint64_t before = exec::ctx().steps.total;
        op(*snap);
        steps[p].push_back(exec::ctx().steps.total - before);
      }
    });
  }
  sched.run();
  std::ostringstream out;
  for (std::uint32_t p = 0; p < kProcs; ++p) {
    if (p > 0) out << " /";
    for (std::uint64_t s : steps[p]) out << (out.tellp() > 0 ? " " : "") << s;
  }
  return out.str();
}

// The cells: every sim-safe fig3 variant, plus fig3_cas at two shards.
std::vector<std::pair<std::string, std::string>> cells() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const registry::SnapshotVariant& v : test::snapshot_impls()) {
    if (v.sim_safe &&
        (v.entry == "fig3_cas" || v.entry == "fig3_cas_batch")) {
      out.emplace_back(v.name, v.spec);
    }
  }
  out.emplace_back("fig3_cas_shards2", "fig3_cas:shards=2");
  return out;
}

struct Golden {
  const char* cell;
  std::uint64_t seed;
  const char* steps;
};

// clang-format off
constexpr Golden kGolden[] = {
    {"fig3_cas", 1, "22 8 8 12 7 6 / 4 14 8 6 10 6 / 12 12 8 6 6 8"},
    {"fig3_cas", 2, "14 8 10 12 7 6 / 14 6 8 15 16 7 / 12 6 8 6 4 8"},
    {"fig3_cas", 3, "14 8 6 12 7 6 / 4 14 8 13 6 4 / 12 6 8 6 4 8"},
    {"fig3_cas_hp", 1, "22 8 10 12 7 6 / 4 14 8 6 10 6 / 12 12 8 6 6 8"},
    {"fig3_cas_hp", 2, "14 8 18 12 6 6 / 14 6 8 15 10 6 / 12 6 8 6 4 8"},
    {"fig3_cas_hp", 3, "14 8 14 12 7 6 / 4 14 8 13 6 4 / 12 6 8 6 4 8"},
    {"fig3_cas_blob", 1, "22 8 8 12 7 6 / 4 14 8 6 10 6 / 12 12 8 6 6 8"},
    {"fig3_cas_blob", 2, "14 8 10 12 7 6 / 14 6 8 15 16 7 / 12 6 8 6 4 8"},
    {"fig3_cas_blob", 3, "14 8 6 12 7 6 / 4 14 8 13 6 4 / 12 6 8 6 4 8"},
    {"fig3_cas_blob_hp", 1, "22 8 10 12 7 6 / 4 14 8 6 10 6 / 12 12 8 6 6 8"},
    {"fig3_cas_blob_hp", 2, "14 8 18 12 6 6 / 14 6 8 15 10 6 / 12 6 8 6 4 8"},
    {"fig3_cas_blob_hp", 3, "14 8 14 12 7 6 / 4 14 8 13 6 4 / 12 6 8 6 4 8"},
    {"fig3_cas_versioned", 1, "6 5 10 11 6 3 / 6 8 5 6 6 4 / 11 6 5 10 6 5"},
    {"fig3_cas_versioned", 2, "6 7 10 13 6 3 / 6 6 9 6 6 6 / 9 6 8 6 6 5"},
    {"fig3_cas_versioned", 3, "6 9 10 11 6 3 / 6 6 9 6 6 9 / 13 4 5 12 6 5"},
    {"fig3_cas_versioned_hp", 1, "6 5 17 9 6 3 / 6 8 5 6 6 6 / 12 6 5 6 6 5"},
    {"fig3_cas_versioned_hp", 2, "6 8 12 9 6 3 / 4 6 5 6 6 8 / 12 6 14 6 6 5"},
    {"fig3_cas_versioned_hp", 3, "6 8 17 9 6 3 / 6 6 8 6 6 6 / 12 6 6 6 6 5"},
    {"fig3_cas_batch", 1, "22 8 8 12 7 6 / 4 14 8 6 10 6 / 12 12 8 6 6 8"},
    {"fig3_cas_batch", 2, "14 8 10 12 7 6 / 14 6 8 15 16 7 / 12 6 8 6 4 8"},
    {"fig3_cas_batch", 3, "14 8 6 12 7 6 / 4 14 8 13 6 4 / 12 6 8 6 4 8"},
    {"fig3_cas_batch_hp", 1, "22 8 10 12 7 6 / 4 14 8 6 10 6 / 12 12 8 6 6 8"},
    {"fig3_cas_batch_hp", 2, "14 8 18 12 6 6 / 14 6 8 15 10 6 / 12 6 8 6 4 8"},
    {"fig3_cas_batch_hp", 3, "14 8 14 12 7 6 / 4 14 8 13 6 4 / 12 6 8 6 4 8"},
    {"fig3_cas_batch_blob", 1, "22 8 8 12 7 6 / 4 14 8 6 10 6 / 12 12 8 6 6 8"},
    {"fig3_cas_batch_blob", 2, "14 8 10 12 7 6 / 14 6 8 15 16 7 / 12 6 8 6 4 8"},
    {"fig3_cas_batch_blob", 3, "14 8 6 12 7 6 / 4 14 8 13 6 4 / 12 6 8 6 4 8"},
    {"fig3_cas_batch_blob_hp", 1, "22 8 10 12 7 6 / 4 14 8 6 10 6 / 12 12 8 6 6 8"},
    {"fig3_cas_batch_blob_hp", 2, "14 8 18 12 6 6 / 14 6 8 15 10 6 / 12 6 8 6 4 8"},
    {"fig3_cas_batch_blob_hp", 3, "14 8 14 12 7 6 / 4 14 8 13 6 4 / 12 6 8 6 4 8"},
    {"fig3_cas_batch_versioned", 1, "6 5 15 12 6 3 / 6 7 5 6 6 6 / 11 6 5 15 6 5"},
    {"fig3_cas_batch_versioned", 2, "6 7 10 11 6 3 / 6 6 10 6 6 6 / 9 6 8 6 6 5"},
    {"fig3_cas_batch_versioned", 3, "6 10 10 9 6 3 / 6 6 10 6 6 9 / 12 6 7 8 6 5"},
    {"fig3_cas_batch_versioned_hp", 1, "6 5 17 9 6 3 / 6 8 5 6 6 6 / 12 6 5 6 6 5"},
    {"fig3_cas_batch_versioned_hp", 2, "6 8 12 9 6 3 / 4 6 5 6 6 8 / 12 6 14 6 6 5"},
    {"fig3_cas_batch_versioned_hp", 3, "6 8 17 9 6 3 / 6 6 8 6 6 6 / 12 6 6 6 6 5"},
    {"fig3_cas_shards2", 1, "22 8 8 12 7 6 / 4 14 8 6 10 6 / 12 12 8 6 6 8"},
    {"fig3_cas_shards2", 2, "14 8 10 12 7 6 / 14 6 8 15 16 7 / 12 6 8 6 4 8"},
    {"fig3_cas_shards2", 3, "14 8 6 12 7 6 / 4 14 8 13 6 4 / 12 6 8 6 4 8"},
};
// clang-format on

TEST(StepGolden, Fig3PerOpStepTotalsMatchTheTable) {
  std::map<std::pair<std::string, std::uint64_t>, std::string> expected;
  for (const Golden& g : kGolden) expected[{g.cell, g.seed}] = g.steps;

  std::ostringstream table;
  bool all_match = true;
  std::size_t rows = 0;
  for (const auto& [name, spec] : cells()) {
    for (std::uint64_t seed : kSeeds) {
      const std::string actual = run_plan(spec, seed);
      ++rows;
      table << "    {\"" << name << "\", " << seed << ", \"" << actual
            << "\"},\n";
      auto it = expected.find({name, seed});
      if (it == expected.end() || it->second != actual) {
        all_match = false;
        ADD_FAILURE() << name << " seed " << seed << ": expected \""
                      << (it == expected.end() ? "<no row>" : it->second)
                      << "\", counted \"" << actual << "\"";
      }
    }
  }
  EXPECT_EQ(rows, expected.size()) << "the table has rows for missing cells";
  if (!all_match || rows != expected.size()) {
    std::cout << "Step table as counted now:\n" << table.str();
  }
}

TEST(StepGolden, SeededRunsReplayExactly) {
  // The table means something only if a seed fixes the counts.
  for (const auto& [name, spec] : cells()) {
    EXPECT_EQ(run_plan(spec, 7), run_plan(spec, 7)) << name;
  }
}

}  // namespace
}  // namespace psnap::core
