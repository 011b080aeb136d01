// Experiment ABL-1 -- Section 4.1's coalescing rule:
//   "any consecutive intervals that have no gaps between them should be
//    coalesced into a single interval in order to keep the length of the
//    list as small as possible."
//
// Regenerated table: Figure-2 active set under a churn pattern that leaves
// a persistent member pinning gaps open, with coalescing ON vs OFF vs the
// skip list disabled entirely.  Reported: published list length, mean
// getSet steps, and the local work of walking the list.  Expected shape:
// coalescing keeps the list near-constant; without it the list grows with
// the number of vacated runs; without the skip list entirely, getSet cost
// grows with the total number of joins ever performed.
#include <cstdio>
#include <iostream>

#include "activeset/faicas_active_set.h"  // published_intervals()
#include "bench/harness.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "registry/registry.h"

using namespace psnap;

namespace {

struct Variant {
  const char* label;
  const char* spec;  // registry spec selecting the ablation
};

void run(std::uint64_t rounds) {
  const Variant variants[] = {
      {"coalesced (paper)", "faicas"},
      {"no coalescing", "faicas:coalesce=false"},
      {"no skip list", "faicas:publish=false"},
  };
  TablePrinter table({"variant", "churn rounds", "published intervals",
                      "mean getSet steps", "max getSet steps"});
  for (const Variant& variant : variants) {
    for (std::uint64_t volume : {rounds / 4, rounds}) {
      auto as_ptr = registry::make_active_set(variant.spec, 3);
      auto& as = *as_ptr;
      // published_intervals() is Figure-2 observability, not part of the
      // ActiveSet interface; the downcast is safe for every faicas spec.
      auto& faicas = dynamic_cast<activeset::FaiCasActiveSet&>(as);
      OnlineStats getset_cost;

      // Churn pattern: pid 0 joins/leaves constantly; pid 1 joins for a
      // while, leaves, rejoins -- a long-lived member whose slot pins a
      // gap between vacated runs, defeating trivial single-interval
      // coalescing part of the time.
      {
        exec::ScopedPid pid(1);
        as.join();
      }
      std::vector<std::uint32_t> members;
      for (std::uint64_t i = 0; i < volume; ++i) {
        {
          exec::ScopedPid pid(0);
          as.join();
          as.leave();
        }
        if (i % 64 == 63) {
          // Long-lived member moves to a fresh slot, leaving a pinned gap.
          exec::ScopedPid pid(1);
          as.leave();
          as.join();
        }
        if (i % 16 == 15) {
          exec::ScopedPid pid(2);
          getset_cost.add(double(
              bench::measured_steps([&] { as.get_set(members); })));
        }
      }
      // Reading C pins the set's EBR domain, which needs a pid too.
      exec::ScopedPid pid(2);
      table.add_row({variant.label, TablePrinter::fmt(volume),
                     TablePrinter::fmt(std::uint64_t(faicas.published_intervals())),
                     TablePrinter::fmt(getset_cost.mean()),
                     TablePrinter::fmt(getset_cost.max())});
    }
  }
  table.print(std::cout,
              "ABL-1: interval coalescing in the Figure-2 active set "
              "(Section 4.1) -- paper: coalescing keeps the published "
              "list short");
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.define("rounds", "32768", "churn rounds");
  if (!flags.parse(argc, argv)) return 1;
  std::printf("Experiment ABL-1: skip-list coalescing ablation\n\n");
  run(flags.get_uint("rounds"));
  return 0;
}
