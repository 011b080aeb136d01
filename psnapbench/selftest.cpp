// bench_psnap --selftest: the benchmark's own arithmetic, checked without
// running a workload -- tick-aware percentiles, the cost clock's blocked
// time, the JSON round trip of a result file, quartiles as Python computes
// them, and span self time.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/timing.h"
#include "compare.h"
#include "cost.h"
#include "harness.h"
#include "json.h"
#include "percentiles.h"
#include "trace.h"

namespace psnapbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void percentiles_move_inside_a_tick() {
  // Seven 40s and three 41s: the median is in the 40 ns tick, 5/7 of the
  // way up it; with the counts swapped it moves into the 41 ns tick.
  std::vector<double> low, high;
  for (int i = 0; i < 10; ++i) {
    low.push_back(i < 7 ? 40.0 : 41.0);
    high.push_back(i < 3 ? 40.0 : 41.0);
  }
  expect(near(tick_percentiles(low).p50, 39.5 + 5.0 / 7),
         "p50 interpolates inside the tick it falls in");
  expect(near(tick_percentiles(high).p50, 40.5 + 2.0 / 7),
         "p50 follows a shift smaller than one tick");
  expect(near(tick_percentiles(low).p99, 40.5 + 2.9 / 3), "p99 likewise");
}

void cost_counts_blocking() {
  // A call that sleeps is charged its sleep, though it used no CPU.
  const CostClock sleeping = CostClock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const Cost slept = sleeping.stop();
  expect(slept.cost >= 0.019 && slept.wall >= 0.020,
         "a call that sleeps 20 ms costs at least 19 ms");
  // A call that only computes is charged no more than its wall time.
  const CostClock busy = CostClock::now();
  const std::uint64_t t0 = psnap::now_nanos();
  while (psnap::now_nanos() - t0 < 20'000'000) {
  }
  const Cost spun = busy.stop();
  expect(spun.cost > 0 && spun.cost <= spun.wall,
         "a call that computes costs at most its wall time");
}

void json_round_trip() {
  const std::string path = "bench_psnap_selftest.json";
  psnap::bench::JsonReport report;
  report.add("mixed_local/scan_p50_ns", 812.5, "ns");
  report.add("lifecycle/setup_s", 0.0123, "s");
  expect(report.write_file(path), "JsonReport writes its file");
  std::string error;
  auto doc = json::parse_file(path, &error);
  std::filesystem::remove(path);
  const json::Value* rows = doc ? doc->get("benchmarks") : nullptr;
  expect(rows != nullptr && rows->array.size() == 2,
         "the report parses back with both entries " + error);
  if (rows != nullptr && rows->array.size() == 2) {
    const json::Value& e = rows->array[1];
    expect(e.get("name")->string == "lifecycle/setup_s" &&
               near(e.get("value")->number, 0.0123) &&
               e.get("unit")->string == "s",
           "name, value and unit survive the round trip");
  }
  auto nested = json::parse(
      R"({"a": [1, -2.5e3, true, null], "b": {"c": "x\"yA"}})", nullptr);
  expect(nested && nested->get("a")->array[1].number == -2500 &&
             nested->get("b")->get("c")->string == "x\"yA",
         "nested values, exponents and escapes parse");
  expect(!json::parse("[1,]", nullptr) && !json::parse("{} x", nullptr) &&
             !json::parse("{\"a\" 1}", nullptr),
         "malformed documents are rejected");
  expect(json::parse(json::quote("tab\there"), nullptr)->string == "tab\there",
         "quote() round-trips control characters");
}

void quartiles_match_python() {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const auto q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  expect(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25),
         "quartiles of 1..10 are Python's [2.75, 5.5, 8.25]");
  // ... == [0.75, 1.5, 2.25] for [1, 2]: extrapolated, not clamped.
  const auto two = quartiles({1, 2});
  expect(near(two[0], 0.75) && near(two[1], 1.5) && near(two[2], 2.25),
         "quartiles of two values extrapolate like Python's");
}

void span_self_time() {
  // checkpoint [0, 100] with children [10, 30], [20, 50] (overlapping)
  // and [90, 120] (clipped to the parent): covered 40 + 10, self 50.
  SpanBuffer buf(0, 16);
  const std::uint64_t parent = buf.reserve_id();
  buf.record("capture", 10, 30, parent);
  buf.record("capture", 20, 50, parent);
  buf.record("commit", 90, 120, parent);
  buf.record("checkpoint", 0, 100, 0, parent);
  buf.record("scan", 200, 207);
  const auto times = self_times(buf.spans());
  auto find = [&](const char* name) -> const SelfTime* {
    for (const SelfTime& t : times) {
      if (t.name == name) return &t;
    }
    return nullptr;
  };
  const SelfTime* cp = find("checkpoint");
  expect(cp != nullptr && near(cp->total_ns, 50),
         "self time subtracts the union of the children");
  const SelfTime* cap = find("capture");
  expect(cap != nullptr && cap->count == 2 && near(cap->total_ns, 50),
         "a leaf's self time is its duration");
  const SelfTime* scan = find("scan");
  expect(scan != nullptr && near(scan->p50_ns, 7), "root leaf spans count");
  SpanBuffer tiny(1, 1);
  tiny.record("scan", 0, 1);
  tiny.record("scan", 1, 2);
  expect(tiny.spans().size() == 1 && tiny.dropped() == 1,
         "a full span buffer drops and counts");
}

}  // namespace

int run_selftest() {
  percentiles_move_inside_a_tick();
  cost_counts_blocking();
  json_round_trip();
  quartiles_match_python();
  span_self_time();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace psnapbench
