// bench_psnap: the one benchmark for psnap.
//
//   bench_psnap                      every workload, each in a fresh child
//                                    process (the pid watermark, EBR
//                                    domains and pools are process-wide)
//   bench_psnap --workload=<name>    one workload in this process; the last
//                                    line of stdout is the result as JSON
//   bench_psnap --trace=<dir>        the traced run: per-layer metrics,
//                                    span self times, <dir>/spans.jsonl
//   bench_psnap --json=<path>        also write a bench::JsonReport with
//                                    entries "<workload>/<metric>"
//   bench_psnap --compare=<a.json,...>:<b.json,...>
//   bench_psnap --profile=smoke      every workload, two short rounds
//   bench_psnap --selftest
//
// Correctness comes first: every scan and checkpoint is checked (see
// workloads.cpp), and any failure makes the exit code non-zero.  See
// psnapbench/README.md for the workloads, metrics and bounds.
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/table.h"
#include "compare.h"
#include "harness.h"
#include "json.h"
#include "selftest.h"
#include "workloads.h"

namespace {

using psnapbench::Metric;

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void print_metrics(const std::vector<Metric>& metrics,
                   const std::string& title) {
  if (metrics.empty()) return;
  psnap::TablePrinter table({"metric", "value", "unit", "samples"});
  for (const Metric& m : metrics) {
    table.add_row({m.name, num(m.value), m.unit,
                   psnap::TablePrinter::fmt(m.samples)});
  }
  table.print(std::cout, title);
}

// Runs `args` as a child process with this process's stdio; returns its
// exit code (128 + signal when it was killed).
int run_child(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  std::cout.flush();
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid < 0) return 127;
  if (pid == 0) {
    ::execv("/proc/self/exe", argv.data());
    ::_exit(127);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

int run_one(const std::string& workload, const psnapbench::Settings& st,
            const std::string& json_path) {
  std::cout << "== " << workload << " (seed " << st.seed << ", "
            << (st.trace_dir.empty() ? "untraced" : "traced") << ") ==\n"
            << psnapbench::describe_workload(workload) << "\n"
            << "rounds of fixed work on fresh objects until " << num(st.seconds)
            << " s are timed; checkpoint frames (not fsync'd) under "
            << st.frames_dir << "\n";
  psnapbench::Result res = psnapbench::run_workload(workload, st);

  for (const Metric& m : res.metrics) {
    if (!std::isfinite(m.value)) {
      ++res.failed;
      if (res.first_failure.empty()) {
        res.first_failure = m.name + " is not finite";
      }
    }
  }
  std::cout << "correctness: " << res.attempted << " operations, "
            << res.failed << " failed"
            << (res.failed ? " -- first: " + res.first_failure : "") << "\n";
  print_metrics(res.metrics, st.trace_dir.empty() ? "end-to-end" : "per-layer");
  print_metrics(res.extras, "workload-specific (no bound)");
  if (!res.self_times.empty()) {
    psnap::TablePrinter table(
        {"span", "count", "self p50 ns", "self total ms"});
    for (const psnapbench::SelfTime& t : res.self_times) {
      table.add_row({t.name, psnap::TablePrinter::fmt(t.count), num(t.p50_ns),
                     num(t.total_ns / 1e6)});
    }
    table.print(std::cout, "self time per span (" + st.trace_dir +
                               "/spans.jsonl)");
  }

  if (!json_path.empty()) {
    psnap::bench::JsonReport report;
    for (const auto* list : {&res.metrics, &res.extras}) {
      for (const Metric& m : *list) {
        report.add(workload + "/" + m.name, m.value, m.unit);
      }
    }
    if (!report.write_file(json_path)) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
  }

  // The result line: the last line of stdout.
  std::string line = std::string("{\"correct\": ") +
                     (res.failed ? "false" : "true") +
                     ", \"attempted\": " + std::to_string(res.attempted) +
                     ", \"failed\": " + std::to_string(res.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    line += (i ? ", " : "") + psnapbench::json::quote(m.name) +
            ": {\"value\": " +
            psnapbench::json::number(std::isfinite(m.value) ? m.value : 0) +
            ", \"unit\": " + psnapbench::json::quote(m.unit) + "}";
  }
  std::cout << line << "}}\n";
  return res.failed ? 1 : 0;
}

// Every workload in its own child process; merges their JSON reports.
int run_all(const psnap::CliFlags& flags, const std::string& json_path) {
  int worst = 0;
  psnap::bench::JsonReport report;
  for (const std::string& w : psnapbench::workload_names()) {
    std::vector<std::string> args = {"bench_psnap", "--workload=" + w};
    for (const char* f : {"seed", "seconds", "profile", "frames"}) {
      args.push_back(std::string("--") + f + "=" + flags.get_string(f));
    }
    const std::string trace = flags.get_string("trace");
    if (!trace.empty()) args.push_back("--trace=" + trace + "/" + w);
    const std::string part = json_path.empty() ? "" : json_path + "." + w;
    if (!part.empty()) args.push_back("--json=" + part);
    const int code = run_child(args);
    std::cout << "\n";
    if (code != 0) {
      std::cerr << "workload " << w << " exited with code " << code << "\n";
      worst = code;
    }
    if (!part.empty() && code == 0) {
      std::string error;
      auto doc = psnapbench::json::parse_file(part, &error);
      const auto* rows = doc ? doc->get("benchmarks") : nullptr;
      if (rows == nullptr) {
        std::cerr << "cannot read " << part << ": " << error << "\n";
        worst = 1;
        continue;
      }
      for (const auto& e : rows->array) {
        report.add(e.get("name")->string, e.get("value")->number,
                   e.get("unit")->string);
      }
      std::filesystem::remove(part);
    }
  }
  if (!json_path.empty() && !report.write_file(json_path)) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  // Every round, restore and checkpoint builds and drops whole objects.
  // With glibc's default trimming each build faults its pages in from the
  // kernel again, and on a shared virtual machine those faults swung
  // restore times by 20% between identical runs; a long-running service
  // reuses its heap instead, and so does this process.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);

  psnap::CliFlags flags;
  flags.define("workload", "all",
               "one workload to run in this process, or 'all'");
  flags.define("seed", "1", "seed of the generated operations");
  flags.define("seconds", "20",
               "timed traffic per workload, in rounds of about a second");
  flags.define("profile", "full", "full | smoke (two short rounds)");
  flags.define("trace", "", "directory: run traced, write spans.jsonl there");
  flags.define("json", "", "write a JsonReport of every metric here");
  flags.define("frames", ".bench_build/frames",
               "checkpoint frames go to a fresh directory under this one");
  flags.define("compare", "", "<a.json,...>:<b.json,...> -- compare and exit");
  flags.define("bounds", "BENCHMARK.json", "bounds used by --compare");
  flags.define("selftest", "false", "check the benchmark's own arithmetic");
  if (!flags.parse(argc, argv)) return 2;

  if (flags.get_bool("selftest")) return psnapbench::run_selftest();
  if (!flags.get_string("compare").empty()) {
    return psnapbench::run_compare(flags.get_string("compare"),
                                   flags.get_string("bounds"));
  }

  psnapbench::Settings st;
  st.seed = flags.get_uint("seed");
  st.seconds = flags.get_double("seconds");
  st.frames_dir = flags.get_string("frames");
  st.trace_dir = flags.get_string("trace");
  const std::string profile = flags.get_string("profile");
  if (profile == "smoke") {
    st.seconds = 0;  // the minimum: two rounds
    st.ops_scale = 0.05;
    st.checkpoints_per_round = 1;
    st.probe_s = 0.02;
    st.twin_ops = 500;
  } else if (profile != "full") {
    std::cerr << "unknown --profile '" << profile << "' (full | smoke)\n";
    return 2;
  }
  if (!(st.seconds >= 0)) {
    std::cerr << "need --seconds >= 0\n";
    return 2;
  }

  const std::string workload = flags.get_string("workload");
  if (workload == "all") return run_all(flags, flags.get_string("json"));
  const auto& names = psnapbench::workload_names();
  if (std::find(names.begin(), names.end(), workload) == names.end()) {
    std::cerr << "unknown --workload '" << workload << "'; one of:";
    for (const std::string& w : names) std::cerr << " " << w;
    std::cerr << " all\n";
    return 2;
  }
  return run_one(workload, st, flags.get_string("json"));
}
