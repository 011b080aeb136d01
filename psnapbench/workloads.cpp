#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/padding.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/timing.h"
#include "core/op_stats.h"
#include "core/partial_snapshot.h"
#include "core/scan_context.h"
#include "cost.h"
#include "exec/exec.h"
#include "exec/thread_registry.h"
#include "harness.h"
#include "ingest/coalescer.h"
#include "percentiles.h"
#include "persist/checkpoint.h"
#include "probes.h"
#include "recovery/checkpointer.h"
#include "recovery/restore.h"
#include "registry/registry.h"
#include "workload/workload.h"
#include "workload/zipf.h"

namespace psnapbench {

namespace {

namespace core = psnap::core;
namespace exec = psnap::exec;
namespace wl = psnap::workload;
using psnap::now_nanos;
using psnap::OnlineStats;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kMaxThreads = 8;
// A timed round records the latency of one op in this many, on every
// worker alike, so each recorded latency stands for the same number of
// ops when the workers' records are merged.  Odd, so the recorded ops
// cycle through every position of the power-of-two op rings.
constexpr std::uint64_t kRecordEvery = 15;
// A traced round records one op in this many as a span.
constexpr std::uint64_t kSpanEvery = 64;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 17;
// lifecycle: each worker re-registers its pid every this many ops, and
// the coordinator checkpoints after every kCheckpointBlocks grown blocks.
constexpr std::uint64_t kReregisterEvery = 64;
constexpr std::uint32_t kGrowBlock = 16;
constexpr std::uint32_t kCheckpointBlocks = 96;
// Quiesced checkpoint cycles after each round that are checked but not
// timed.
constexpr std::uint32_t kWarmupCheckpoints = 2;

// A component's value: its index in the high word and its owner's write
// sequence number (1 = the set-up prefill) in the low word, so a reader
// can tell an invented or misplaced value from the value alone.
std::uint64_t encode(std::uint32_t c, std::uint32_t seq) {
  return (std::uint64_t{c} << 32) | seq;
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : psnap::percentile(std::move(v), 50.0);
}

struct Failures {
  std::uint64_t count = 0;
  std::string first;

  void add(std::string what) {
    if (count++ == 0) first = std::move(what);
  }
};

// What one worker thread does.  Writers own the components in
// [own_lo, own_hi) -- nobody else writes them -- and write increasing
// sequence numbers, which is what lets every reader check its scans.
struct Role {
  double write_share = 0;  // the rest of the ops are scans
  wl::ScanSetKind scan_kind = wl::ScanSetKind::kUniform;
  std::uint32_t r = 0;
  double zipf_theta = 0;  // skew of writes over the owned range
  std::uint32_t own_lo = 0;
  std::uint32_t own_hi = 0;
};

struct Shape {
  std::string name;
  std::string what;
  std::string spec;  // Release runtime: the timed object
  std::string twin;  // Instrumented runtime: step counts in traced runs
  std::uint32_t m0 = 0;
  std::uint32_t m_end = 0;  // > m0: grown (and checkpointed) under traffic
  std::uint32_t batch = 0;  // > 0: writes go through an ingest::Coalescer
  std::uint32_t window = 0;
  bool reregister = false;
  bool primary_is_write = false;  // the op trace.overhead_ratio compares
  // Ops per worker in a timed round: the first worker to finish its share
  // ends the round for all.  Sized for rounds of about a second on a
  // 4-core host; fixed work, not fixed time, keeps each object's memory
  // and Figure 2's never-recycled join slots (about 4M per object, paper
  // Section 6) the same however fast the build is.
  std::uint64_t round_ops = 0;
  std::vector<Role> roles;

  bool versioned() const {
    return spec.find("value=versioned") != std::string::npos;
  }
  bool grows() const { return m_end > m0; }
};

// Splits [0, m) into `parts` contiguous owned ranges.
std::vector<Role> split_writers(Role role, std::uint32_t m,
                                std::uint32_t parts) {
  std::vector<Role> out;
  for (std::uint32_t p = 0; p < parts; ++p) {
    role.own_lo = m * p / parts;
    role.own_hi = m * (p + 1) / parts;
    out.push_back(role);
  }
  return out;
}

const std::vector<Shape>& shapes() {
  static const std::vector<Shape> all = [] {
    std::vector<Shape> s;
    {
      // Theorem 3's r << m regime on a set that fits in L2: every update
      // runs getSet plus an embedded helping scan, every scan join/leave
      // plus collects.
      Shape x;
      x.name = "mixed_local";
      x.what = "fig3_cas_fast, m=4096, 3 workers: 80% scans of r=8 uniform "
               "components, 20% updates to the worker's own third";
      x.spec = "fig3_cas_fast";
      x.twin = "fig3_cas";
      x.m0 = x.m_end = 4096;
      x.round_ops = 400'000;
      x.roles = split_writers(
          Role{.write_share = 0.2, .scan_kind = wl::ScanSetKind::kUniform,
               .r = 8},
          x.m0, 3);
      s.push_back(std::move(x));
    }
    {
      // The camera plane: a scan is one fetch-add plus one chain read per
      // component and bypasses collects, helping and the active set, so a
      // collect optimisation must show no change here.  m is larger than
      // L2, so reads of cold windows miss the cache.  Walks past a chain's
      // head are rare here (traced: about 1 scan in 1000): a walk
      // needs a write to one of the window's components during the ~2 us
      // scan, and the writer's Zipf-hot keys are few of the windows.
      Shape x;
      x.name = "versioned_range";
      x.what = "fig3_cas_fast:value=versioned, m=65536, 1 writer (Zipf 0.99 "
               "updates over all of m), 2 readers (contiguous r=64 windows)";
      x.spec = "fig3_cas_fast:value=versioned";
      x.twin = "fig3_cas:value=versioned";
      x.m0 = x.m_end = 65536;
      x.round_ops = 1'000'000;
      x.roles = {Role{.write_share = 1, .zipf_theta = 0.99, .own_lo = 0,
                      .own_hi = x.m0},
                 Role{.scan_kind = wl::ScanSetKind::kContiguous, .r = 64},
                 Role{.scan_kind = wl::ScanSetKind::kContiguous, .r = 64}};
      s.push_back(std::move(x));
    }
    {
      // The same collect and helping code as mixed_local, reached through
      // update_batch, merging and a high retire rate: a change that moves
      // cost between scans and writes shows here.
      Shape x;
      x.name = "batch_ingest";
      x.what = "fig3_cas_fast behind ingest::Coalescer(batch=16, "
               "coalesce_window=64), m=4096, 2 producers (Zipf 0.99 writes "
               "over their own halves), 1 resident scanner (r=64 uniform)";
      x.spec = "fig3_cas_fast";
      x.twin = "fig3_cas";
      x.m0 = x.m_end = 4096;
      x.batch = 16;
      x.window = 64;
      x.primary_is_write = true;
      x.round_ops = 1'200'000;
      x.roles = split_writers(Role{.write_share = 1, .zipf_theta = 0.99},
                              x.m0, 2);
      x.roles.push_back(
          Role{.scan_kind = wl::ScanSetKind::kUniform, .r = 64});
      s.push_back(std::move(x));
    }
    {
      // The dynamic runtime and durability: pid churn against the
      // adaptive watermark, growth, and the one scan with r = m.
      Shape x;
      x.name = "lifecycle";
      x.what = "fig3_cas_fast, m0=1024 grown to 16384 by add_components(16) "
               "in step with the round, 2 workers (20% updates to their own "
               "half, 80% scans of r=8, pid re-registered every 64 ops), a "
               "checkpoint + load + restore at m0 and every 96 blocks";
      x.spec = "fig3_cas_fast";
      x.twin = "fig3_cas";
      x.m0 = 1024;
      x.m_end = 16384;
      x.reregister = true;
      x.round_ops = 500'000;
      x.roles = split_writers(
          Role{.write_share = 0.2, .scan_kind = wl::ScanSetKind::kUniform,
               .r = 8},
          x.m0, 2);
      s.push_back(std::move(x));
    }
    return s;
  }();
  return all;
}

const Shape& find_shape(std::string_view name) {
  for (const Shape& s : shapes()) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

// One worker's record of the current round: every kRecordEvery-th op's
// latency.  A round runs at most `round_ops` ops per worker, so the
// samplers are sized never to thin, and the workers' records merge by
// concatenation with equal weight.
struct RoundStats {
  std::uint64_t scans = 0;
  std::uint64_t writes = 0;
  psnap::bench::LatencySampler scan_ns, write_ns;
  // Coalescer writes only: those that flushed (one update_batch each) and
  // those that only buffered.
  psnap::bench::LatencySampler flush_ns, buffered_ns;

  void clear(std::uint64_t round_ops) {
    scans = writes = 0;
    const std::size_t cap = round_ops / kRecordEvery + 1;
    for (auto* s : {&scan_ns, &write_ns, &flush_ns, &buffered_ns}) {
      *s = psnap::bench::LatencySampler(cap);
    }
  }
};

// Counts of small values (chain lengths), exact at any run length.
struct Histogram {
  std::vector<std::uint64_t> counts;

  void add(std::uint64_t v) {
    if (v >= counts.size()) counts.resize(v + 1);
    ++counts[v];
  }
  void merge(const Histogram& o) {
    if (o.counts.size() > counts.size()) counts.resize(o.counts.size());
    for (std::size_t v = 0; v < o.counts.size(); ++v) counts[v] += o.counts[v];
  }
  // The smallest value at or above a share p of the counts; 0 when empty.
  double percentile(double p) const {
    std::uint64_t total = 0;
    for (std::uint64_t c : counts) total += c;
    std::uint64_t below = 0;
    for (std::size_t v = 0; v < counts.size(); ++v) {
      below += counts[v];
      if (static_cast<double>(below) >= p * static_cast<double>(total)) {
        return static_cast<double>(v);
      }
    }
    return 0;
  }
};

// core::OpStats read after each op of a traced round.
struct LayerCounts {
  OnlineStats scan_collects, chain_nodes;
  std::uint64_t scans = 0, scan_collects_max = 0, borrowed = 0;
  Histogram chain_lengths;
  OnlineStats update_collects, update_args, getset_size, batch_size;
  std::uint64_t updates = 0, cas_failed = 0;

  void note_scan(const core::OpStats& s) {
    ++scans;
    scan_collects.add(static_cast<double>(s.collects));
    scan_collects_max = std::max(scan_collects_max, s.collects);
    borrowed += s.borrowed;
    chain_nodes.add(static_cast<double>(s.chain_nodes));
    chain_lengths.add(s.chain_nodes);
  }

  // One publication: a singleton update or a Coalescer flush.
  void note_update(const core::OpStats& s) {
    ++updates;
    update_collects.add(static_cast<double>(s.collects));
    update_args.add(static_cast<double>(s.embedded_args));
    getset_size.add(static_cast<double>(s.getset_size));
    // A singleton update is a batch of one distinct component.
    batch_size.add(
        static_cast<double>(std::max<std::uint64_t>(1, s.batch_size)));
    cas_failed += s.cas_failed;
  }

  void merge(const LayerCounts& o) {
    scan_collects.merge(o.scan_collects);
    chain_nodes.merge(o.chain_nodes);
    scans += o.scans;
    scan_collects_max = std::max(scan_collects_max, o.scan_collects_max);
    borrowed += o.borrowed;
    chain_lengths.merge(o.chain_lengths);
    update_collects.merge(o.update_collects);
    update_args.merge(o.update_args);
    getset_size.merge(o.getset_size);
    batch_size.merge(o.batch_size);
    updates += o.updates;
    cas_failed += o.cas_failed;
  }
};

struct Worker {
  Worker(const Shape& shape, std::uint32_t index, std::uint64_t seed,
         bool traced)
      : role(shape.roles[index]), spans(index, traced ? kSpanCapacity : 0) {
    // The inputs: a fixed ring of ops drawn from the seed, so the same
    // seed gives the same inputs and no generator runs inside the timing.
    psnap::Xoshiro256 rng(psnap::SplitMix64(seed * 64 + index).next());
    const std::size_t n = role.r > 8 ? 8192 : 65536;
    std::optional<wl::ZipfSampler> zipf;
    if (role.own_hi > role.own_lo) {
      zipf.emplace(role.own_hi - role.own_lo, role.zipf_theta);
    }
    std::optional<wl::ScanSetGenerator> scan_gen;
    if (role.r > 0) scan_gen.emplace(role.scan_kind, shape.m0, role.r);
    std::vector<std::uint32_t> set;
    std::uint32_t sets = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const bool write = rng.next_bool(role.write_share);
      is_write.push_back(write);
      if (write) {
        target.push_back(role.own_lo +
                         static_cast<std::uint32_t>(zipf->sample(rng)));
      } else {
        scan_gen->next(rng, set);
        scan_sets.insert(scan_sets.end(), set.begin(), set.end());
        target.push_back(sets++);
      }
    }
  }

  void reset(const Shape& shape, std::uint64_t round_ops) {
    seq.assign(role.own_hi - role.own_lo, 1);
    seen.assign(role.r > 0 ? shape.m0 : 0, 0);
    last_epoch = 0;
    cursor = 0;
    round.clear(round_ops);
  }

  Role role;
  // Op k writes component target[k] when is_write[k]; otherwise it scans
  // the target[k]-th set of r indices in scan_sets.
  std::vector<std::uint8_t> is_write;
  std::vector<std::uint32_t> target;
  std::vector<std::uint32_t> scan_sets;

  // One set-up's state: last sequence written per owned component, last
  // sequence seen per component, last epoch seen.
  std::vector<std::uint32_t> seq;
  std::vector<std::uint32_t> seen;
  std::uint64_t last_epoch = 0;
  std::uint64_t cursor = 0;

  std::uint64_t ops = 0;
  Failures failures;
  RoundStats round;
  LayerCounts layers;
  OnlineStats scan_steps, scan_fai_steps, update_steps;
  psnap::ingest::Coalescer::Stats ingest;
  SpanBuffer spans;
};

// One constructed object and its worker threads, which run phases the
// coordinating thread releases and ends through `sync`.
struct Run {
  Run(const Shape& shape, std::vector<Worker>& workers)
      : shape(shape),
        workers(workers),
        sync(static_cast<std::ptrdiff_t>(workers.size() + 1)),
        progress(workers.size()) {}

  const Shape& shape;
  std::vector<Worker>& workers;
  std::unique_ptr<core::PartialSnapshot> snap;
  std::barrier<> sync;
  std::atomic<bool> stop{false};
  // Ops each worker finished in the current phase (paces lifecycle).
  std::vector<psnap::CachelinePadded<std::atomic<std::uint64_t>>> progress;
  // Phase parameters, written by the coordinator before it releases a
  // phase (the barrier orders them before the workers' reads).
  std::uint64_t op_budget = 0;  // the first worker to reach it ends it
  bool record = false;          // into each Worker::round
  bool traced = false;
  bool count_steps = false;
  bool done = false;
  std::vector<std::thread> threads;
};

void check_scan(Worker& w, std::span<const std::uint32_t> idx,
                const std::vector<std::uint64_t>& out, bool versioned,
                std::uint64_t epoch) {
  bool ok = out.size() == idx.size();
  for (std::size_t j = 0; ok && j < idx.size(); ++j) {
    const std::uint32_t c = idx[j];
    const auto seq = static_cast<std::uint32_t>(out[j]);
    // Invented (wrong component, never written) or older than a value
    // this reader already saw.
    if ((out[j] >> 32) != c || seq == 0 || seq < w.seen[c]) {
      ok = false;
    } else {
      w.seen[c] = seq;
    }
  }
  if (!ok) w.failures.add("a scan returned an invented or stale value");
  if (versioned) {
    if (epoch <= w.last_epoch) w.failures.add("a reader's epochs went back");
    w.last_epoch = epoch;
  }
}

void run_phase(Run& run, std::uint32_t index,
               std::optional<exec::ThreadHandle>& pid, core::ScanContext& ctx,
               std::vector<std::uint64_t>& out, psnap::ingest::Coalescer* co) {
  Worker& w = run.workers[index];
  const bool versioned = run.shape.versioned();
  const std::size_t n = w.is_write.size();
  const std::uint32_t r = w.role.r;
  std::atomic<std::uint64_t>& progress = *run.progress[index];
  for (std::uint64_t done = 0; !run.stop.load(std::memory_order_relaxed);) {
    const std::size_t k = w.cursor++ % n;
    const bool span = run.traced && w.ops % kSpanEvery == 0;
    RoundStats* rec = run.record ? &w.round : nullptr;
    const bool sampled = w.ops % kRecordEvery == 0;
    ++w.ops;
    exec::StepCounters before;
    if (run.count_steps) before = exec::ctx().steps;
    try {
      if (w.is_write[k]) {
        const std::uint32_t c = w.target[k];
        const std::uint64_t v = encode(c, ++w.seq[c - w.role.own_lo]);
        const std::uint64_t flushes = co ? co->stats().flushes : 0;
        const std::uint64_t t0 = now_nanos();
        if (co != nullptr) {
          co->write(c, v);
        } else {
          run.snap->update(c, v);
        }
        const std::uint64_t t1 = now_nanos();
        const bool published = co == nullptr || co->stats().flushes != flushes;
        if (rec != nullptr) ++rec->writes;
        if (rec != nullptr && sampled) {
          rec->write_ns.add(static_cast<double>(t1 - t0));
          if (co != nullptr) {
            (published ? rec->flush_ns : rec->buffered_ns)
                .add(static_cast<double>(t1 - t0));
          }
        }
        if (run.traced && published) w.layers.note_update(core::tls_op_stats());
        if (span) {
          w.spans.record(co == nullptr ? "update"
                         : published   ? "coalescer.flush"
                                       : "coalescer.buffer",
                         t0, t1);
        }
        if (run.count_steps) {
          w.update_steps.add(
              static_cast<double>((exec::ctx().steps - before).total));
        }
      } else {
        std::span<const std::uint32_t> idx(
            w.scan_sets.data() + std::size_t{w.target[k]} * r, r);
        std::uint64_t epoch = 0;
        const std::uint64_t t0 = now_nanos();
        if (versioned) {
          epoch = run.snap->scan_versioned(idx, out, ctx);
        } else {
          run.snap->scan(idx, out, ctx);
        }
        const std::uint64_t t1 = now_nanos();
        if (rec != nullptr) ++rec->scans;
        if (rec != nullptr && sampled) {
          rec->scan_ns.add(static_cast<double>(t1 - t0));
        }
        if (run.traced) w.layers.note_scan(core::tls_op_stats());
        if (span) w.spans.record("scan", t0, t1);
        if (run.count_steps) {
          const exec::StepCounters d = exec::ctx().steps - before;
          w.scan_steps.add(static_cast<double>(d.total));
          w.scan_fai_steps.add(static_cast<double>(
              d.by_kind[static_cast<std::size_t>(exec::ObjKind::kFai)]));
        }
        check_scan(w, idx, out, versioned, epoch);
      }
    } catch (const std::exception& e) {
      w.failures.add(std::string("an operation threw: ") + e.what());
    }
    if (run.shape.reregister && w.ops % kReregisterEvery == 0) {
      pid.reset();
      pid.emplace();
    }
    progress.store(++done, std::memory_order_relaxed);
    if (done == run.op_budget) run.stop.store(true, std::memory_order_relaxed);
  }
}

void worker_main(Run& run, std::uint32_t index) {
  std::optional<exec::ThreadHandle> pid(std::in_place);
  core::ScanContext ctx;
  std::vector<std::uint64_t> out;
  std::optional<psnap::ingest::Coalescer> co;
  if (run.shape.batch > 0) {
    psnap::ingest::Coalescer::Options options;
    options.batch = run.shape.batch;
    options.coalesce_window = run.shape.window;
    co.emplace(*run.snap, std::move(options));
  }
  run.sync.arrive_and_wait();  // set-up complete
  while (true) {
    run.sync.arrive_and_wait();  // phase released
    if (run.done) break;
    run_phase(run, index, pid, ctx, out, co ? &*co : nullptr);
    if (co) {
      // The phase's last writes must be visible before the coordinator
      // checks the object.
      try {
        co->flush();
      } catch (const std::exception& e) {
        run.workers[index].failures.add(std::string("a flush threw: ") +
                                        e.what());
      }
    }
    run.sync.arrive_and_wait();  // parked
  }
  if (co) {
    auto& total = run.workers[index].ingest;
    const auto& s = co->stats();
    total.writes += s.writes;
    total.merged += s.merged;
    total.flushes += s.flushes;
    total.flushed_entries += s.flushed_entries;
  }
}

// Constructs the object through the registry and prefills every
// component -- the set-up, timed into *setup (cost.h) -- then starts the
// workers; returns once every worker holds a pid.  Thread start-up stays
// out of the set-up: its latency is the host scheduler's, not psnap's.
std::unique_ptr<Run> start(const Shape& shape, const std::string& spec,
                           std::vector<Worker>& workers,
                           Cost* setup = nullptr) {
  auto run = std::make_unique<Run>(shape, workers);
  const CostClock clock = CostClock::now();
  run->snap = psnap::registry::make_snapshot(spec, shape.m0, kMaxThreads);
  for (std::uint32_t c = 0; c < shape.m0; ++c) {
    run->snap->update(c, encode(c, 1));
  }
  if (setup != nullptr) *setup = clock.stop();
  for (std::uint32_t w = 0; w < workers.size(); ++w) {
    run->threads.emplace_back(worker_main, std::ref(*run), w);
  }
  run->sync.arrive_and_wait();
  return run;
}

void finish(Run& run) {
  run.done = true;
  run.sync.arrive_and_wait();
  for (std::thread& t : run.threads) t.join();
}

// Sleeps in short slices until a worker has ended the phase.
void wait_for_stop(const Run& run) {
  while (!run.stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

// Releases one phase of `op_budget` ops per worker, runs control() on this
// thread while it lasts (by default: waits) and parks the workers again;
// returns the phase's elapsed seconds.
double phase(Run& run, std::uint64_t op_budget, bool record, bool traced,
             const std::function<void()>& control = {}) {
  run.op_budget = op_budget;
  run.record = record;
  run.traced = traced;
  run.stop.store(false, std::memory_order_relaxed);
  for (auto& p : run.progress) p->store(0, std::memory_order_relaxed);
  run.sync.arrive_and_wait();
  const Clock::time_point start = Clock::now();
  if (control) control();
  wait_for_stop(run);
  run.sync.arrive_and_wait();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Timings of the coordinator's checkpoint, restore and growth calls,
// accumulated over all rounds.
struct ControlStats {
  std::uint64_t ops = 0;
  // checkpoint = capture + commit; recover = load + restore.  Each in
  // cost (cost.h) and in wall time.
  std::vector<double> checkpoint_cost_ms, checkpoint_ms, recover_cost_ms,
      recover_ms;
  // Their parts, in wall time.
  std::vector<double> capture_ms, serialize_ms, commit_ms, load_ms,
      restore_ms;
  std::vector<double> grow_ns;
  std::uint64_t scan_attempts = 0;
  double frame_bytes = 0;
};

// The coordinator's checkpoint/restore plane over one round's object.
struct ControlPlane {
  ControlPlane(core::PartialSnapshot& snap, const Shape& shape,
               const std::string& dir, ControlStats& stats)
      : writer(dir, writer_options()),
        loader(dir),
        checkpointer(snap, writer, checkpointer_options(shape)),
        stats(stats) {}

  // The flush policy: frames are written and renamed into place but not
  // fsync'd.  The device's flush time belongs to the machine, not to
  // psnap, and on a shared virtual disk it varied up to 80% between
  // identical runs -- it would drown every change to the code.
  static psnap::persist::CheckpointWriter::Options writer_options() {
    psnap::persist::CheckpointWriter::Options o;
    o.sync = false;
    return o;
  }

  static psnap::recovery::Checkpointer::Options checkpointer_options(
      const Shape& shape) {
    psnap::recovery::Checkpointer::Options o;
    o.impl_spec = shape.spec;
    o.initial_m = shape.m0;
    o.max_threads = kMaxThreads;
    return o;
  }

  psnap::persist::CheckpointWriter writer;
  psnap::persist::CheckpointLoader loader;
  psnap::recovery::Checkpointer checkpointer;
  ControlStats& stats;
  std::uint64_t sequence = 1;
  std::uint32_t grown = 0;  // blocks added by add_components
};

// Every value in a frame is one some writer wrote: prefilled components
// carry their own index, grown ones still hold the initial 0.
bool frame_consistent(const psnap::persist::CheckpointData& frame,
                      const Shape& shape) {
  if (frame.values.size() != frame.num_components) return false;
  for (std::uint32_t c = 0; c < frame.num_components; ++c) {
    const std::uint64_t v = frame.values[c];
    const bool ok = c < shape.m0 ? (v >> 32) == c && v != encode(c, 0)
                                 : v == 0;
    if (!ok) return false;
  }
  return true;
}

// A checkpoint, then a load and restore of it, all checked; timed into
// cp.stats unless it is a warm-up.
void checkpoint_cycle(const Shape& shape, ControlPlane& cp, SpanBuffer* spans,
                      Failures& failures, bool timed = true) {
  cp.stats.ops += 2;
  ControlStats untimed;
  ControlStats& st = timed ? cp.stats : untimed;
  try {
    psnap::persist::CheckpointData frame;
    const std::uint64_t parent = spans ? spans->reserve_id() : 0;
    const std::uint64_t attempts = cp.checkpointer.stats().scan_attempts;
    const CostClock clock = CostClock::now();
    const std::uint64_t t0 = now_nanos();
    cp.checkpointer.capture(frame);
    const std::uint64_t t1 = now_nanos();
    st.scan_attempts += cp.checkpointer.stats().scan_attempts - attempts;
    std::uint64_t t2 = t1;
    if (spans != nullptr) {
      // commit() serializes internally; the image is built once more on
      // its own so serialization gets a span (traced runs only).
      st.frame_bytes = static_cast<double>(
          psnap::persist::serialize_frame(frame).size());
      t2 = now_nanos();
      st.serialize_ms.push_back(ms(t2 - t1));
      spans->record("persist.serialize", t1, t2, parent);
    }
    frame.sequence = cp.sequence++;
    cp.writer.commit(frame);
    const std::uint64_t t3 = now_nanos();
    const Cost checkpoint = clock.stop();
    st.capture_ms.push_back(ms(t1 - t0));
    st.commit_ms.push_back(ms(t3 - t2));
    // The traced run's extra serialization is not part of a checkpoint.
    st.checkpoint_ms.push_back(ms((t1 - t0) + (t3 - t2)));
    st.checkpoint_cost_ms.push_back(checkpoint.cost * 1e3 - ms(t2 - t1));
    if (spans != nullptr) {
      spans->record("recovery.capture", t0, t1, parent);
      spans->record("persist.commit", t2, t3, parent);
      spans->record("checkpoint", t0, t3, 0, parent);
    }

    const std::uint64_t rparent = spans ? spans->reserve_id() : 0;
    const CostClock rclock = CostClock::now();
    const std::uint64_t t4 = now_nanos();
    std::optional<psnap::persist::CheckpointData> loaded =
        cp.loader.load_newest();
    const std::uint64_t t5 = now_nanos();
    if (!loaded || !(*loaded == frame)) {
      failures.add("the newest frame on disk is not the one committed");
      return;
    }
    std::unique_ptr<core::PartialSnapshot> restored =
        psnap::recovery::restore(*loaded);
    const std::uint64_t t6 = now_nanos();
    st.recover_cost_ms.push_back(rclock.stop().cost * 1e3);
    st.load_ms.push_back(ms(t5 - t4));
    st.restore_ms.push_back(ms(t6 - t5));
    st.recover_ms.push_back(ms(t6 - t4));
    if (spans != nullptr) {
      spans->record("persist.load", t4, t5, rparent);
      spans->record("recovery.restore", t5, t6, rparent);
      spans->record("recover", t4, t6, 0, rparent);
    }
    if (restored->scan_all() != frame.values) {
      failures.add("a restored object's scan_all() differs from its frame");
    }
    if (!frame_consistent(frame, shape)) {
      failures.add("a checkpoint holds an invented value");
    }
  } catch (const std::exception& e) {
    failures.add(std::string("a checkpoint cycle threw: ") + e.what());
  }
}

void grow_step(Run& run, ControlPlane& cp, SpanBuffer* spans,
               Failures& failures) {
  const std::uint32_t expected = run.shape.m0 + cp.grown * kGrowBlock;
  ++cp.stats.ops;
  try {
    const std::uint64_t t0 = now_nanos();
    const std::uint32_t first = run.snap->add_components(kGrowBlock);
    const std::uint64_t t1 = now_nanos();
    ++cp.grown;
    // One grower: each block must start where the previous one ended.
    if (first != expected) {
      failures.add("growth blocks are not contiguous and disjoint");
    }
    cp.stats.grow_ns.push_back(static_cast<double>(t1 - t0));
    if (spans != nullptr) spans->record("core.add_components", t0, t1);
  } catch (const std::exception& e) {
    failures.add(std::string("add_components threw: ") + e.what());
  }
}

// lifecycle's coordinator during a timed round: grows m in step with the
// round's progress (the leading worker's share of its op budget) up to
// m_end, and checkpoints, loads and restores at m0 and after every
// kCheckpointBlocks blocks -- at the same eleven sizes in every round, so
// the median falls inside one size rather than between two.
void lifecycle_control(Run& run, ControlPlane& cp, SpanBuffer* spans,
                       Failures& failures) {
  const std::uint32_t blocks = (run.shape.m_end - run.shape.m0) / kGrowBlock;
  checkpoint_cycle(run.shape, cp, spans, failures);
  // Paced to finish at 90% of the round, so the last checkpoint never
  // races the round's end.
  const std::uint64_t pace = run.op_budget * 9 / 10;
  while (!run.stop.load(std::memory_order_relaxed) && cp.grown < blocks) {
    std::uint64_t lead = 0;
    for (const auto& p : run.progress) {
      lead = std::max(lead, p->load(std::memory_order_relaxed));
    }
    if (cp.grown * pace >= lead * blocks) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    grow_step(run, cp, spans, failures);
    if (cp.grown % kCheckpointBlocks == 0) {
      checkpoint_cycle(run.shape, cp, spans, failures);
    }
  }
}

// With the workers parked: the object holds exactly every writer's last
// write (after the final flush, for the Coalescer), grown components hold
// 0, and no reader saw a sequence number no writer had reached.
void check_quiesced(Run& run, std::uint32_t grown, Failures& failures) {
  const Shape& shape = run.shape;
  std::vector<std::uint32_t> last(shape.m0, 1);
  for (const Worker& w : run.workers) {
    for (std::uint32_t c = w.role.own_lo; c < w.role.own_hi; ++c) {
      last[c] = w.seq[c - w.role.own_lo];
    }
  }
  try {
    const std::vector<std::uint64_t> all = run.snap->scan_all();
    bool ok = all.size() == shape.m0 + grown * kGrowBlock;
    for (std::uint32_t c = 0; ok && c < all.size(); ++c) {
      ok = all[c] == (c < shape.m0 ? encode(c, last[c]) : 0);
    }
    if (!ok) failures.add("scan_all() differs from the writers' last writes");
  } catch (const std::exception& e) {
    failures.add(std::string("scan_all() threw: ") + e.what());
  }
  for (const Worker& w : run.workers) {
    for (std::uint32_t c = 0; c < w.seen.size(); ++c) {
      if (w.seen[c] > last[c]) {
        failures.add("a reader saw a value no writer had written");
        break;
      }
    }
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// One timed round, every worker's record merged.
struct RoundSummary {
  bool traced = false;
  double scans_per_s = 0, writes_per_s = 0;
  psnap::Percentiles scan, write, flush, buffered;
};

RoundSummary summarize_round(const std::vector<Worker>& workers,
                             double elapsed, bool traced) {
  psnap::bench::LatencySampler scan, write, flush, buffered;
  std::uint64_t scans = 0, writes = 0;
  for (const Worker& w : workers) {
    scan.merge(w.round.scan_ns);
    write.merge(w.round.write_ns);
    flush.merge(w.round.flush_ns);
    buffered.merge(w.round.buffered_ns);
    scans += w.round.scans;
    writes += w.round.writes;
  }
  return RoundSummary{traced,
                      static_cast<double>(scans) / elapsed,
                      static_cast<double>(writes) / elapsed,
                      tick_percentiles(scan.samples()),
                      tick_percentiles(write.samples()),
                      tick_percentiles(flush.samples()),
                      tick_percentiles(buffered.samples())};
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Shape& s : shapes()) out.push_back(s.name);
    return out;
  }();
  return names;
}

std::string describe_workload(std::string_view name) {
  return find_shape(name).what;
}

Result run_workload(std::string_view name, const Settings& st) {
  const Shape& shape = find_shape(name);
  const bool traced = !st.trace_dir.empty();
  const auto nworkers = static_cast<std::uint32_t>(shape.roles.size());
  const auto round_ops = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(shape.round_ops) *
                                    st.ops_scale));
  // The coordinator's own pid: prefill, checkpoints and restores are
  // ordinary snapshot operations.
  exec::ThreadHandle pid;
  Failures failures;
  std::vector<Worker> workers;
  for (std::uint32_t w = 0; w < nworkers; ++w) {
    workers.emplace_back(shape, w, st.seed, traced);
  }
  const std::string frames = st.frames_dir + "/" + shape.name + "-" +
                             std::to_string(::getpid());
  ControlStats control;
  SpanBuffer coordinator_spans(nworkers, traced ? kSpanCapacity : 0);
  SpanBuffer* spans = traced ? &coordinator_spans : nullptr;

  // Rounds until `seconds` of timed traffic, at least two; a traced run
  // alternates untraced and traced rounds, so the tracing overhead is
  // measured inside one process.
  std::vector<Cost> setups;
  std::vector<RoundSummary> rounds;
  double timed = 0;
  std::uint64_t outstanding_end = 0;
  while (rounds.size() < 2 || timed < st.seconds) {
    for (Worker& w : workers) w.reset(shape, round_ops);
    std::unique_ptr<Run> run =
        start(shape, shape.spec, workers, &setups.emplace_back());
    // Each round's frames start again at sequence 1.
    std::filesystem::remove_all(frames);
    ControlPlane cp(*run->snap, shape, frames, control);

    phase(*run, std::max<std::uint64_t>(1, round_ops / 5), false, false);
    check_quiesced(*run, cp.grown, failures);

    const bool traced_round = traced && rounds.size() % 2 == 1;
    const double elapsed =
        phase(*run, round_ops, true, traced_round, [&] {
          if (shape.grows()) lifecycle_control(*run, cp, spans, failures);
        });
    timed += elapsed;
    rounds.push_back(summarize_round(workers, elapsed, traced_round));
    check_quiesced(*run, cp.grown, failures);
    if (!shape.grows()) {
      // The first two cycles after a round run slower than the rest (the
      // first one's commit, the second one's capture), and a median taken
      // across those groups would move with their mix.
      for (std::uint32_t k = 0; k < kWarmupCheckpoints; ++k) {
        checkpoint_cycle(shape, cp, spans, failures, false);
      }
      for (std::uint32_t k = 0; k < st.checkpoints_per_round; ++k) {
        checkpoint_cycle(shape, cp, spans, failures);
      }
    }
    outstanding_end = run->snap->reclaim_outstanding();
    finish(*run);
  }
  std::filesystem::remove_all(frames);

  Result res;
  const auto& defs = traced ? per_layer_metrics() : end_to_end_metrics();
  auto put = [&res, &defs](const char* name, double value,
                           std::uint64_t samples) {
    for (const MetricDef& d : defs) {
      if (std::string_view(d.name) == name) {
        res.metrics.push_back(Metric{name, value, d.unit, samples});
        return;
      }
    }
    throw std::logic_error(std::string("metric not in the table: ") + name);
  };
  auto extra = [&res](const char* name, double value, const char* unit,
                      std::uint64_t samples) {
    res.extras.push_back(Metric{name, value, unit, samples});
  };
  // Median over rounds (optionally only the traced or untraced ones).
  auto over_rounds = [&rounds](auto field,
                               std::optional<bool> only_traced = {}) {
    std::vector<double> v;
    for (const RoundSummary& r : rounds) {
      if (!only_traced || r.traced == *only_traced) v.push_back(field(r));
    }
    return median(v);
  };
  const std::uint64_t n = rounds.size();

  if (!traced) {
    std::vector<double> setup_cost, setup_wall;
    for (const Cost& c : setups) {
      setup_cost.push_back(c.cost);
      setup_wall.push_back(c.wall);
    }
    put("setup_s", median(setup_cost), n);
    put("scan_p50_ns", over_rounds([](auto& r) { return r.scan.p50; }), n);
    put("write_p50_ns", over_rounds([](auto& r) { return r.write.p50; }), n);
    put("checkpoint_p50_ms", median(control.checkpoint_cost_ms),
        control.checkpoint_cost_ms.size());
    put("restore_p50_ms", median(control.recover_cost_ms),
        control.recover_cost_ms.size());
    extra("setup_wall_s", median(setup_wall), "s", n);
    extra("checkpoint_wall_p50_ms", median(control.checkpoint_ms), "ms",
          control.checkpoint_ms.size());
    extra("restore_wall_p50_ms", median(control.recover_ms), "ms",
          control.recover_ms.size());
    extra("peak_rss_mb", peak_rss_mb(), "MB", 1);
    extra("scans_per_s",
          over_rounds([](auto& r) { return r.scans_per_s; }), "1/s", n);
    extra("writes_per_s",
          over_rounds([](auto& r) { return r.writes_per_s; }), "1/s", n);
    extra("scan_p99_ns", over_rounds([](auto& r) { return r.scan.p99; }),
          "ns", n);
    extra("write_p99_ns", over_rounds([](auto& r) { return r.write.p99; }),
          "ns", n);
    if (shape.batch > 0) {
      extra("batch_p50_ns", over_rounds([](auto& r) { return r.flush.p50; }),
            "ns", n);
      extra("batch_p99_ns", over_rounds([](auto& r) { return r.flush.p99; }),
            "ns", n);
    }
    if (shape.grows()) {
      extra("grow_p99_ns", psnap::summarize_percentiles(control.grow_ns).p99,
            "ns", control.grow_ns.size());
    }
  } else {
    LayerCounts L;
    for (const Worker& w : workers) L.merge(w.layers);
    const auto share = [](std::uint64_t part, std::uint64_t whole) {
      return whole == 0 ? 0.0
                        : static_cast<double>(part) /
                              static_cast<double>(whole);
    };
    put("core.scan_collects_mean", L.scan_collects.mean(), L.scans);
    put("core.scan_collects_max",
        static_cast<double>(L.scan_collects_max), L.scans);
    put("core.scan_borrowed_share", share(L.borrowed, L.scans), L.scans);
    put("core.update_collects_mean", L.update_collects.mean(), L.updates);
    put("core.update_embedded_args_mean", L.update_args.mean(),
        L.updates);
    put("core.update_cas_fail_share", share(L.cas_failed, L.updates),
        L.updates);
    put("core.batch_size_mean", L.batch_size.mean(), L.updates);
    put("activeset.getset_size_mean", L.getset_size.mean(), L.updates);
    put("primitives.chain_nodes_mean", L.chain_nodes.mean(), L.scans);
    put("primitives.chain_nodes_p99", L.chain_lengths.percentile(0.99),
        L.scans);
    put("reclaim.outstanding_end", static_cast<double>(outstanding_end),
        1);

    // Coalescer totals; without one every write publishes one entry.
    psnap::ingest::Coalescer::Stats in;
    for (const Worker& w : workers) {
      in.writes += w.ingest.writes;
      in.merged += w.ingest.merged;
      in.flushes += w.ingest.flushes;
      in.flushed_entries += w.ingest.flushed_entries;
    }
    if (shape.batch == 0) in = {L.updates, 0, L.updates, L.updates};
    put("ingest.merge_ratio", share(in.merged, in.writes), in.writes);
    put("ingest.entries_per_flush",
        share(in.flushed_entries, in.flushes), in.flushes);
    put("exec.pid_watermark",
        exec::ThreadRegistry::process_wide().high_watermark(), 1);

    const std::uint64_t captures = control.capture_ms.size();
    put("recovery.capture_ms_p50", median(control.capture_ms), captures);
    put("recovery.capture_attempts_mean",
        share(control.scan_attempts, captures), captures);
    put("recovery.restore_ms_p50", median(control.restore_ms),
        control.restore_ms.size());
    put("persist.serialize_ms_p50", median(control.serialize_ms),
        control.serialize_ms.size());
    put("persist.commit_ms_p50", median(control.commit_ms),
        control.commit_ms.size());
    put("persist.load_ms_p50", median(control.load_ms),
        control.load_ms.size());
    put("persist.frame_bytes", control.frame_bytes, captures);

    const auto primary = [&shape](const RoundSummary& r) {
      return shape.primary_is_write ? r.write.p50 : r.scan.p50;
    };
    put("trace.overhead_ratio",
        over_rounds(primary, true) / over_rounds(primary, false), n);
    if (shape.batch > 0) {
      extra("ingest.write_buffered_ns_p50",
            over_rounds([](auto& r) { return r.buffered.p50; }, false), "ns",
            n);
    }

    // The Instrumented twin: the same roles and inputs for a fixed op
    // count, counting the paper's steps per operation.
    for (Worker& w : workers) w.reset(shape, st.twin_ops);
    {
      std::unique_ptr<Run> twin = start(shape, shape.twin, workers);
      twin->count_steps = true;
      phase(*twin, st.twin_ops, false, false);
      check_quiesced(*twin, 0, failures);
      finish(*twin);
    }
    OnlineStats scan_steps, fai_steps, update_steps;
    for (const Worker& w : workers) {
      scan_steps.merge(w.scan_steps);
      fai_steps.merge(w.scan_fai_steps);
      update_steps.merge(w.update_steps);
    }
    put("exec.scan_steps_mean", scan_steps.mean(), scan_steps.count());
    put("exec.update_steps_mean", update_steps.mean(),
        update_steps.count());
    put("exec.scan_fai_steps_mean", fai_steps.mean(), fai_steps.count());

    for (const Metric& probe : run_probes(nworkers, st.probe_s)) {
      put(probe.name.c_str(), probe.value, probe.samples);
    }

    std::vector<Span> all = coordinator_spans.spans();
    std::uint64_t dropped = coordinator_spans.dropped();
    for (const Worker& w : workers) {
      all.insert(all.end(), w.spans.spans().begin(), w.spans.spans().end());
      dropped += w.spans.dropped();
    }
    res.self_times = self_times(all);
    extra("trace.spans", static_cast<double>(all.size()), "count", all.size());
    extra("trace.spans_dropped", static_cast<double>(dropped), "count", 1);
    std::filesystem::create_directories(st.trace_dir);
    if (!write_spans_jsonl(st.trace_dir + "/spans.jsonl", shape.name, all)) {
      failures.add("cannot write " + st.trace_dir + "/spans.jsonl");
    }
  }

  // Every metric of the table, in its order.
  std::vector<Metric> ordered;
  for (const MetricDef& d : defs) {
    auto it = std::find_if(res.metrics.begin(), res.metrics.end(),
                           [&d](const Metric& x) { return x.name == d.name; });
    if (it == res.metrics.end()) {
      throw std::logic_error(std::string("metric not measured: ") + d.name);
    }
    ordered.push_back(*it);
  }
  res.metrics = std::move(ordered);

  res.attempted = control.ops;
  res.failed = failures.count;
  res.first_failure = failures.first;
  for (const Worker& w : workers) {
    res.attempted += w.ops;
    res.failed += w.failures.count;
    if (res.first_failure.empty()) res.first_failure = w.failures.first;
  }
  extra("failed_op_share",
        static_cast<double>(res.failed) / static_cast<double>(res.attempted),
        "share", res.attempted);
  return res;
}

}  // namespace psnapbench
