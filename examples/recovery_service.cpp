// Crash recovery end to end: a live service, real kill -9, rollback
// restore -- the paper's "storing checkpoints for data recovery"
// (Section 1) exercised against actual process death.
//
//   build/examples/recovery_service [--cycles=10] [--stages=6]
//       [--impl=<registry spec>] [--interval-us=5000]
//       [--kill-min-ms=30] [--kill-max-ms=120] [--dir=<checkpoint dir>]
//       [--json=<artifact path>] [--seed=1]
//
// The SUPERVISOR (this process) forks a SERVICE child and SIGKILLs it at
// a random point mid-traffic, `cycles` times.  The child runs the
// checkpoint_debugger pipeline -- stage k's progress counter lives in
// component k of a partial snapshot object, so `progress[k] <=
// progress[k-1]` holds at every real instant -- with two additions:
//
//   * a recovery::Checkpointer thread commits a consistent full scan
//     every `interval-us` through persist::CheckpointWriter's atomic
//     rename protocol;
//   * on startup the child loads the newest intact frame, restores the
//     object through recovery::restore(), seeds the stages from it, and
//     resumes frame numbering after the loaded sequence.
//
// An in-child oracle thread keeps re-checking the pipeline invariant on
// live partial scans and exits with a distinct code on violation.  After
// every kill the supervisor checks the surviving newest frame: the
// invariant must hold IN the frame (a torn checkpoint would break it),
// and progress must be component-wise monotone against the previous
// cycle's frame (restore never rolls back past what was durably
// committed), and the directory must hold at most keep_frames frames
// plus the writer's spare file and nothing else (frames are pruned by
// recycling their files, so a kill at any instant leaves no stray file).
// Recovery latency -- child spawn to first frame that
// supersedes the pre-kill one -- is measured per cycle and written as a
// JSON artifact for CI trending, with the CRC-32 kernel ("pclmul" or
// "slicing-by-8") that checksummed the frames.
//
// Without --dir the frames go to a fresh /tmp/psnap-recovery-XXXXXX
// directory, which the supervisor removes when it exits, failing or not;
// a --dir directory is left as it is.
//
// Exit status: 0 when every cycle survives with zero violations.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "exec/thread_registry.h"
#include "persist/checkpoint.h"
#include "persist/crc32.h"
#include "recovery/checkpointer.h"
#include "recovery/restore.h"
#include "registry/registry.h"

namespace {

using psnap::persist::CheckpointData;
using psnap::persist::CheckpointLoader;
using psnap::persist::CheckpointWriter;

constexpr int kExitStartupFailure = 2;
constexpr int kExitInvariantViolated = 3;

// progress[k] <= progress[k-1]: a stage cannot have consumed more than
// its upstream produced.  Holds at every real instant, so it must hold in
// every consistent frame.
bool pipeline_invariant_holds(const std::vector<std::uint64_t>& v) {
  for (std::size_t k = 1; k < v.size(); ++k) {
    if (v[k] > v[k - 1]) return false;
  }
  return true;
}

std::uint64_t xorshift(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

// ---- The service child: pipeline + checkpointer + live oracle --------

[[noreturn]] void service_main(const std::string& impl, std::uint32_t stages,
                               const std::string& dir,
                               std::uint64_t interval_us) {
  const std::uint32_t max_threads = stages + 3;  // stages, ckpt, oracle, main

  // Rollback restore: resume from the newest intact frame if one
  // survived the previous life, else start fresh.
  std::unique_ptr<psnap::core::PartialSnapshot> snap;
  std::uint64_t resume_sequence = 0;
  {
    psnap::exec::ThreadHandle pid;
    auto frame = CheckpointLoader(dir).load_newest();
    if (frame.has_value()) {
      if (!pipeline_invariant_holds(frame->values)) _exit(kExitInvariantViolated);
      snap = psnap::recovery::restore(*frame);
      resume_sequence = frame->sequence;
    } else {
      snap = psnap::registry::make_snapshot(impl, stages, max_threads);
    }
  }
  auto& progress = *snap;

  // Seed the coordination counters from the restored view so the
  // pipeline continues where the checkpoint left it.
  std::vector<std::uint64_t> restored;
  {
    psnap::exec::ThreadHandle pid;
    restored = progress.scan_all();
  }
  std::vector<std::atomic<std::uint64_t>> done(stages);
  for (std::uint32_t k = 0; k < stages; ++k) done[k].store(restored[k]);

  std::vector<std::thread> workers;
  for (std::uint32_t k = 0; k < stages; ++k) {
    workers.emplace_back([&, k] {
      psnap::exec::ThreadHandle pid;
      std::uint64_t my_done = done[k].load();
      for (;;) {  // runs until SIGKILL
        std::uint64_t upstream =
            k == 0 ? my_done + 1  // unbounded producer
                   : done[k - 1].load(std::memory_order_acquire);
        if (my_done < upstream) {
          ++my_done;
          progress.update(k, my_done);
          done[k].store(my_done, std::memory_order_release);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }

  // Live oracle: consistent partial scans of adjacent stage pairs must
  // satisfy the invariant at all times.
  std::thread oracle([&] {
    psnap::exec::ThreadHandle pid;
    std::vector<std::uint64_t> values;
    std::uint64_t seed = 7;
    for (;;) {
      auto k = static_cast<std::uint32_t>(
          1 + xorshift(seed) % (stages - 1));
      progress.scan(std::vector<std::uint32_t>{k - 1, k}, values);
      if (values[1] > values[0]) _exit(kExitInvariantViolated);
    }
  });

  // The checkpoint service: periodic durable frames, sequence numbering
  // resumed past the frame this life restored from.
  psnap::exec::ThreadHandle pid;
  CheckpointWriter writer(dir);
  psnap::recovery::Checkpointer::Options options;
  options.impl_spec = impl;
  options.initial_m = stages;
  options.max_threads = max_threads;
  psnap::recovery::Checkpointer ck(progress, writer, options);
  ck.set_next_sequence(resume_sequence + 1);
  std::atomic<bool> never_stop{false};
  ck.run(never_stop, std::chrono::microseconds(interval_us));
  _exit(kExitStartupFailure);  // run() only returns if stop is set
}

// ---- The supervisor ---------------------------------------------------

std::uint64_t newest_sequence(const std::string& dir) {
  auto frame = CheckpointLoader(dir).load_newest();
  return frame.has_value() ? frame->sequence : 0;
}

// Empty when `dir` holds at most keep_frames frames plus one spare file
// (counted together: a kill between a commit's rename and its prune
// leaves keep_frames + 1 frames and no spare) and nothing else; otherwise
// what is wrong with it.
std::string check_directory_bounded(const std::string& dir) {
  const std::size_t keep = CheckpointWriter::Options{}.keep_frames;
  const std::size_t frames = CheckpointLoader(dir).frame_paths().size();
  std::size_t files = 0;
  bool spare = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++files;
    spare = spare || entry.path().filename() == CheckpointWriter::kSpareName;
  }
  const std::size_t known = frames + (spare ? 1 : 0);
  if (known > keep + 1) {
    return std::to_string(frames) + " frames" + (spare ? " and a spare" : "") +
           ", more than keep_frames=" + std::to_string(keep) +
           " plus one spare";
  }
  if (files > known) {
    return std::to_string(files - known) +
           " file(s) that are neither frames nor the spare";
  }
  return "";
}

// Removes the checkpoint directory the supervisor made with mkdtemp on
// every return from main; a --dir directory is never handed to it.
// Forked children leave through _exit, and the pid check keeps any other
// exit of theirs from removing the directory under the supervisor.
struct TempDirRemover {
  std::string path;  // empty: nothing to remove
  pid_t owner = ::getpid();
  ~TempDirRemover() {
    if (path.empty() || ::getpid() != owner) return;
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
};

}  // namespace

int main(int argc, char** argv) {
  psnap::CliFlags flags;
  flags.define("cycles", "10", "kill/restore cycles to run");
  flags.define("stages", "6", "pipeline stages");
  flags.define("impl", "fig3_cas",
               "registry spec of the snapshot implementation:\n" +
                   psnap::registry::snapshot_catalogue());
  flags.define("interval-us", "5000", "checkpoint interval (microseconds)");
  flags.define("kill-min-ms", "30", "min service lifetime before SIGKILL");
  flags.define("kill-max-ms", "120", "max service lifetime before SIGKILL");
  flags.define("dir", "",
               "checkpoint directory (default: a fresh temp dir, removed "
               "on exit)");
  flags.define("json", "", "write recovery-latency JSON artifact here");
  flags.define("seed", "1", "kill-timing seed");
  if (!flags.parse(argc, argv)) return 1;

  const auto cycles = flags.get_uint("cycles");
  const auto stages = static_cast<std::uint32_t>(flags.get_uint("stages"));
  const auto interval_us = flags.get_uint("interval-us");
  const auto kill_min_ms = flags.get_uint("kill-min-ms");
  const auto kill_max_ms = flags.get_uint("kill-max-ms");
  const std::string impl = flags.get_string("impl");
  std::uint64_t rng = flags.get_uint("seed") | 1;

  if (cycles < 1 || stages < 2 || kill_max_ms < kill_min_ms) {
    std::fprintf(stderr,
                 "need --cycles >= 1, --stages >= 2 and kill-max >= "
                 "kill-min\n");
    return 1;
  }

  std::string dir = flags.get_string("dir");
  TempDirRemover made_dir;
  if (dir.empty()) {
    std::string tmpl = "/tmp/psnap-recovery-XXXXXX";
    char* made = ::mkdtemp(tmpl.data());
    if (made == nullptr) {
      std::perror("mkdtemp");
      return 1;
    }
    dir = made;
    made_dir.path = dir;
  }
  std::printf("checkpoint dir: %s\n", dir.c_str());

  // Validate the spec up front (the child would only report exit codes).
  try {
    psnap::registry::make_snapshot(impl, stages, 1);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  std::vector<double> recovery_ms;
  std::vector<std::uint64_t> previous;  // last verified frame's values
  std::uint64_t frames_verified = 0;

  for (std::uint64_t cycle = 1; cycle <= cycles; ++cycle) {
    const std::uint64_t pre_kill_seq = newest_sequence(dir);

    auto spawn_time = std::chrono::steady_clock::now();
    pid_t child = ::fork();
    if (child < 0) {
      std::perror("fork");
      return 1;
    }
    if (child == 0) {
      service_main(impl, stages, dir, interval_us);  // never returns
    }

    // Recovery latency: spawn to the first frame superseding the one the
    // child restored from (load + restore + reseed + first commit).
    const auto deadline =
        spawn_time + std::chrono::seconds(30);
    bool recovered = false;
    while (std::chrono::steady_clock::now() < deadline) {
      if (newest_sequence(dir) > pre_kill_seq) {
        recovered = true;
        break;
      }
      int status = 0;
      if (::waitpid(child, &status, WNOHANG) == child) {
        std::fprintf(stderr,
                     "cycle %llu: service died before first checkpoint "
                     "(status %d)\n",
                     static_cast<unsigned long long>(cycle), status);
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!recovered) {
      std::fprintf(stderr, "cycle %llu: no new frame within 30s\n",
                   static_cast<unsigned long long>(cycle));
      ::kill(child, SIGKILL);
      ::waitpid(child, nullptr, 0);
      return 1;
    }
    double latency_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - spawn_time)
            .count();
    recovery_ms.push_back(latency_ms);

    // Let traffic (and checkpoints) run, then kill -9 mid-flight.
    std::uint64_t life_ms =
        kill_min_ms + xorshift(rng) % (kill_max_ms - kill_min_ms + 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(life_ms));
    ::kill(child, SIGKILL);
    int status = 0;
    ::waitpid(child, &status, 0);
    if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
      // The child beat the SIGKILL by exiting on its own -- only the
      // oracle or startup failure does that, and both are fatal.
      std::fprintf(stderr, "cycle %llu: service exited with status %d\n",
                   static_cast<unsigned long long>(cycle),
                   WIFEXITED(status) ? WEXITSTATUS(status) : -1);
      return 1;
    }

    // The rollback point the next life will restore from: intact,
    // invariant-satisfying, and monotone over the previous cycle's.
    CheckpointLoader::Report report;
    auto frame = CheckpointLoader(dir).load_newest(&report);
    if (!frame.has_value()) {
      std::fprintf(stderr, "cycle %llu: no intact frame after kill\n",
                   static_cast<unsigned long long>(cycle));
      return 1;
    }
    if (!pipeline_invariant_holds(frame->values)) {
      std::fprintf(stderr, "cycle %llu: INVARIANT VIOLATED in frame %llu\n",
                   static_cast<unsigned long long>(cycle),
                   static_cast<unsigned long long>(frame->sequence));
      return 1;
    }
    if (!previous.empty()) {
      for (std::uint32_t k = 0; k < stages; ++k) {
        if (frame->values[k] < previous[k]) {
          std::fprintf(stderr,
                       "cycle %llu: stage %u went BACKWARD across restore "
                       "(%llu -> %llu)\n",
                       static_cast<unsigned long long>(cycle), k,
                       static_cast<unsigned long long>(previous[k]),
                       static_cast<unsigned long long>(frame->values[k]));
          return 1;
        }
      }
    }
    previous = frame->values;
    ++frames_verified;
    if (const std::string wrong = check_directory_bounded(dir);
        !wrong.empty()) {
      std::fprintf(stderr, "cycle %llu: checkpoint directory unbounded: %s\n",
                   static_cast<unsigned long long>(cycle), wrong.c_str());
      return 1;
    }

    std::printf(
        "cycle %2llu: recovered in %6.1f ms, killed after %3llu ms, "
        "frame %llu stage0=%llu stage%u=%llu%s\n",
        static_cast<unsigned long long>(cycle), latency_ms,
        static_cast<unsigned long long>(life_ms),
        static_cast<unsigned long long>(frame->sequence),
        static_cast<unsigned long long>(frame->values[0]), stages - 1,
        static_cast<unsigned long long>(frame->values[stages - 1]),
        report.rejected.empty() ? "" : " [rejected frames present]");
  }

  // Final end-to-end restore in the supervisor itself: the surviving
  // frame must rebuild an object whose scan equals the frame.
  {
    psnap::exec::ThreadHandle pid;
    auto frame = CheckpointLoader(dir).load_newest();
    auto restored = psnap::recovery::restore(*frame);
    if (restored->scan_all() != frame->values) {
      std::fprintf(stderr, "final restore does not match its frame\n");
      return 1;
    }
  }

  double min_ms = recovery_ms[0], max_ms = recovery_ms[0], sum = 0;
  for (double ms : recovery_ms) {
    min_ms = std::min(min_ms, ms);
    max_ms = std::max(max_ms, ms);
    sum += ms;
  }
  double mean_ms = sum / static_cast<double>(recovery_ms.size());

  const std::string crc_kernel(psnap::persist::crc32_kernel());
  std::printf(
      "%llu kill/restore cycles survived, %llu frames verified, "
      "0 invariant violations\n"
      "recovery latency: min %.1f ms, mean %.1f ms, max %.1f ms "
      "(crc kernel %s)\n",
      static_cast<unsigned long long>(cycles),
      static_cast<unsigned long long>(frames_verified), min_ms, mean_ms,
      max_ms, crc_kernel.c_str());

  const std::string json_path = flags.get_string("json");
  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::perror("fopen json");
      return 1;
    }
    std::fprintf(out,
                 "{\n  \"impl\": \"%s\",\n  \"stages\": %u,\n"
                 "  \"cycles\": %llu,\n  \"violations\": 0,\n"
                 "  \"crc_kernel\": \"%s\",\n"
                 "  \"recovery_latency_ms\": {\"min\": %.3f, \"mean\": %.3f, "
                 "\"max\": %.3f},\n  \"per_cycle_ms\": [",
                 impl.c_str(), stages,
                 static_cast<unsigned long long>(cycles), crc_kernel.c_str(),
                 min_ms, mean_ms, max_ms);
    for (std::size_t i = 0; i < recovery_ms.size(); ++i) {
      std::fprintf(out, "%s%.3f", i == 0 ? "" : ", ", recovery_ms[i]);
    }
    std::fprintf(out, "]\n}\n");
    std::fclose(out);
    std::printf("recovery-latency artifact: %s\n", json_path.c_str());
  }
  return 0;
}
