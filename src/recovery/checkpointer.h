// The Checkpointer: periodic consistent scans committed as durable frames.
//
// A recovery service points one of these at a live snapshot object and a
// checkpoint directory; each checkpoint_now() takes one consistent scan
// (full or partial, on whichever value plane the object speaks -- the
// versioned plane's camera epoch is captured into the frame) and commits
// it through persist::CheckpointWriter's atomic-rename protocol.
//
// Graceful degradation is the point: the capped baselines (seqlock,
// double_collect with max_attempts= set) throw baseline::StarvationError
// when a scan loses too many races -- and a stop-cooperating worker can
// make a capped scan lose them indefinitely.  Rather than aborting the
// service, the Checkpointer backs off exponentially (initial delay,
// doubling to a max) and retries the whole scan; only after
// backoff.max_attempts scan attempts does it give up, throwing
// CheckpointAbandoned.  The periodic run() loop survives even that: an
// abandoned checkpoint is counted and the next interval tries again --
// the last durable frame simply stays the recovery point a little longer.
//
// Wait-free implementations never throw StarvationError, so with them the
// retry machinery is dormant and every checkpoint is one scan.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/partial_snapshot.h"
#include "persist/checkpoint.h"

namespace psnap::recovery {

// Exponential backoff between scan attempts of one checkpoint.
struct BackoffPolicy {
  // Scan attempts per checkpoint before giving up (>= 1).
  std::uint64_t max_attempts = 8;
  std::chrono::microseconds initial{100};
  std::chrono::microseconds max{50'000};
  // Delay grows by this factor after every starved attempt.
  double multiplier = 2.0;
};

// Thrown when one checkpoint exhausted its scan attempts.
class CheckpointAbandoned : public std::runtime_error {
 public:
  explicit CheckpointAbandoned(std::uint64_t attempts)
      : std::runtime_error("checkpoint abandoned after " +
                           std::to_string(attempts) + " starved scans"),
        attempts(attempts) {}

  std::uint64_t attempts;
};

class Checkpointer {
 public:
  struct Options {
    BackoffPolicy backoff;
    // Recorded into every frame so restore() can rebuild the object.
    // restore() builds at the frame's count; initial_m (0 by default)
    // only has to stay at or below it.
    std::string impl_spec;
    std::uint32_t initial_m = 0;
    std::uint32_t max_threads = 0;
    // Sleep used for backoff and the run() interval; tests inject a
    // recording fake.  Defaults to std::this_thread::sleep_for.
    std::function<void(std::chrono::microseconds)> sleep;
  };

  struct Stats {
    std::uint64_t frames_committed = 0;
    std::uint64_t scan_attempts = 0;
    std::uint64_t starved_scans = 0;      // attempts that threw
    std::uint64_t abandoned = 0;          // checkpoints given up
    std::uint64_t backoff_us = 0;         // total backoff slept
  };

  // The snapshot and writer must outlive the Checkpointer.  The calling
  // thread of every capture/checkpoint must hold a registered pid
  // (exec::ThreadHandle / ScopedPid): a scan is an ordinary snapshot
  // operation.
  Checkpointer(core::PartialSnapshot& snapshot,
               persist::CheckpointWriter& writer, Options options);

  // One consistent FULL scan (all components) into `out`, with the
  // retry/backoff policy applied.  Fills every field except `sequence`.
  void capture(persist::CheckpointData& out);

  // Partial form: scan only `indices` (the paper's partial snapshot as a
  // partial checkpoint).  The resulting frame is not restorable on its
  // own (recovery::restore rejects it) but is durable and verifiable.
  void capture(std::span<const std::uint32_t> indices,
               persist::CheckpointData& out);

  // capture + assign the next sequence number + commit.  Returns the
  // committed frame path.  Throws CheckpointAbandoned (scan attempts
  // exhausted) or std::runtime_error (IO).  Captures into one frame the
  // Checkpointer owns, so its payload capacity survives from one
  // checkpoint to the next.
  std::string checkpoint_now();

  // Periodic loop: checkpoint, sleep `interval`, repeat until `stop` is
  // set.  Abandoned checkpoints are counted and the loop continues; IO
  // errors propagate (a broken checkpoint directory is fatal).
  void run(const std::atomic<bool>& stop, std::chrono::microseconds interval);

  // Resume sequence numbering after a restore: the next committed frame
  // gets `next` (frames must supersede the one the service loaded).
  void set_next_sequence(std::uint64_t next) { next_sequence_ = next; }
  std::uint64_t next_sequence() const { return next_sequence_; }

  const Stats& stats() const { return stats_; }

 private:
  void capture_impl(std::span<const std::uint32_t> indices, bool full,
                    persist::CheckpointData& out);

  core::PartialSnapshot& snapshot_;
  persist::CheckpointWriter& writer_;
  Options options_;
  Stats stats_;
  std::uint64_t next_sequence_ = 1;
  std::vector<std::uint32_t> all_indices_;  // reused full-scan index set
  persist::CheckpointData frame_;           // reused checkpoint_now frame
};

}  // namespace psnap::recovery
