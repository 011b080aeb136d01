// Coalescing ingest front-end: buffers a stream of singleton writes and
// flushes them as one atomic/amortized update_batch.
//
// The batch protocol (core/partial_snapshot.h) amortizes one announcement
// record, one helping round, and one grace period over k writes -- but
// only if the caller HAS k writes in hand.  The Coalescer manufactures
// them from an ordinary write stream, the way an ingest pipeline in front
// of a snapshot-backed store would: writes accumulate in a pending batch,
// same-component writes within the window merge last-wins (the snapshot
// only ever publishes the newest value, so intermediate ones are pure
// protocol cost), and the batch flushes when it reaches `batch` distinct
// components or `coalesce_window` raw writes.
//
// Single-threaded by design: one Coalescer fronts one producer thread
// (per-thread ingest queues), the snapshot underneath provides the
// cross-thread atomicity.  Buffered writes are invisible to scans until
// the flush -- the window bounds that staleness.
//
// The registry's universal batch=/coalesce_window= spec options
// (registry::IngestKnobs) carry exactly these two knobs from a CLI spec
// to this constructor.
#pragma once

#include <cstdint>
#include <vector>

#include "core/partial_snapshot.h"

namespace psnap::ingest {

class Coalescer {
 public:
  struct Options {
    // Flush when this many distinct components are pending.  1 = flush
    // every write (the singleton baseline the batched path A/Bs against).
    std::uint32_t batch = 1;
    // Flush after this many raw writes even if fewer than `batch`
    // distinct components accumulated; while below it, same-component
    // writes merge last-wins.  0 disables coalescing: every write is a
    // distinct pending entry.
    std::uint32_t coalesce_window = 0;
  };

  struct Stats {
    std::uint64_t writes = 0;    // raw writes accepted
    std::uint64_t merged = 0;    // writes absorbed into a pending entry
    std::uint64_t flushes = 0;   // update_batch / update calls issued
    std::uint64_t flushed_entries = 0;  // distinct entries published
  };

  // The snapshot must outlive the Coalescer.  Callers pass a snapshot
  // whose batch_atomicity() != kUnsupported (checked on first flush by
  // the snapshot itself, which throws from update_batch otherwise).
  Coalescer(core::PartialSnapshot& snapshot, Options options);

  // Flushes any pending writes.  Destructors must not throw, so a failing
  // terminal flush (e.g. a kUnsupported snapshot) is swallowed; call
  // flush() explicitly to observe errors.
  ~Coalescer();

  Coalescer(const Coalescer&) = delete;
  Coalescer& operator=(const Coalescer&) = delete;

  // Buffers one write, merging and flushing per the options above.
  void write(std::uint32_t index, std::uint64_t value);

  // Publishes all pending writes now (one update_batch; a lone pending
  // write goes through the singleton update, which is the wait-free path
  // and what "batch of one" means).  No-op when nothing is pending.
  void flush();

  std::size_t pending() const { return pending_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  core::PartialSnapshot& snapshot_;
  Options options_;
  std::vector<core::BatchEntry> pending_;
  std::uint32_t raw_in_window_ = 0;
  Stats stats_;
};

}  // namespace psnap::ingest
