// Hermes-style execution tracing: bounded per-pid rings of typed events,
// drained to JSONL after quiescence, audited offline.
//
// The sim fuzzer (verify/fuzz/) proves protocol properties on small
// schedules; tracing covers the other regime -- full-speed wall-clock runs
// (benches, examples) too long to linearizability-check.  Every traced
// operation appends one fixed-size typed event to its thread's OWN ring
// (single writer, so recording is race-free by construction and never
// blocks the traced operation on another thread) stamped with a global
// fetch&add ticket for cross-thread merge order.  Rings are bounded:
// recording never allocates after construction, and a ring that wraps
// overwrites its oldest events, counting drops rather than stalling the
// hot path.
//
// After the run quiesces (worker threads joined), drain() merges the
// rings by ticket and dump_jsonl() writes one self-describing artifact:
// a header line (impl, m0, per-pid drop counts), one line per event, and
// a footer (final component count).  tools/trace_audit replays the checks
// in audit_trace() over such an artifact:
//
//   * epoch regressions: per-pid scan_versioned epochs strictly increase
//     (the camera hands every scan a fresh ticket);
//   * torn batches: per-pid batch_begin/batch_end strictly alternate with
//     matching entry counts (skipped for a pid whose ring dropped events
//     -- the pair may have been overwritten, not torn);
//   * watermark violations: grow blocks are disjoint, start at or above
//     m0, end at or below final_m; every recorded index stays below
//     final_m.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/partial_snapshot.h"

namespace psnap::runtime {

enum class TraceEventKind : std::uint8_t {
  kUpdate,
  kBatchBegin,
  kBatchEnd,
  kScan,
  kScanVersioned,
  kGrow,
};

// One fixed-size event.  Payload meaning by kind:
//   kUpdate         a=index      b=value
//   kBatchBegin/End a=entries    b=max index in the batch
//   kScan           a=max index  b=r (0 reads nothing)
//   kScanVersioned  a=epoch      b=max index   c=r
//   kGrow           a=first      b=count
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kUpdate;
  std::uint32_t pid = 0;
  std::uint64_t seq = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

class TraceSink {
 public:
  // events_per_pid is rounded up to a power of two; total memory is
  // max_pids * events_per_pid * sizeof(TraceEvent), allocated up front.
  TraceSink(std::uint32_t max_pids, std::uint32_t events_per_pid);

  // Appends one event to exec::ctx().pid's ring.  Wait-free: one relaxed
  // fetch&add for the ticket plus plain stores into the single-writer
  // ring.  Never called concurrently for the SAME pid (per-pid rings are
  // single-writer; that is the exec pid contract).
  void emit(TraceEventKind kind, std::uint64_t a, std::uint64_t b,
            std::uint64_t c = 0);

  struct Drained {
    std::vector<TraceEvent> events;       // merged, ascending seq
    std::uint64_t emitted = 0;            // total emits across rings
    std::vector<std::uint64_t> dropped;   // per-pid overwrite counts
  };

  // Quiescent drain: call only after every traced thread is done.
  Drained drain() const;

 private:
  struct Ring {
    std::vector<TraceEvent> slots;
    std::uint64_t count = 0;  // total appends; slot = count % capacity
  };

  std::uint32_t capacity_;
  std::atomic<std::uint64_t> ticket_{0};
  std::vector<Ring> rings_;
};

// PartialSnapshot decorator that traces every operation into a sink.
// The event is emitted AFTER the delegate call returns (epochs and grow
// bases are results), except batches, which bracket the delegate with
// begin/end so a crash or exception inside the batch leaves a visible
// unmatched begin.
class TracingSnapshot final : public core::PartialSnapshot {
 public:
  TracingSnapshot(core::PartialSnapshot& delegate, TraceSink& sink)
      : delegate_(delegate), sink_(sink) {}

  std::uint32_t num_components() const override {
    return delegate_.num_components();
  }
  std::string_view name() const override { return delegate_.name(); }
  bool is_wait_free() const override { return delegate_.is_wait_free(); }
  bool is_local() const override { return delegate_.is_local(); }
  std::string_view value_plane() const override {
    return delegate_.value_plane();
  }
  core::BatchAtomicity batch_atomicity() const override {
    return delegate_.batch_atomicity();
  }

  std::uint32_t add_components(std::uint32_t count) override;
  void update(std::uint32_t i, std::uint64_t v) override;
  void update_blob(std::uint32_t i, std::span<const std::byte> bytes) override;
  void update_batch(std::span<const core::BatchEntry> entries) override;
  using core::PartialSnapshot::update_batch;
  void update_batch_blob(
      std::span<const core::BlobBatchEntry> entries) override;
  void scan(std::span<const std::uint32_t> indices,
            std::vector<std::uint64_t>& out, core::ScanContext& ctx) override;
  using core::PartialSnapshot::scan;
  std::uint64_t scan_versioned(std::span<const std::uint32_t> indices,
                               std::vector<std::uint64_t>& out,
                               core::ScanContext& ctx) override;
  using core::PartialSnapshot::scan_versioned;
  void scan_blobs(std::span<const std::uint32_t> indices,
                  std::vector<value::Blob>& out,
                  core::ScanContext& ctx) override;
  using core::PartialSnapshot::scan_blobs;

 private:
  core::PartialSnapshot& delegate_;
  TraceSink& sink_;
};

// ---------------------------------------------------------------------------
// JSONL artifact + offline audit.
// ---------------------------------------------------------------------------

struct TraceArtifact {
  std::string impl;
  std::uint32_t m0 = 0;
  std::uint32_t final_m = 0;
  std::uint64_t emitted = 0;
  std::vector<std::uint64_t> dropped;  // per-pid
  std::vector<TraceEvent> events;
};

// header line, one event per line, footer line.
void dump_jsonl(const TraceArtifact& artifact, std::ostream& os);

// Parses what dump_jsonl wrote.  Throws std::invalid_argument on
// malformed input (missing header/footer, unknown kind, bad number).
TraceArtifact parse_jsonl(std::istream& is);

struct TraceAuditReport {
  bool ok = true;
  std::vector<std::string> violations;
  std::uint64_t events_checked = 0;
};

TraceAuditReport audit_trace(const TraceArtifact& artifact);

}  // namespace psnap::runtime
