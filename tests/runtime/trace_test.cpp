// Execution tracing (runtime/trace.h): the sink's bounded per-pid rings,
// the TracingSnapshot decorator's event vocabulary, the JSONL round-trip,
// and the offline audit -- including that seeded violations of every
// audited property are actually reported.
#include "runtime/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/partial_snapshot.h"
#include "exec/exec.h"
#include "registry/registry.h"

namespace psnap::runtime {
namespace {

TraceArtifact artifact_from(const TraceSink& sink, std::uint32_t m0,
                            std::uint32_t final_m) {
  TraceSink::Drained drained = sink.drain();
  TraceArtifact artifact;
  artifact.impl = "test";
  artifact.m0 = m0;
  artifact.final_m = final_m;
  artifact.emitted = drained.emitted;
  artifact.dropped = drained.dropped;
  artifact.events = std::move(drained.events);
  return artifact;
}

TEST(TraceSinkTest, RecordsPerPidAndMergesBySeq) {
  TraceSink sink(4, 8);
  {
    exec::ScopedPid pid(1);
    sink.emit(TraceEventKind::kUpdate, 0, 10);
  }
  {
    exec::ScopedPid pid(0);
    sink.emit(TraceEventKind::kUpdate, 1, 11);
  }
  {
    exec::ScopedPid pid(1);
    sink.emit(TraceEventKind::kScan, 1, 2);
  }
  TraceSink::Drained drained = sink.drain();
  ASSERT_EQ(drained.events.size(), 3u);
  EXPECT_EQ(drained.emitted, 3u);
  // Merge order is the global ticket order, not pid order.
  EXPECT_EQ(drained.events[0].pid, 1u);
  EXPECT_EQ(drained.events[1].pid, 0u);
  EXPECT_EQ(drained.events[2].pid, 1u);
  EXPECT_LT(drained.events[0].seq, drained.events[1].seq);
  EXPECT_LT(drained.events[1].seq, drained.events[2].seq);
}

TEST(TraceSinkTest, BoundedRingOverwritesOldestAndCountsDrops) {
  TraceSink sink(2, 4);  // capacity rounds to 4 events per pid
  exec::ScopedPid pid(0);
  for (std::uint64_t i = 0; i < 10; ++i) {
    sink.emit(TraceEventKind::kUpdate, i, i);
  }
  TraceSink::Drained drained = sink.drain();
  EXPECT_EQ(drained.emitted, 10u);
  ASSERT_EQ(drained.dropped.size(), 2u);
  EXPECT_EQ(drained.dropped[0], 6u);
  EXPECT_EQ(drained.dropped[1], 0u);
  // The NEWEST events survive.
  ASSERT_EQ(drained.events.size(), 4u);
  EXPECT_EQ(drained.events.front().a, 6u);
  EXPECT_EQ(drained.events.back().a, 9u);
}

TEST(TracingSnapshotTest, EmitsTheDocumentedVocabulary) {
  exec::ScopedPid pid(0);
  auto snap = registry::make_snapshot("fig3_cas_batch:value=versioned", 4, 2);
  TraceSink sink(2, 64);
  TracingSnapshot traced(*snap, sink);

  traced.update(1, 7);
  std::vector<core::BatchEntry> batch = {{0, 1}, {2, 2}, {3, 3}};
  traced.update_batch(std::span<const core::BatchEntry>(batch));
  (void)traced.scan({0, 3});
  std::vector<std::uint32_t> indices = {1};
  std::vector<std::uint64_t> out;
  (void)traced.scan_versioned(std::span<const std::uint32_t>(indices), out);
  std::uint32_t first = traced.add_components(2);
  EXPECT_EQ(first, 4u);

  TraceArtifact artifact = artifact_from(sink, 4, traced.num_components());
  ASSERT_EQ(artifact.events.size(), 6u);  // batch brackets: begin + end
  EXPECT_EQ(artifact.events[0].kind, TraceEventKind::kUpdate);
  EXPECT_EQ(artifact.events[0].a, 1u);
  EXPECT_EQ(artifact.events[0].b, 7u);
  EXPECT_EQ(artifact.events[1].kind, TraceEventKind::kBatchBegin);
  EXPECT_EQ(artifact.events[1].a, 3u);  // entries
  EXPECT_EQ(artifact.events[1].b, 3u);  // max index
  EXPECT_EQ(artifact.events[2].kind, TraceEventKind::kBatchEnd);
  EXPECT_EQ(artifact.events[3].kind, TraceEventKind::kScan);
  EXPECT_EQ(artifact.events[3].a, 3u);
  EXPECT_EQ(artifact.events[3].b, 2u);
  EXPECT_EQ(artifact.events[4].kind, TraceEventKind::kScanVersioned);
  EXPECT_EQ(artifact.events[4].c, 1u);
  EXPECT_EQ(artifact.events[5].kind, TraceEventKind::kGrow);
  EXPECT_EQ(artifact.events[5].a, 4u);
  EXPECT_EQ(artifact.events[5].b, 2u);

  TraceAuditReport report = audit_trace(artifact);
  EXPECT_TRUE(report.ok) << report.violations.front();
  EXPECT_EQ(report.events_checked, artifact.events.size());
}

TEST(TraceJsonlTest, DumpParseRoundTrip) {
  exec::ScopedPid pid(1);
  TraceSink sink(2, 16);
  sink.emit(TraceEventKind::kUpdate, 3, 999);
  sink.emit(TraceEventKind::kScanVersioned, 5, 3, 2);
  TraceArtifact artifact = artifact_from(sink, 4, 4);
  artifact.impl = "fig3_cas:value=versioned";

  std::ostringstream out;
  dump_jsonl(artifact, out);
  std::istringstream in(out.str());
  TraceArtifact parsed = parse_jsonl(in);

  EXPECT_EQ(parsed.impl, artifact.impl);
  EXPECT_EQ(parsed.m0, artifact.m0);
  EXPECT_EQ(parsed.final_m, artifact.final_m);
  EXPECT_EQ(parsed.emitted, artifact.emitted);
  EXPECT_EQ(parsed.dropped, artifact.dropped);
  ASSERT_EQ(parsed.events.size(), artifact.events.size());
  for (std::size_t i = 0; i < parsed.events.size(); ++i) {
    EXPECT_EQ(parsed.events[i].kind, artifact.events[i].kind);
    EXPECT_EQ(parsed.events[i].pid, artifact.events[i].pid);
    EXPECT_EQ(parsed.events[i].seq, artifact.events[i].seq);
    EXPECT_EQ(parsed.events[i].a, artifact.events[i].a);
    EXPECT_EQ(parsed.events[i].b, artifact.events[i].b);
    EXPECT_EQ(parsed.events[i].c, artifact.events[i].c);
  }
}

TEST(TraceJsonlTest, MalformedInputThrows) {
  {
    std::istringstream in("{\"type\":\"event\",\"kind\":\"update\"}\n");
    EXPECT_THROW(parse_jsonl(in), std::invalid_argument);  // before header
  }
  {
    std::istringstream in(
        "{\"type\":\"header\",\"impl\":\"x\",\"m0\":1,\"emitted\":0,"
        "\"dropped\":[]}\n");
    EXPECT_THROW(parse_jsonl(in), std::invalid_argument);  // no footer
  }
  {
    std::istringstream in(
        "{\"type\":\"header\",\"impl\":\"x\",\"m0\":1,\"emitted\":0,"
        "\"dropped\":[]}\n"
        "{\"type\":\"event\",\"kind\":\"quux\",\"pid\":0,\"seq\":0,\"a\":0,"
        "\"b\":0,\"c\":0}\n"
        "{\"type\":\"footer\",\"final_m\":1}\n");
    EXPECT_THROW(parse_jsonl(in), std::invalid_argument);  // unknown kind
  }
}

TraceArtifact base_artifact(std::uint32_t m0, std::uint32_t final_m) {
  TraceArtifact artifact;
  artifact.impl = "seeded";
  artifact.m0 = m0;
  artifact.final_m = final_m;
  artifact.dropped = {0, 0};
  return artifact;
}

TraceEvent ev(TraceEventKind kind, std::uint32_t pid, std::uint64_t seq,
              std::uint64_t a, std::uint64_t b, std::uint64_t c = 0) {
  TraceEvent e;
  e.kind = kind;
  e.pid = pid;
  e.seq = seq;
  e.a = a;
  e.b = b;
  e.c = c;
  return e;
}

TEST(TraceAuditTest, DetectsEpochRegressions) {
  TraceArtifact artifact = base_artifact(4, 4);
  artifact.events = {
      ev(TraceEventKind::kScanVersioned, 0, 0, /*epoch=*/5, 1, 1),
      ev(TraceEventKind::kScanVersioned, 0, 1, /*epoch=*/5, 1, 1),
  };
  TraceAuditReport report = audit_trace(artifact);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_NE(report.violations[0].find("epoch regression"),
            std::string::npos);
  // Different pids are different streams; no cross-pid ordering is claimed.
  artifact.events[1].pid = 1;
  EXPECT_TRUE(audit_trace(artifact).ok);
}

TEST(TraceAuditTest, DetectsTornBatches) {
  {
    // begin/end entry counts disagree.
    TraceArtifact artifact = base_artifact(4, 4);
    artifact.events = {
        ev(TraceEventKind::kBatchBegin, 0, 0, 3, 2),
        ev(TraceEventKind::kBatchEnd, 0, 1, 2, 2),
    };
    TraceAuditReport report = audit_trace(artifact);
    EXPECT_FALSE(report.ok);
    EXPECT_NE(report.violations[0].find("torn batch"), std::string::npos);
  }
  {
    // A batch left open at end of trace is a torn publish.
    TraceArtifact artifact = base_artifact(4, 4);
    artifact.events = {ev(TraceEventKind::kBatchBegin, 0, 0, 3, 2)};
    TraceAuditReport report = audit_trace(artifact);
    EXPECT_FALSE(report.ok);
    EXPECT_NE(report.violations[0].find("torn batch publish"),
              std::string::npos);
    // ...unless that pid's ring dropped events: the end may have been
    // overwritten, so pairing claims are waived for lossy pids.
    artifact.dropped = {1, 0};
    EXPECT_TRUE(audit_trace(artifact).ok);
  }
}

TEST(TraceAuditTest, DetectsWatermarkViolations) {
  {
    // Grow blocks must not overlap components that already existed.
    TraceArtifact artifact = base_artifact(4, 8);
    artifact.events = {ev(TraceEventKind::kGrow, 0, 0, /*first=*/2,
                          /*count=*/4)};
    TraceAuditReport report = audit_trace(artifact);
    EXPECT_FALSE(report.ok);
    EXPECT_NE(report.violations[0].find("watermark"), std::string::npos);
  }
  {
    // Two blocks handed out the same range.
    TraceArtifact artifact = base_artifact(2, 6);
    artifact.events = {
        ev(TraceEventKind::kGrow, 0, 0, 2, 2),
        ev(TraceEventKind::kGrow, 1, 1, 2, 2),
    };
    EXPECT_FALSE(audit_trace(artifact).ok);
  }
  {
    // Disjoint, in-range blocks audit clean.
    TraceArtifact artifact = base_artifact(2, 6);
    artifact.events = {
        ev(TraceEventKind::kGrow, 0, 0, 2, 2),
        ev(TraceEventKind::kGrow, 1, 1, 4, 2),
    };
    EXPECT_TRUE(audit_trace(artifact).ok);
  }
}

TEST(TraceAuditTest, DetectsIndexBeyondFinalCount) {
  TraceArtifact artifact = base_artifact(4, 4);
  artifact.events = {ev(TraceEventKind::kUpdate, 0, 0, /*index=*/4, 1)};
  TraceAuditReport report = audit_trace(artifact);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.violations[0].find("final component count"),
            std::string::npos);
}

}  // namespace
}  // namespace psnap::runtime
