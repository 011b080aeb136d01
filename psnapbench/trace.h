// Spans recorded by the traced run, around the benchmark's calls into the
// library's public API (tracing inside src/ is not part of this
// benchmark).  Each thread owns one preallocated SpanBuffer, so recording
// takes no lock and allocates nothing; a full buffer drops and counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace psnapbench {

struct Span {
  const char* name = "";  // a string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = a root span
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class SpanBuffer {
 public:
  // Span ids are (thread + 1) << 40 | sequence, unique across buffers.
  SpanBuffer(std::uint32_t thread, std::size_t capacity);

  // Records a finished span under a fresh id, or under `id` when the
  // caller reserved one; returns the id.
  std::uint64_t record(const char* name, std::uint64_t start_ns,
                       std::uint64_t end_ns, std::uint64_t parent = 0,
                       std::uint64_t id = 0);
  // An id for a parent span, which is recorded after its children end.
  std::uint64_t reserve_id() { return base_ + next_++; }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::uint64_t base_;
  std::uint64_t next_ = 1;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// Per span name: how many spans, and their self time -- the span's
// duration minus the part of it covered by its children's intervals.
struct SelfTime {
  std::string name;
  std::uint64_t count = 0;
  double total_ns = 0;
  double p50_ns = 0;
};
std::vector<SelfTime> self_times(const std::vector<Span>& spans);

// One JSON object per span, one per line.  Returns false on IO failure.
bool write_spans_jsonl(const std::string& path, const std::string& workload,
                       const std::vector<Span>& spans);

}  // namespace psnapbench
