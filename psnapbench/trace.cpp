#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string_view>
#include <unordered_map>

#include "common/stats.h"
#include "json.h"

namespace psnapbench {

SpanBuffer::SpanBuffer(std::uint32_t thread, std::size_t capacity)
    : base_((std::uint64_t{thread} + 1) << 40), capacity_(capacity) {
  spans_.reserve(capacity_);
}

std::uint64_t SpanBuffer::record(const char* name, std::uint64_t start_ns,
                                 std::uint64_t end_ns, std::uint64_t parent,
                                 std::uint64_t id) {
  if (id == 0) id = reserve_id();
  if (spans_.size() == capacity_) {
    ++dropped_;
  } else {
    spans_.push_back(Span{name, id, parent, start_ns, end_ns});
  }
  return id;
}

std::vector<SelfTime> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string_view, std::vector<double>> by_name;
  for (const Span& s : spans) {
    double covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
      for (const Span* c : it->second) {
        std::uint64_t lo = std::max(c->start_ns, s.start_ns);
        std::uint64_t hi = std::min(c->end_ns, s.end_ns);
        if (lo < hi) iv.emplace_back(lo, hi);
      }
      std::sort(iv.begin(), iv.end());
      std::uint64_t reach = 0;  // end of the union so far
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, reach);
        if (lo < hi) covered += static_cast<double>(hi - lo);
        reach = std::max(reach, hi);
      }
    }
    by_name[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) -
                              covered);
  }
  std::vector<SelfTime> out;
  for (auto& [name, selfs] : by_name) {
    SelfTime t;
    t.name = std::string(name);
    t.count = selfs.size();
    for (double x : selfs) t.total_ns += x;
    t.p50_ns = psnap::percentile(selfs, 50.0);
    out.push_back(std::move(t));
  }
  return out;
}

bool write_spans_jsonl(const std::string& path, const std::string& workload,
                       const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string w = json::quote(workload);
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"workload\": %s, \"name\": %s, \"id\": %llu, "
                 "\"parent\": %llu, \"start_ns\": %llu, \"end_ns\": %llu}\n",
                 w.c_str(), json::quote(s.name).c_str(),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace psnapbench
