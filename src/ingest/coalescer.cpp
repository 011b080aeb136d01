#include "ingest/coalescer.h"

#include "common/assert.h"

namespace psnap::ingest {

Coalescer::Coalescer(core::PartialSnapshot& snapshot, Options options)
    : snapshot_(snapshot), options_(options) {
  PSNAP_ASSERT_MSG(options_.batch > 0, "batch=0 has no flush threshold");
  pending_.reserve(options_.batch);
}

Coalescer::~Coalescer() {
  try {
    flush();
  } catch (...) {
    // Swallowed by contract (see header); explicit flush() reports.
  }
}

void Coalescer::write(std::uint32_t index, std::uint64_t value) {
  ++stats_.writes;
  ++raw_in_window_;
  bool merged = false;
  if (options_.coalesce_window > 0) {
    // Linear scan: pending batches are small (k is a handful to a few
    // dozen) and the entries are hot in cache; a map would cost more.
    for (core::BatchEntry& e : pending_) {
      if (e.index == index) {
        e.value = value;
        merged = true;
        ++stats_.merged;
        break;
      }
    }
  }
  if (!merged) pending_.push_back({index, value});
  if (pending_.size() >= options_.batch ||
      (options_.coalesce_window > 0 &&
       raw_in_window_ >= options_.coalesce_window)) {
    flush();
  }
}

void Coalescer::flush() {
  raw_in_window_ = 0;
  if (pending_.empty()) return;
  if (pending_.size() == 1) {
    snapshot_.update(pending_[0].index, pending_[0].value);
  } else {
    snapshot_.update_batch(
        std::span<const core::BatchEntry>(pending_.data(), pending_.size()));
  }
  ++stats_.flushes;
  stats_.flushed_entries += pending_.size();
  pending_.clear();  // keeps capacity: steady state allocates nothing
}

}  // namespace psnap::ingest
