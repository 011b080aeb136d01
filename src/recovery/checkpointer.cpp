#include "recovery/checkpointer.h"

#include <algorithm>
#include <thread>

#include "baseline/double_collect.h"  // StarvationError
#include "core/scan_context.h"

namespace psnap::recovery {

Checkpointer::Checkpointer(core::PartialSnapshot& snapshot,
                           persist::CheckpointWriter& writer, Options options)
    : snapshot_(snapshot), writer_(writer), options_(std::move(options)) {
  if (options_.backoff.max_attempts == 0) options_.backoff.max_attempts = 1;
  if (!options_.sleep) {
    options_.sleep = [](std::chrono::microseconds d) {
      std::this_thread::sleep_for(d);
    };
  }
}

void Checkpointer::capture(persist::CheckpointData& out) {
  capture_impl({}, /*full=*/true, out);
}

void Checkpointer::capture(std::span<const std::uint32_t> indices,
                           persist::CheckpointData& out) {
  capture_impl(indices, /*full=*/false, out);
}

void Checkpointer::capture_impl(std::span<const std::uint32_t> indices,
                                bool full, persist::CheckpointData& out) {
  out.impl_spec = options_.impl_spec;
  out.initial_m = options_.initial_m;
  out.max_threads = options_.max_threads;
  out.value_plane.assign(snapshot_.value_plane());
  out.epoch = 0;

  std::chrono::microseconds delay = options_.backoff.initial;
  for (std::uint64_t attempt = 1;; ++attempt) {
    ++stats_.scan_attempts;
    try {
      // Recaptured every attempt: the object may have grown between
      // retries, and a full frame must cover the count its own scan ran
      // against.
      const std::uint32_t m = snapshot_.num_components();
      out.num_components = m;
      std::span<const std::uint32_t> idx = indices;
      if (full) {
        if (all_indices_.size() != m) {
          all_indices_.resize(m);
          for (std::uint32_t i = 0; i < m; ++i) all_indices_[i] = i;
        }
        idx = all_indices_;
        out.indices.clear();
      } else {
        out.indices.assign(indices.begin(), indices.end());
      }
      const std::string_view plane = snapshot_.value_plane();
      if (plane == "blob") {
        snapshot_.scan_blobs(idx, out.blobs);
        out.values.clear();
      } else if (plane == "versioned") {
        out.epoch = snapshot_.scan_versioned(idx, out.values);
        out.blobs.clear();
      } else {
        snapshot_.scan(idx, out.values);
        out.blobs.clear();
      }
      return;
    } catch (const baseline::StarvationError&) {
      ++stats_.starved_scans;
      if (attempt >= options_.backoff.max_attempts) {
        ++stats_.abandoned;
        throw CheckpointAbandoned(attempt);
      }
      options_.sleep(delay);
      stats_.backoff_us += static_cast<std::uint64_t>(delay.count());
      auto next = std::chrono::microseconds(static_cast<std::int64_t>(
          static_cast<double>(delay.count()) * options_.backoff.multiplier));
      delay = std::min(next, options_.backoff.max);
    }
  }
}

std::string Checkpointer::checkpoint_now() {
  capture(frame_);
  frame_.sequence = next_sequence_;
  std::string path = writer_.commit(frame_);
  ++next_sequence_;
  ++stats_.frames_committed;
  return path;
}

void Checkpointer::run(const std::atomic<bool>& stop,
                       std::chrono::microseconds interval) {
  while (!stop.load(std::memory_order_acquire)) {
    try {
      checkpoint_now();
    } catch (const CheckpointAbandoned&) {
      // Counted in stats_; the last durable frame stays the recovery
      // point and the next interval tries again.
    }
    // Sleep in small slices so stop is honored promptly even with long
    // intervals.
    auto left = interval;
    constexpr std::chrono::microseconds kSlice{1000};
    while (left.count() > 0 && !stop.load(std::memory_order_acquire)) {
      auto step = std::min(left, kSlice);
      options_.sleep(step);
      left -= step;
    }
  }
}

}  // namespace psnap::recovery
