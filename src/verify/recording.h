// History-recording decorators for the objects under test.
//
// Wrap any PartialSnapshot or ActiveSet; every operation is logged into a
// History with invocation/response sequence numbers taken immediately
// before/after the delegate call.  The wrappers add no base-object steps.
#pragma once

#include "activeset/active_set.h"
#include "core/partial_snapshot.h"
#include "verify/history.h"

namespace psnap::verify {

class RecordingSnapshot final : public core::PartialSnapshot {
 public:
  RecordingSnapshot(core::PartialSnapshot& delegate, History& history)
      : delegate_(delegate), history_(history) {}

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

  // Recorded as kGrow: growth itself is not a linearized value operation
  // (new components start at the initial value, indistinguishable from
  // having existed all along), but the grow-only oracle checks the
  // returned blocks for disjointness and watermark monotonicity.
  std::uint32_t add_components(std::uint32_t count) override;

  void update(std::uint32_t i, std::uint64_t v) override;
  // Recorded as kUpdate carrying the u64 the blob plane's scan() would
  // decode from the payload (first 8 bytes, native-endian, zero-extended),
  // so blob-plane histories check against the same sequential spec.
  void update_blob(std::uint32_t i,
                   std::span<const std::byte> bytes) override;
  void update_batch(std::span<const core::BatchEntry> entries) override;
  using core::PartialSnapshot::update_batch;
  // Forwarded without recording: the fuzzers drive the blob plane through
  // update_blob/update_batch (which encode), not the blob batch entry.
  void update_batch_blob(
      std::span<const core::BlobBatchEntry> entries) override {
    delegate_.update_batch_blob(entries);
  }

  void scan(std::span<const std::uint32_t> indices,
            std::vector<std::uint64_t>& out, core::ScanContext& ctx) override;
  using core::PartialSnapshot::scan;
  std::uint64_t scan_versioned(std::span<const std::uint32_t> indices,
                               std::vector<std::uint64_t>& out,
                               core::ScanContext& ctx) override;
  using core::PartialSnapshot::scan_versioned;
  // Forwarded without recording (see update_batch_blob).
  void scan_blobs(std::span<const std::uint32_t> indices,
                  std::vector<value::Blob>& out,
                  core::ScanContext& ctx) override {
    delegate_.scan_blobs(indices, out, ctx);
  }
  using core::PartialSnapshot::scan_blobs;

 private:
  core::PartialSnapshot& delegate_;
  History& history_;
};

class RecordingActiveSet final : public activeset::ActiveSet {
 public:
  RecordingActiveSet(activeset::ActiveSet& delegate, History& history)
      : delegate_(delegate), history_(history) {}

  void join() override;
  void leave() override;
  void get_set(std::vector<std::uint32_t>& out) override;

  std::string_view name() const override { return delegate_.name(); }
  std::uint32_t max_processes() const override {
    return delegate_.max_processes();
  }

 private:
  activeset::ActiveSet& delegate_;
  History& history_;
};

}  // namespace psnap::verify
