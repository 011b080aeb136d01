// BatchRouted: a PartialSnapshot decorator that routes singleton updates
// through the batch entry points (update(i,v) becomes a k=1
// update_batch).
//
// Purpose: the registry's batch-routed entry, fig3_cas_batch.  Each
// registry::variants() cell of it puts the batch protocol -- the shared
// announcement record, the descriptor install/resolve engine, the pooled
// batch descriptors -- on the exact paths every registry-driven suite
// already drives (linearizability, validity, growth, churn, crash,
// allocation), on every plane the entry lists, with zero per-suite
// wiring.  Scans and plane accessors forward untouched.
//
// Wait-freedom is a constructor argument rather than forwarded: on the
// versioned plane the batch engine CAS-retries until every member is
// installed (lock-free), so a wrapper of a wait-free singleton
// implementation is NOT wait-free even at k=1, and is_wait_free() must
// describe the wrapper, not the wrappee.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "common/assert.h"
#include "core/partial_snapshot.h"
#include "core/scan_context.h"

namespace psnap::ingest {

class BatchRouted final : public core::PartialSnapshot {
 public:
  BatchRouted(std::unique_ptr<core::PartialSnapshot> inner, bool wait_free)
      : inner_(std::move(inner)),
        wait_free_(wait_free),
        name_(std::string(inner_->name()) + "+batch") {
    PSNAP_ASSERT_MSG(
        inner_->batch_atomicity() != core::BatchAtomicity::kUnsupported,
        "BatchRouted needs an inner implementation with a batch path");
  }

  std::uint32_t num_components() const override {
    return inner_->num_components();
  }
  std::string_view name() const override { return name_; }
  bool is_wait_free() const override { return wait_free_; }
  bool is_local() const override { return inner_->is_local(); }
  std::string_view value_plane() const override {
    return inner_->value_plane();
  }
  std::string_view reclaim_plane() const override {
    return inner_->reclaim_plane();
  }
  std::uint32_t reclaim_shards() const override {
    return inner_->reclaim_shards();
  }
  std::uint64_t reclaim_outstanding() const override {
    return inner_->reclaim_outstanding();
  }

  std::uint32_t add_components(std::uint32_t count) override {
    return inner_->add_components(count);
  }

  void update(std::uint32_t i, std::uint64_t v) override {
    core::BatchEntry e{i, v};
    inner_->update_batch(std::span<const core::BatchEntry>(&e, 1));
  }
  void update_blob(std::uint32_t i,
                   std::span<const std::byte> bytes) override {
    core::BlobBatchEntry e{i, bytes};
    inner_->update_batch_blob(std::span<const core::BlobBatchEntry>(&e, 1));
  }

  void update_batch(std::span<const core::BatchEntry> entries) override {
    inner_->update_batch(entries);
  }
  void update_batch_blob(
      std::span<const core::BlobBatchEntry> entries) override {
    inner_->update_batch_blob(entries);
  }
  core::BatchAtomicity batch_atomicity() const override {
    return inner_->batch_atomicity();
  }

  void scan(std::span<const std::uint32_t> indices,
            std::vector<std::uint64_t>& out,
            core::ScanContext& ctx) override {
    inner_->scan(indices, out, ctx);
  }
  void scan_blobs(std::span<const std::uint32_t> indices,
                  std::vector<psnap::value::Blob>& out,
                  core::ScanContext& ctx) override {
    inner_->scan_blobs(indices, out, ctx);
  }
  std::uint64_t scan_versioned(std::span<const std::uint32_t> indices,
                               std::vector<std::uint64_t>& out,
                               core::ScanContext& ctx) override {
    return inner_->scan_versioned(indices, out, ctx);
  }

  using core::PartialSnapshot::scan;
  using core::PartialSnapshot::scan_blobs;
  using core::PartialSnapshot::scan_versioned;
  using core::PartialSnapshot::update_batch;

 private:
  std::unique_ptr<core::PartialSnapshot> inner_;
  bool wait_free_;
  std::string name_;
};

}  // namespace psnap::ingest
