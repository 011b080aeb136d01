// Complete-scan snapshot baseline (Afek et al. [1], as recapped in the
// paper's Section 3, with the Section 3 helping rule).
//
// This is the implementation the paper calls "wasteful": a snapshot object
// trivially implements a partial snapshot object by extracting the
// requested components from a complete scan (Section 1).  Every embedded
// scan reads all m components, every update carries a full m-entry view,
// and therefore both operations cost Omega(m) no matter how small the
// partial scan's argument set is.  The LOC and CMP benches plot it against
// the paper's algorithms to reproduce the locality argument.
//
// Value plane (primitives/value_plane.h): templated over the payload
// policy like the paper's algorithms -- the full view simply becomes a
// vector of payloads, so the Omega(m) cost scales with payload size too
// (which is exactly the "wasteful" point, sharpened).
//
// Versioned plane (VersionedU64; primitives/version_chain.h): the plane
// that rescues the wasteful baseline.  Records become version-chain nodes,
// a camera epoch replaces the complete collect, and a scan reads only its
// r requested chains -- the Omega(m) scan cost disappears entirely, so the
// versioned twin reports is_local() = true.  The price is on the write
// side: this baseline published with a plain register exchange, but a
// chain append must know its predecessor, so versioned updates publish
// with a CAS retry loop -- lock-free (a retry means another update
// succeeded), not wait-free, and the twin honestly reports that.
#pragma once

#include <atomic>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/padding.h"
#include "core/growth.h"
#include "core/partial_snapshot.h"
#include "core/record.h"  // kInitPid
#include "core/scan_context.h"
#include "exec/pid_bound.h"
#include "primitives/primitives.h"
#include "primitives/value_plane.h"
#include "primitives/version_chain.h"
#include "reclaim/ebr.h"
#include "reclaim/pool.h"

namespace psnap::baseline {

template <class Value = psnap::value::DirectU64>
class FullSnapshotT final : public core::PartialSnapshot {
 public:
  using ValueType = typename Value::ValueType;

  // `bound` sizes the helping rule's moved-twice table (the one per-pid
  // cost here; scans are Omega(m) by design, that is the baseline's
  // point).
  FullSnapshotT(core::InitialVector initial, std::uint32_t max_processes,
                std::uint64_t initial_value = 0,
                exec::PidBound bound = {});
  ~FullSnapshotT() override;

  std::uint32_t num_components() const override { return size_.load(); }
  std::string_view name() const override {
    if constexpr (Value::kVersioned) {
      return "full-snapshot-versioned";
    } else if constexpr (Value::kIndirect) {
      return "full-snapshot-blob";
    } else {
      return "full-snapshot";
    }
  }
  // Versioned updates CAS-retry (lock-free; see the header comment), and
  // versioned scans touch only their r requested chains (local).
  bool is_wait_free() const override { return !Value::kVersioned; }
  bool is_local() const override { return Value::kVersioned; }
  std::string_view value_plane() const override { return Value::kName; }

  std::uint32_t add_components(std::uint32_t count) override;
  void update(std::uint32_t i, std::uint64_t v) override;
  void scan(std::span<const std::uint32_t> indices,
            std::vector<std::uint64_t>& out, core::ScanContext& ctx) override;
  void update_blob(std::uint32_t i,
                   std::span<const std::byte> bytes) override;
  void scan_blobs(std::span<const std::uint32_t> indices,
                  std::vector<psnap::value::Blob>& out,
                  core::ScanContext& ctx) override;
  std::uint64_t scan_versioned(std::span<const std::uint32_t> indices,
                               std::vector<std::uint64_t>& out,
                               core::ScanContext& ctx) override;
  // Batched updates: collect planes share ONE embedded full scan (the
  // Omega(m) helping cost, paid once for k writes) and publish k records
  // by exchange -- kAmortized.  The versioned plane shares one stamp
  // through a batch descriptor (install-helped, like fig3's) -- kAtomic.
  void update_batch(std::span<const core::BatchEntry> entries) override;
  void update_batch_blob(
      std::span<const core::BlobBatchEntry> entries) override;
  core::BatchAtomicity batch_atomicity() const override {
    return Value::kVersioned ? core::BatchAtomicity::kAtomic
                             : core::BatchAtomicity::kAmortized;
  }
  using core::PartialSnapshot::scan;
  using core::PartialSnapshot::scan_blobs;
  using core::PartialSnapshot::scan_versioned;

 private:
  struct FullRecord {
    ValueType value{};
    std::uint64_t counter = 0;
    std::uint32_t pid = core::kInitPid;
    // All components up to the count the publishing operation captured.
    // Growth keeps this sound: a borrowed record belongs to an operation
    // that started after the borrower, so its full_view covers at least
    // the borrower's captured count (counts are monotone and captured
    // with seq_cst loads -- see embedded_full_scan).
    std::vector<ValueType> full_view;
    // Version-chain fields, used only on the versioned plane (dead weight
    // on the others; keeping them unconditional keeps FullRecord one
    // type).  See primitives/version_chain.h for the protocol.
    mutable std::atomic<std::uint64_t> version{primitives::kUnstamped};
    std::atomic<const FullRecord*> prev{nullptr};
    // Non-null while the record is an unresolved update_batch member.
    std::atomic<const primitives::BatchControl*> batch{nullptr};

    bool is_initial() const { return pid == core::kInitPid; }
  };

  // The versioned plane's batch descriptor; see the twin in cas_psnap.h.
  struct BatchDesc final : primitives::BatchControl {
    FullSnapshotT* owner = nullptr;
    primitives::BatchSlots<FullRecord> slots;
    void resolve() const override { owner->resolve_batch(*this); }
  };

  void resolve_batch(const BatchDesc& desc);

  template <class EntryT, class Fill>
  void do_update_batch(std::span<const EntryT> entries, Fill&& fill);

  // Builds components [first, first + count), one initial record each,
  // for the constructor and add_components.
  void build_components(std::uint32_t first, std::uint32_t count,
                        const core::InitialVector& initial);

  // Fills the context's plane values with components [0, m) for the count
  // m the caller captured at operation start.
  std::vector<ValueType>& embedded_full_scan(core::ScanContext& ctx,
                                             std::uint32_t m);

  template <class Fill>
  void do_update(std::uint32_t i, Fill&& fill);
  // The one scan body; `extract` pulls the caller's components out of the
  // full view (u64 decoding or blob copies).
  template <class Extract>
  void do_scan(std::span<const std::uint32_t> indices,
               core::ScanContext& ctx, Extract&& extract);
  // The versioned plane's scan body; returns the epoch.
  std::uint64_t do_scan_versioned(std::span<const std::uint32_t> indices,
                                  std::vector<std::uint64_t>& out);

  // Versioned cells must support CAS (chain appends need to know their
  // predecessor); the other planes keep the historical plain register.
  using Slot =
      std::conditional_t<Value::kVersioned,
                         primitives::CasObject<const FullRecord*>,
                         primitives::Register<const FullRecord*>>;

  core::GrowableSize size_;
  std::uint32_t n_;
  exec::PidBound bound_;
  std::uint64_t initial_value_;
  // Pool before ebr_: ~EbrDomain flushes retired records into it.  Pooled
  // records keep their full_view capacity (per-element byte buffers
  // included, on the blob plane), so steady-state updates are
  // allocation-free even though every record carries all m values.
  reclaim::Pool<FullRecord> record_pool_;
  reclaim::Pool<BatchDesc> batch_pool_;
  core::ComponentStorage<Slot> r_;
  reclaim::EbrDomain ebr_;
  core::PerPidStorage<CachelinePadded<std::uint64_t>> counter_;
  // Owner's in-flight batch descriptor, per pid (versioned plane) -- read
  // only by the destructor's crash sweep; see the twin in cas_psnap.h.
  core::PerPidStorage<CachelinePadded<std::atomic<BatchDesc*>>> active_batch_;
  [[no_unique_address]] std::conditional_t<Value::kVersioned,
                                           primitives::VersionCamera<>,
                                           primitives::NoCamera>
      camera_;
};

using FullSnapshot = FullSnapshotT<psnap::value::DirectU64>;
using FullSnapshotBlob = FullSnapshotT<psnap::value::IndirectBlob>;
using FullSnapshotVersioned = FullSnapshotT<psnap::value::VersionedU64>;

}  // namespace psnap::baseline
