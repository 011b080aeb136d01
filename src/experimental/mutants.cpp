#include "experimental/mutants.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/partial_snapshot.h"
#include "primitives/primitives.h"

namespace psnap::experimental {

namespace {

// Shared chassis: a fixed-capacity array of step-counted seq_cst
// registers with CAS-mediated growth.  Deliberately primitive -- the
// mutants' job is to take the WRONG protocol steps around these
// registers, so the chassis itself must be beyond suspicion.
class MutantChassis : public core::PartialSnapshot {
 public:
  explicit MutantChassis(const core::InitialVector& initial)
      : slots_(initial.count() + kGrowSlack) {
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      std::uint64_t v = 0;
      initial.fill<value::DirectU64>(i, v);
      slots_[i].init(v, i);
    }
    size_.init(initial.count());
  }

  std::uint32_t num_components() const override {
    return static_cast<std::uint32_t>(size_.peek());
  }
  bool is_wait_free() const override { return true; }
  bool is_local() const override { return true; }

  std::uint32_t add_components(std::uint32_t count) override {
    for (;;) {
      std::uint64_t cur = size_.load();
      if (cur + count > slots_.size()) {
        throw std::length_error("mutant chassis grow capacity exceeded");
      }
      if (size_.compare_and_swap_bool(cur, cur + count)) {
        return static_cast<std::uint32_t>(cur);
      }
    }
  }

  void update(std::uint32_t i, std::uint64_t v) override {
    slots_[i].store(v);
  }

 protected:
  // Fuzz plans grow by at most 2 components per grow, at most 2 grows per
  // process, at most a handful of processes; 32 slack slots is generous.
  static constexpr std::uint32_t kGrowSlack = 32;

  void collect_once(std::span<const std::uint32_t> indices,
                    std::vector<std::uint64_t>& out) {
    out.clear();
    out.reserve(indices.size());
    for (std::uint32_t i : indices) out.push_back(slots_[i].load());
  }

  // Value-equality double collect, retried until clean.  Correct here
  // because the fuzz generator draws collision-sparse fresh values (no
  // ABA): two identical consecutive collects pin a moment where all
  // requested components held exactly these values.
  void collect_clean(std::span<const std::uint32_t> indices,
                     std::vector<std::uint64_t>& out,
                     std::vector<std::uint64_t>& scratch) {
    collect_once(indices, out);
    for (;;) {
      collect_once(indices, scratch);
      if (scratch == out) return;
      out.swap(scratch);
    }
  }

 private:
  std::vector<primitives::Register<std::uint64_t>> slots_;
  primitives::CasObject<std::uint64_t> size_;
};

// scan = one collect, no validation.
class TornScanMutant final : public MutantChassis {
 public:
  using MutantChassis::MutantChassis;
  std::string_view name() const override { return "mut_torn_scan"; }

  void scan(std::span<const std::uint32_t> indices,
            std::vector<std::uint64_t>& out, core::ScanContext&) override {
    collect_once(indices, out);
  }
};

// Bounded double collect: two attempts, then return the dirty collect.
class SkippedHelpingMutant final : public MutantChassis {
 public:
  using MutantChassis::MutantChassis;
  std::string_view name() const override { return "mut_skipped_helping"; }

  void scan(std::span<const std::uint32_t> indices,
            std::vector<std::uint64_t>& out, core::ScanContext&) override {
    std::vector<std::uint64_t> scratch;
    collect_once(indices, out);
    collect_once(indices, scratch);
    if (scratch == out) return;
    // A correct implementation retries (double collect) or switches to
    // the helping path (fig1/fig3).  Giving up and returning the second
    // collect is the seeded bug.
    out.swap(scratch);
  }
};

// Claims atomic batches, applies them entry-wise.
class TornBatchMutant final : public MutantChassis {
 public:
  using MutantChassis::MutantChassis;
  std::string_view name() const override { return "mut_torn_batch"; }

  void scan(std::span<const std::uint32_t> indices,
            std::vector<std::uint64_t>& out, core::ScanContext&) override {
    std::vector<std::uint64_t> scratch;
    collect_clean(indices, out, scratch);
  }

  void update_batch(std::span<const core::BatchEntry> entries) override {
    // Each entry linearizes on its own store: exactly the kAmortized
    // behavior -- while batch_atomicity() promises kAtomic.
    for (const core::BatchEntry& e : entries) update(e.index, e.value);
  }
  core::BatchAtomicity batch_atomicity() const override {
    return core::BatchAtomicity::kAtomic;
  }
};

// Versioned plane whose scans never take a camera ticket.
class StaleEpochMutant final : public MutantChassis {
 public:
  using MutantChassis::MutantChassis;
  std::string_view name() const override { return "mut_stale_epoch"; }
  std::string_view value_plane() const override { return "versioned"; }

  void update(std::uint32_t i, std::uint64_t v) override {
    MutantChassis::update(i, v);
    epoch_.fetch_increment();
  }

  void scan(std::span<const std::uint32_t> indices,
            std::vector<std::uint64_t>& out, core::ScanContext&) override {
    std::vector<std::uint64_t> scratch;
    collect_clean(indices, out, scratch);
  }

  std::uint64_t scan_versioned(std::span<const std::uint32_t> indices,
                               std::vector<std::uint64_t>& out,
                               core::ScanContext& ctx) override {
    scan(indices, out, ctx);
    // The camera contract is one fetch&add ticket per scan, making
    // epochs strictly increasing per thread.  Reading without
    // incrementing hands consecutive scans the same epoch.
    return epoch_.read();
  }

 private:
  primitives::FetchIncrement epoch_;
};

template <class Mutant>
registry::SnapshotFactory factory() {
  return [](core::InitialVector initial, std::uint32_t /*max_threads*/,
            const registry::Options& options) {
    options.check_consumed();
    return std::make_unique<Mutant>(initial);
  };
}

}  // namespace

void register_mutant_snapshots(registry::SnapshotRegistry& reg) {
  registry::SnapshotInfo torn_scan;
  torn_scan.name = "mut_torn_scan";
  torn_scan.description = "MUTANT: scan is one unvalidated collect";
  torn_scan.make = factory<TornScanMutant>();
  reg.add(std::move(torn_scan));

  registry::SnapshotInfo skipped_helping;
  skipped_helping.name = "mut_skipped_helping";
  skipped_helping.description =
      "MUTANT: double collect gives up after two attempts and returns the "
      "dirty collect";
  skipped_helping.make = factory<SkippedHelpingMutant>();
  reg.add(std::move(skipped_helping));

  registry::SnapshotInfo torn_batch;
  torn_batch.name = "mut_torn_batch";
  torn_batch.description =
      "MUTANT: claims atomic batches, applies them entry-wise";
  torn_batch.supports_batch = true;
  torn_batch.make = factory<TornBatchMutant>();
  reg.add(std::move(torn_batch));

  registry::SnapshotInfo stale_epoch;
  stale_epoch.name = "mut_stale_epoch";
  stale_epoch.description =
      "MUTANT: versioned scans read the camera without taking a ticket";
  stale_epoch.values = "versioned";
  stale_epoch.make = factory<StaleEpochMutant>();
  reg.add(std::move(stale_epoch));
}

}  // namespace psnap::experimental
