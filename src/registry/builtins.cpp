// Built-in implementation catalogue.
//
// Adding an implementation is ONE add() call here; every registry-driven
// test, bench, and example picks it up automatically.  An ablation is an
// option of its entry, not an entry of its own.
//
// Planes are options, not entries: an entry lists the value planes
// (value=u64|blob|versioned, primitives/value_plane.h) and reclamation
// planes (reclaim=ebr|hp, reclaim/) it supports, and registry::variants()
// expands every entry over both lists.  Registry-driven suites iterate
// those variants, so every plane an entry lists is linearizability-,
// crash-, growth- and allocation-tested.
#include <memory>
#include <string>

#include "activeset/faicas_active_set.h"
#include "activeset/register_active_set.h"
#include "baseline/double_collect.h"
#include "baseline/full_snapshot.h"
#include "baseline/lock_snapshot.h"
#include "baseline/seqlock_snapshot.h"
#include "core/cas_psnap.h"
#include "core/register_psnap.h"
#include "ingest/batch_routed.h"
#include "reclaim/plane.h"
#include "registry/registry.h"

namespace psnap::registry {

namespace {

// Figure 2's ablations (activeset/faicas_active_set.h): options of the
// faicas entry only.  Every snapshot owns the default configuration.
activeset::FaiCasActiveSet::Options faicas_options(const Options& options) {
  activeset::FaiCasActiveSet::Options out;
  out.coalesce = options.get_bool("coalesce", true);
  out.publish_skip_list = options.get_bool("publish", true);
  return out;
}

// The entry's value plane.  SnapshotRegistry::make has already rejected
// planes the entry does not list; every entry that reads the option lists
// u64 first.
std::string value_plane(const Options& options) {
  return options.get_string("value", "u64");
}

// The fig3 reclamation knobs (core/cas_psnap.h): reclaim=ebr|hp selects
// the plane (the registry has already validated it against the entry's
// `reclaims` list) and shards=<k> the EBR domain count.  The plane/shard
// combination rules the constructor would assert are checked here so a
// bad spec throws instead.
void apply_reclaim_options(core::CasSnapshotOptions& impl,
                           const Options& options, bool versioned) {
  impl.use_hp = options.get_string("reclaim", "ebr") == "hp";
  std::uint64_t shards = options.get_uint("shards", 1);
  if (shards == 0 || shards > reclaim::Plane::kMaxShards) {
    throw std::invalid_argument(
        "option 'shards' expects 1.." +
        std::to_string(reclaim::Plane::kMaxShards) + ", got " +
        std::to_string(shards));
  }
  impl.reclaim_shards = static_cast<std::uint32_t>(shards);
  if (impl.use_hp && impl.reclaim_shards > 1) {
    throw std::invalid_argument(
        "shards>1 is an EBR-plane knob; hazard pointers already confine "
        "a stalled reader to the records it protects (drop shards= or "
        "use reclaim=ebr)");
  }
  if (versioned && impl.reclaim_shards > 1) {
    throw std::invalid_argument(
        "shards>1 is not supported on the versioned plane (batch "
        "descriptors and version stamps share one domain; use reclaim=hp "
        "for tail-latency isolation instead)");
  }
}

// Figure 1 on the runtime Policy and the entry's value plane.
template <class Policy>
std::unique_ptr<core::PartialSnapshot> make_fig1(core::InitialVector m,
                                                 std::uint32_t n,
                                                 const Options& options) {
  if (value_plane(options) == "blob") {
    return std::make_unique<
        core::RegisterPartialSnapshotT<Policy, value::IndirectBlob>>(m, n);
  }
  return std::make_unique<core::RegisterPartialSnapshotT<Policy>>(m, n);
}

// Figure 3 on the runtime Policy: the entry's value and reclamation
// planes, and the default Figure 2 active set.
template <class Policy>
std::unique_ptr<core::PartialSnapshot> make_fig3(core::InitialVector m,
                                                 std::uint32_t n,
                                                 const Options& options) {
  core::CasSnapshotOptions impl;
  const std::string plane = value_plane(options);
  apply_reclaim_options(impl, options, plane == "versioned");
  if (plane == "versioned") {
    return std::make_unique<
        core::CasPartialSnapshotT<Policy, value::VersionedU64>>(m, n, impl);
  }
  if (plane == "blob") {
    return std::make_unique<
        core::CasPartialSnapshotT<Policy, value::IndirectBlob>>(m, n, impl);
  }
  return std::make_unique<core::CasPartialSnapshotT<Policy>>(m, n, impl);
}

}  // namespace

void register_builtin_snapshots(SnapshotRegistry& registry) {
  registry.add(SnapshotInfo{
      .name = "fig1_register",
      .description =
          "Figure 1: wait-free partial snapshot from registers (Theorem 1)",
      .options_help = "",
      .counts_steps = true,
      .sim_safe = true,
      .values = "u64,blob",
      .make = make_fig1<primitives::Instrumented>,
  });
  registry.add(SnapshotInfo{
      .name = "fig1_register_fast",
      .description = "Figure 1 in the Release runtime: acquire/release "
                     "publication, no step accounting or sim hooks "
                     "(counts_steps=false; wall-clock benches only)",
      .options_help = "",
      .counts_steps = false,
      .sim_safe = false,
      .values = "u64,blob",
      .make = make_fig1<primitives::Release>,
  });
  registry.add(SnapshotInfo{
      .name = "fig3_cas",
      .description = "Figure 3: local partial scans from CAS + F&I "
                     "(Theorem 3, the paper's headline algorithm)",
      .options_help = "reclaim=<ebr|hp>,shards=<u32>",
      .counts_steps = true,
      .sim_safe = true,
      .values = "u64,blob,versioned",
      .reclaims = "ebr,hp",
      .supports_batch = true,
      .make = make_fig3<primitives::Instrumented>,
  });
  registry.add(SnapshotInfo{
      .name = "fig3_cas_fast",
      .description = "Figure 3 in the Release runtime: acquire/release "
                     "publication, no step accounting or sim hooks "
                     "(counts_steps=false; wall-clock benches only)",
      .options_help = "reclaim=<ebr|hp>,shards=<u32>",
      .counts_steps = false,
      .sim_safe = false,
      .values = "u64,blob,versioned",
      .reclaims = "ebr,hp",
      .supports_batch = true,
      .make = make_fig3<primitives::Release>,
  });
  registry.add(SnapshotInfo{
      .name = "full_snapshot",
      .description = "complete-scan extraction baseline (Afek et al.): "
                     "every operation costs Omega(m)",
      .options_help = "",
      .counts_steps = true,
      .sim_safe = true,
      .supports_batch = true,
      .make =
          [](core::InitialVector m, std::uint32_t n, const Options&) {
            return std::make_unique<baseline::FullSnapshot>(m, n);
          },
  });
  registry.add(SnapshotInfo{
      .name = "double_collect",
      .description = "lock-free double collect, no helping: scans can "
                     "starve (max_attempts>0 throws StarvationError)",
      .options_help = "max_attempts=<u64>",
      .counts_steps = true,
      .sim_safe = true,
      .supports_batch = true,
      .make =
          [](core::InitialVector m, std::uint32_t n, const Options& options) {
            return std::make_unique<baseline::DoubleCollectSnapshot>(
                m, n, options.get_uint("max_attempts", 0));
          },
  });
  registry.add(SnapshotInfo{
      .name = "lock",
      .description = "global-mutex reference (blocking; performs no "
                     "base-object steps in the paper's model)",
      .options_help = "",
      .counts_steps = false,
      .sim_safe = false,
      .supports_batch = true,
      .make =
          [](core::InitialVector m, std::uint32_t /*n*/, const Options&) {
            return std::make_unique<baseline::LockSnapshot>(m);
          },
  });
  registry.add(SnapshotInfo{
      .name = "seqlock",
      .description = "global-seqlock reference: invisible readers, one "
                     "global conflict domain (max_attempts>0 throws "
                     "StarvationError)",
      .options_help = "max_attempts=<u64>",
      .counts_steps = true,
      .sim_safe = false,
      .values = "u64,blob",
      .supports_batch = true,
      .make =
          [](core::InitialVector m, std::uint32_t /*n*/,
             const Options& options) -> std::unique_ptr<core::PartialSnapshot> {
            std::uint64_t cap = options.get_uint("max_attempts", 0);
            if (value_plane(options) == "blob") {
              return std::make_unique<baseline::SeqlockSnapshotBlob>(m, cap);
            }
            return std::make_unique<baseline::SeqlockSnapshot>(m, cap);
          },
  });
  // Batch-routed entries (ingest/batch_routed.h): every singleton update
  // goes through the k=1 batch path, so the registry-driven suites
  // exercise the batch protocol -- descriptor install/resolve, shared
  // counters, pooled batch records -- on their existing workloads.
  registry.add(SnapshotInfo{
      .name = "fig3_cas_batch",
      .description = "Figure 3 with updates routed through the batch "
                     "entry points (drives the shared announcement/helping "
                     "path at k=1; lock-free on the versioned plane, whose "
                     "descriptor install engine CAS-retries)",
      .options_help = "reclaim=<ebr|hp>,shards=<u32>",
      .counts_steps = true,
      .sim_safe = true,
      .values = "u64,blob,versioned",
      .reclaims = "ebr,hp",
      .supports_batch = true,
      .make =
          [](core::InitialVector m, std::uint32_t n, const Options& options) {
            const bool versioned = value_plane(options) == "versioned";
            return std::make_unique<ingest::BatchRouted>(
                make_fig3<primitives::Instrumented>(m, n, options),
                /*wait_free=*/!versioned);
          },
  });
}

void register_builtin_active_sets(ActiveSetRegistry& registry) {
  registry.add(ActiveSetInfo{
      .name = "register",
      .description = "one flag register per process; O(1) join/leave, "
                     "O(live) watermark-bounded getSet (Figure 1's "
                     "substitution)",
      .options_help = "",
      .sim_safe = true,
      .make =
          [](std::uint32_t n, const Options&) {
            return std::make_unique<activeset::RegisterActiveSet>(n);
          },
  });
  registry.add(ActiveSetInfo{
      .name = "faicas",
      .description = "Figure 2: F&I slot allocation + CAS-published skip "
                     "list (Theorem 2)",
      .options_help = "coalesce=<bool>,publish=<bool>",
      .sim_safe = true,
      // ABL-1: without interval coalescing the published list grows with
      // vacated runs; without the published skip list getSet's cost grows
      // with total joins.
      .ablations = {"coalesce=false", "publish=false"},
      .make =
          [](std::uint32_t n, const Options& options) {
            return std::make_unique<activeset::FaiCasActiveSet>(
                n, faicas_options(options));
          },
  });
  registry.add(ActiveSetInfo{
      .name = "faicas_fast",
      .description = "Figure 2 in the Release runtime (no step accounting; "
                     "wall-clock benches only)",
      .options_help = "",
      .sim_safe = false,
      .make =
          [](std::uint32_t n, const Options&) {
            return std::make_unique<
                activeset::FaiCasActiveSetT<primitives::Release>>(n);
          },
  });
}

}  // namespace psnap::registry
