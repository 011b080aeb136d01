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
#include <algorithm>
#include <memory>
#include <string>

#include "activeset/bitmap_active_set.h"
#include "activeset/faicas_active_set.h"
#include "activeset/lock_active_set.h"
#include "activeset/register_active_set.h"
#include "baseline/double_collect.h"
#include "baseline/full_snapshot.h"
#include "baseline/lock_snapshot.h"
#include "baseline/seqlock_snapshot.h"
#include "core/cas_psnap.h"
#include "core/register_psnap.h"
#include "exec/pid_bound.h"
#include "ingest/batch_routed.h"
#include "reclaim/plane.h"
#include "registry/registry.h"

namespace psnap::registry {

namespace {

// The universal per-pid walk bound (exec/pid_bound.h): adaptive
// (watermark-bounded, the default) unless the spec says adaptive=false,
// which pins the full-range walk of the given capacity -- the A/B knob
// bench_adaptive_collect measures the win against.
exec::PidBound pid_bound(const Options& options, std::uint32_t n) {
  return options.get_bool("adaptive", true) ? exec::PidBound{}
                                            : exec::PidBound::fixed(n);
}

activeset::FaiCasActiveSet::Options faicas_options(const Options& options,
                                                   std::uint32_t n) {
  activeset::FaiCasActiveSet::Options out;
  out.coalesce = options.get_bool("coalesce", true);
  out.publish_skip_list = options.get_bool("publish", true);
  out.bound = pid_bound(options, n);
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

// Resolves the fig1 nested active-set spec ("as=name;k=v...") and the
// adaptive= forwarding, shared by the direct and blob planes.
std::unique_ptr<activeset::ActiveSet> fig1_active_set(const Options& options,
                                                     std::uint32_t n) {
  // Nested active-set options use ';' so they survive the outer comma
  // split: "fig1_register:as=faicas;coalesce=false".  The first ';' plays
  // the nested spec's ':' (name/options separator), the rest its commas.
  std::string as_spec = options.get_string("as", "");
  if (std::size_t semi = as_spec.find(';'); semi != std::string::npos) {
    as_spec[semi] = ':';
    std::replace(as_spec.begin() + semi, as_spec.end(), ';', ',');
  }
  if (as_spec.empty()) return nullptr;
  // The outer adaptive= choice reaches the injected active set too (its
  // collect is the dominant per-pid walk the option A/Bs); an explicit
  // nested adaptive= wins.  The nested check matches the exact option KEY
  // at an option boundary, so future options merely containing the word
  // stay inert.
  auto nested_sets_adaptive = [&as_spec] {
    std::size_t colon = as_spec.find(':');
    std::size_t pos = colon == std::string::npos ? as_spec.size() : colon + 1;
    while (pos < as_spec.size()) {
      std::size_t comma = as_spec.find(',', pos);
      std::size_t end = comma == std::string::npos ? as_spec.size() : comma;
      std::string_view item(as_spec.data() + pos, end - pos);
      if (item.substr(0, item.find('=')) == "adaptive") {
        return true;
      }
      pos = comma == std::string::npos ? as_spec.size() : comma + 1;
    }
    return false;
  };
  std::string adaptive = options.get_string("adaptive", "");
  if (!adaptive.empty() && !nested_sets_adaptive()) {
    as_spec += as_spec.find(':') == std::string::npos ? ':' : ',';
    as_spec += "adaptive=" + adaptive;
  }
  return make_active_set(as_spec, n);
}

std::unique_ptr<core::PartialSnapshot> make_fig1(core::InitialVector m,
                                                 std::uint32_t n,
                                                 const Options& options) {
  auto as = fig1_active_set(options, n);
  std::uint64_t initial = options.get_uint("initial", 0);
  exec::PidBound bound = pid_bound(options, n);
  if (value_plane(options) == "blob") {
    return std::make_unique<core::RegisterPartialSnapshotBlob>(
        m, n, std::move(as), initial, bound);
  }
  return std::make_unique<core::RegisterPartialSnapshot>(m, n, std::move(as),
                                                         initial, bound);
}

std::unique_ptr<core::PartialSnapshot> make_fig3(core::InitialVector m,
                                                 std::uint32_t n,
                                                 const Options& options) {
  core::CasPartialSnapshot::Options impl;
  impl.active_set = faicas_options(options, n);
  const std::string plane = value_plane(options);
  apply_reclaim_options(impl, options, plane == "versioned");
  std::uint64_t initial = options.get_uint("initial", 0);
  if (plane == "versioned") {
    return std::make_unique<core::CasPartialSnapshotVersioned>(m, n, impl,
                                                               initial);
  }
  if (plane == "blob") {
    return std::make_unique<core::CasPartialSnapshotBlob>(m, n, impl,
                                                          initial);
  }
  return std::make_unique<core::CasPartialSnapshot>(m, n, impl, initial);
}

}  // namespace

void register_builtin_snapshots(SnapshotRegistry& registry) {
  registry.add(SnapshotInfo{
      .name = "fig1_register",
      .description =
          "Figure 1: wait-free partial snapshot from registers (Theorem 1)",
      .options_help = "as=<name[;k=v...]>,initial=<u64>,adaptive=<bool>",
      .counts_steps = true,
      .sim_safe = true,
      .values = "u64,blob",
      .make = make_fig1,
  });
  registry.add(SnapshotInfo{
      .name = "fig1_register_fast",
      .description = "Figure 1 in the Release runtime: acquire/release "
                     "publication, no step accounting or sim hooks "
                     "(counts_steps=false; wall-clock benches only)",
      .options_help = "initial=<u64>,adaptive=<bool>",
      .counts_steps = false,
      .sim_safe = false,
      .values = "u64,blob",
      .make =
          [](core::InitialVector m, std::uint32_t n,
             const Options& options) -> std::unique_ptr<core::PartialSnapshot> {
            std::uint64_t initial = options.get_uint("initial", 0);
            exec::PidBound bound = pid_bound(options, n);
            if (value_plane(options) == "blob") {
              return std::make_unique<core::RegisterPartialSnapshotBlobFast>(
                  m, n, nullptr, initial, bound);
            }
            return std::make_unique<core::RegisterPartialSnapshotFast>(
                m, n, nullptr, initial, bound);
          },
  });
  registry.add(SnapshotInfo{
      .name = "fig3_cas",
      .description = "Figure 3: local partial scans from CAS + F&I "
                     "(Theorem 3, the paper's headline algorithm)",
      .options_help =
          "coalesce=<bool>,publish=<bool>,initial=<u64>,adaptive=<bool>,"
          "reclaim=<ebr|hp>,shards=<u32>",
      .counts_steps = true,
      .sim_safe = true,
      .values = "u64,blob,versioned",
      .reclaims = "ebr,hp",
      .supports_batch = true,
      .make = make_fig3,
  });
  registry.add(SnapshotInfo{
      .name = "fig3_cas_fast",
      .description = "Figure 3 in the Release runtime: acquire/release "
                     "publication, no step accounting or sim hooks "
                     "(counts_steps=false; wall-clock benches only)",
      .options_help =
          "coalesce=<bool>,publish=<bool>,initial=<u64>,adaptive=<bool>,"
          "reclaim=<ebr|hp>,shards=<u32>",
      .counts_steps = false,
      .sim_safe = false,
      .values = "u64,blob,versioned",
      .reclaims = "ebr,hp",
      .supports_batch = true,
      .make =
          [](core::InitialVector m, std::uint32_t n,
             const Options& options) -> std::unique_ptr<core::PartialSnapshot> {
            core::CasPartialSnapshotFast::Options impl;
            impl.active_set = faicas_options(options, n);
            const std::string plane = value_plane(options);
            apply_reclaim_options(impl, options, plane == "versioned");
            std::uint64_t initial = options.get_uint("initial", 0);
            if (plane == "versioned") {
              return std::make_unique<core::CasPartialSnapshotVersionedFast>(
                  m, n, impl, initial);
            }
            if (plane == "blob") {
              return std::make_unique<core::CasPartialSnapshotBlobFast>(
                  m, n, impl, initial);
            }
            return std::make_unique<core::CasPartialSnapshotFast>(m, n, impl,
                                                                  initial);
          },
  });
  registry.add(SnapshotInfo{
      .name = "full_snapshot",
      .description = "complete-scan extraction baseline (Afek et al.): "
                     "every operation costs Omega(m)",
      .options_help = "initial=<u64>,adaptive=<bool>",
      .counts_steps = true,
      .sim_safe = true,
      .supports_batch = true,
      .make =
          [](core::InitialVector m, std::uint32_t n, const Options& options) {
            std::uint64_t initial = options.get_uint("initial", 0);
            return std::make_unique<baseline::FullSnapshot>(
                m, n, initial, pid_bound(options, n));
          },
  });
  registry.add(SnapshotInfo{
      .name = "double_collect",
      .description = "lock-free double collect, no helping: scans can "
                     "starve (max_attempts>0 throws StarvationError)",
      .options_help = "max_attempts=<u64>,initial=<u64>",
      .counts_steps = true,
      .sim_safe = true,
      .supports_batch = true,
      .make =
          [](core::InitialVector m, std::uint32_t n, const Options& options) {
            std::uint64_t cap = options.get_uint("max_attempts", 0);
            std::uint64_t initial = options.get_uint("initial", 0);
            return std::make_unique<baseline::DoubleCollectSnapshot>(
                m, n, cap, initial);
          },
  });
  registry.add(SnapshotInfo{
      .name = "lock",
      .description = "global-mutex reference (blocking; performs no "
                     "base-object steps in the paper's model)",
      .options_help = "initial=<u64>",
      .counts_steps = false,
      .sim_safe = false,
      .supports_batch = true,
      .make =
          [](core::InitialVector m, std::uint32_t /*n*/,
             const Options& options) {
            return std::make_unique<baseline::LockSnapshot>(
                m, options.get_uint("initial", 0));
          },
  });
  registry.add(SnapshotInfo{
      .name = "seqlock",
      .description = "global-seqlock reference: invisible readers, one "
                     "global conflict domain (max_attempts>0 throws "
                     "StarvationError)",
      .options_help = "max_attempts=<u64>,initial=<u64>",
      .counts_steps = true,
      .sim_safe = false,
      .values = "u64,blob",
      .supports_batch = true,
      .make =
          [](core::InitialVector m, std::uint32_t /*n*/,
             const Options& options) -> std::unique_ptr<core::PartialSnapshot> {
            std::uint64_t cap = options.get_uint("max_attempts", 0);
            std::uint64_t initial = options.get_uint("initial", 0);
            if (value_plane(options) == "blob") {
              return std::make_unique<baseline::SeqlockSnapshotBlob>(
                  m, cap, initial);
            }
            return std::make_unique<baseline::SeqlockSnapshot>(m, cap,
                                                               initial);
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
      .options_help =
          "coalesce=<bool>,publish=<bool>,initial=<u64>,adaptive=<bool>,"
          "reclaim=<ebr|hp>,shards=<u32>",
      .counts_steps = true,
      .sim_safe = true,
      .values = "u64,blob,versioned",
      .reclaims = "ebr,hp",
      .supports_batch = true,
      .make =
          [](core::InitialVector m, std::uint32_t n, const Options& options) {
            const bool versioned = value_plane(options) == "versioned";
            return std::make_unique<ingest::BatchRouted>(
                make_fig3(m, n, options), /*wait_free=*/!versioned);
          },
  });
}

void register_builtin_active_sets(ActiveSetRegistry& registry) {
  registry.add(ActiveSetInfo{
      .name = "register",
      .description = "one flag register per process; O(1) join/leave, "
                     "O(live) watermark-bounded getSet (Figure 1's "
                     "substitution)",
      .options_help = "adaptive=<bool>",
      .is_wait_free = true,
      .counts_steps = true,
      .sim_safe = true,
      .make =
          [](std::uint32_t n, const Options& options) {
            return std::make_unique<activeset::RegisterActiveSet>(
                n, pid_bound(options, n));
          },
  });
  registry.add(ActiveSetInfo{
      .name = "register_fast",
      .description = "the register active set in the Release runtime (no "
                     "step accounting; wall-clock benches only)",
      .options_help = "adaptive=<bool>",
      .is_wait_free = true,
      .counts_steps = false,
      .sim_safe = false,
      .make =
          [](std::uint32_t n, const Options& options) {
            return std::make_unique<
                activeset::RegisterActiveSetT<primitives::Release>>(
                n, pid_bound(options, n));
          },
  });
  registry.add(ActiveSetInfo{
      .name = "bitmap",
      .description = "one membership bit per pid in padded words; O(1) "
                     "join/leave RMWs, O(live/64) getSet",
      .options_help = "adaptive=<bool>",
      .is_wait_free = true,
      .counts_steps = true,
      .sim_safe = true,
      .make =
          [](std::uint32_t n, const Options& options) {
            return std::make_unique<activeset::BitmapActiveSet>(
                n, pid_bound(options, n));
          },
  });
  registry.add(ActiveSetInfo{
      .name = "bitmap_fast",
      .description = "the bitmap active set in the Release runtime (no "
                     "step accounting; wall-clock benches only)",
      .options_help = "adaptive=<bool>",
      .is_wait_free = true,
      .counts_steps = false,
      .sim_safe = false,
      .make =
          [](std::uint32_t n, const Options& options) {
            return std::make_unique<
                activeset::BitmapActiveSetT<primitives::Release>>(
                n, pid_bound(options, n));
          },
  });
  registry.add(ActiveSetInfo{
      .name = "faicas",
      .description = "Figure 2: F&I slot allocation + CAS-published skip "
                     "list (Theorem 2)",
      .options_help = "coalesce=<bool>,publish=<bool>,adaptive=<bool>",
      .is_wait_free = true,
      .counts_steps = true,
      .sim_safe = true,
      // ABL-1: without interval coalescing the published list grows with
      // vacated runs; without the published skip list getSet's cost grows
      // with total joins.
      .ablations = {"coalesce=false", "publish=false"},
      .make =
          [](std::uint32_t n, const Options& options) {
            return std::make_unique<activeset::FaiCasActiveSet>(
                n, faicas_options(options, n));
          },
  });
  registry.add(ActiveSetInfo{
      .name = "faicas_fast",
      .description = "Figure 2 in the Release runtime (no step accounting; "
                     "wall-clock benches only)",
      .options_help = "coalesce=<bool>,publish=<bool>,adaptive=<bool>",
      .is_wait_free = true,
      .counts_steps = false,
      .sim_safe = false,
      .make =
          [](std::uint32_t n, const Options& options) {
            return std::make_unique<
                activeset::FaiCasActiveSetT<primitives::Release>>(
                n, faicas_options(options, n));
          },
  });
  registry.add(ActiveSetInfo{
      .name = "lock",
      .description = "mutex-based oracle (trivially correct; blocking)",
      .options_help = "",
      .is_wait_free = false,
      .counts_steps = false,
      .sim_safe = false,
      .make =
          [](std::uint32_t n, const Options& /*options*/) {
            return std::make_unique<activeset::LockActiveSet>(n);
          },
  });
}

}  // namespace psnap::registry
