#include "verify/fuzz/target.h"

#include <stdexcept>

#include "registry/registry.h"

namespace psnap::verify::fuzz {

namespace {

// The one ingest-knob combination fuzzed per batch-capable combo: small
// enough that plans stay within the checker's 64-op ceiling, large enough
// that flushes really carry multi-entry batches through update_batch.
constexpr char kIngestKnobs[] = "batch=3,coalesce_window=6";

FuzzTarget snapshot_target(const registry::SnapshotVariant& variant,
                           bool coalesced) {
  FuzzTarget target;
  target.kind = FuzzTarget::Kind::kSnapshot;
  target.spec = variant.spec;
  if (coalesced) target.spec += std::string(",") + kIngestKnobs;
  target.supports_batch = variant.supports_batch;
  target.versioned = variant.value == "versioned";
  target.blob = variant.value == "blob";
  target.coalesced = coalesced;
  return target;
}

}  // namespace

std::vector<FuzzTarget> enumerate_snapshot_targets() {
  std::vector<FuzzTarget> targets;
  for (const registry::SnapshotVariant& variant : registry::variants()) {
    if (!variant.sim_safe) continue;
    targets.push_back(snapshot_target(variant, /*coalesced=*/false));
    if (variant.supports_batch) {
      targets.push_back(snapshot_target(variant, /*coalesced=*/true));
    }
  }
  return targets;
}

std::vector<FuzzTarget> enumerate_active_set_targets() {
  std::vector<FuzzTarget> targets;
  for (const registry::ActiveSetVariant& variant :
       registry::active_set_variants()) {
    if (!variant.sim_safe) continue;
    FuzzTarget target;
    target.kind = FuzzTarget::Kind::kActiveSet;
    target.spec = variant.spec;
    targets.push_back(std::move(target));
  }
  return targets;
}

std::vector<FuzzTarget> enumerate_targets() {
  std::vector<FuzzTarget> targets = enumerate_snapshot_targets();
  std::vector<FuzzTarget> sets = enumerate_active_set_targets();
  targets.insert(targets.end(), sets.begin(), sets.end());
  return targets;
}

FuzzTarget target_from_spec(FuzzTarget::Kind kind, std::string spec) {
  FuzzTarget target;
  target.kind = kind;
  auto [name, opt_spec] = registry::split_spec(spec);
  // Fuzz plans run under the sim scheduler; an entry without sim hooks
  // (the Release runtime, the blocking baselines) would run them with no
  // interleaving at all while the token claimed a schedule.
  if (kind == FuzzTarget::Kind::kActiveSet) {
    const registry::ActiveSetInfo* info =
        registry::ActiveSetRegistry::instance().find(name);
    if (info == nullptr) {
      throw std::invalid_argument("unknown active-set implementation '" +
                                  std::string(name) + "' in fuzz token");
    }
    if (!info->sim_safe) {
      throw std::invalid_argument("active-set implementation '" +
                                  std::string(name) +
                                  "' is not sim-safe and cannot be fuzzed");
    }
    target.spec = std::move(spec);
    return target;
  }
  const registry::SnapshotInfo* info =
      registry::SnapshotRegistry::instance().find(name);
  if (info == nullptr) {
    throw std::invalid_argument("unknown snapshot implementation '" +
                                std::string(name) +
                                "' in fuzz token (mutant tokens need the "
                                "experimental registrations)");
  }
  if (!info->sim_safe) {
    throw std::invalid_argument("snapshot implementation '" +
                                std::string(name) +
                                "' is not sim-safe and cannot be fuzzed");
  }
  registry::Options options = registry::Options::parse(opt_spec);
  std::string plane = options.get_string(
      "value", registry::default_value_plane(info->values));
  target.supports_batch = info->supports_batch;
  target.versioned = plane == "versioned";
  target.blob = plane == "blob";
  target.coalesced =
      options.contains("batch") || options.contains("coalesce_window");
  target.spec = std::move(spec);
  return target;
}

}  // namespace psnap::verify::fuzz
