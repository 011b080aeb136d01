// Fuzz targets enumerated from the implementation registries.
//
// A target is one (registry variant × ingest-knob) combination the fuzzer
// must cover, a variant being an entry at one value plane and one
// reclamation plane (registry::variants()).  The list is DERIVED from the
// registries -- no hand-curated impl tables anywhere in the fuzz layer --
// so a newly registered sim-safe implementation (or a new plane on an
// existing one) is fuzzed automatically;
// tests/verify/fuzz_coverage_test.cpp asserts the enumeration stays
// complete.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace psnap::verify::fuzz {

struct FuzzTarget {
  enum class Kind : std::uint8_t { kSnapshot, kActiveSet };

  Kind kind = Kind::kSnapshot;
  // Full registry spec, including value=<plane>, reclaim=<plane> and (for
  // the coalesced targets) batch=/coalesce_window= ingest knobs.  The
  // spec alone rebuilds the object, which is what makes repro tokens
  // portable.
  std::string spec;

  // Capability flags steering op-mix generation, derived from the
  // registry variant (never set by hand).
  bool supports_batch = false;  // emit update_batch ops
  bool versioned = false;       // emit scan_versioned ops; epoch oracle
  bool blob = false;            // emit update_blob ops
  bool coalesced = false;       // route updates through ingest::Coalescer

  std::string display() const {
    return (kind == Kind::kSnapshot ? "snap " : "aset ") + spec;
  }
};

// Every sim-safe registry variant, plus a coalescing ingest target
// (batch=3,coalesce_window=6) for each batch-capable one.
std::vector<FuzzTarget> enumerate_snapshot_targets();

// Every sim-safe active-set entry.
std::vector<FuzzTarget> enumerate_active_set_targets();

// Both of the above, snapshots first.
std::vector<FuzzTarget> enumerate_targets();

// Rebuilds a target (capability flags included) from a spec string, by
// consulting the registry entry it names.  Used by token replay.  Throws
// std::invalid_argument for unknown names and for entries that are not
// sim-safe (fuzz plans run under the sim scheduler).
FuzzTarget target_from_spec(FuzzTarget::Kind kind, std::string spec);

}  // namespace psnap::verify::fuzz
