// Central registry of PartialSnapshot and ActiveSet implementations.
//
// Every test, bench, and example used to carry its own `struct Impl {
// label; factory; }` table; adding an implementation or an ablation meant
// editing a dozen files.  The registry replaces those tables with one
// string-keyed catalogue:
//
//   * enumeration: SnapshotRegistry::instance().all() lists every
//     implementation in registration order, and variants() expands each
//     one over the value and reclamation planes it accepts -- one
//     SnapshotVariant per (entry, value=, reclaim=) cell, with its
//     capability flags (sim_safe / counts_steps / supports_batch, and
//     is_wait_free / is_local read from a built instance) -- so consumers
//     filter ("only wait-free variants for the crash sweeps", "only
//     sim-safe variants under the deterministic scheduler") instead of
//     hand-curating lists; active_set_variants() does the same for the
//     active sets and their ablations, whose one flag is sim_safe;
//
//   * construction from CLI strings: make_snapshot("fig3_cas:reclaim=hp",
//     m, n) parses per-implementation options from a spec of the form
//     "name" or "name:key=value,key=value", so bench and example binaries
//     expose --impl flags that reach every option and ablation;
//
//   * one-line registration: a new implementation is a single add() call
//     in register_builtins() -- every consumer picks it up automatically,
//     on every plane its `values` and `reclaims` lists name.
//
// The registry is deliberately not self-registering via static
// initializers: built-ins are registered lazily on first use, which keeps
// registration order deterministic and immune to linker dead-stripping.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "activeset/active_set.h"
#include "core/partial_snapshot.h"

namespace psnap::registry {

// Parsed "key=value,key=value" option string.  Factories pull typed values
// with defaults; keys a factory never asked about are reported by
// check_consumed(), so a typo in a spec fails loudly rather than silently
// running the default configuration.
class Options {
 public:
  Options() = default;

  // Parses "key=value,key=value[,flag]" (a bare flag means "true").
  // Throws std::invalid_argument on malformed input.
  static Options parse(std::string_view spec);

  bool get_bool(std::string_view key, bool def) const;
  std::uint64_t get_uint(std::string_view key, std::uint64_t def) const;
  std::string get_string(std::string_view key,
                         std::string_view def) const;

  // Throws std::invalid_argument naming any key no get_* ever asked for,
  // with a "did you mean" suggestion drawn from the keys that WERE asked
  // about (so a typo'd option names its likely intent, mirroring the
  // registry's unknown-name diagnostics).
  void check_consumed() const;

  // Presence check; counts as consumption (used for universal keys the
  // registry handles itself, never for factory options).
  bool contains(std::string_view key) const { return find(key) != nullptr; }

  bool empty() const { return entries_.empty(); }

 private:
  struct Entry {
    std::string key;
    std::string value;
    mutable bool consumed = false;
  };
  const Entry* find(std::string_view key) const;
  std::vector<Entry> entries_;
  // Every key a get_*/contains call asked about, present or not: the
  // candidate pool for check_consumed's "did you mean".
  mutable std::vector<std::string> queried_;
};

// ---------------------------------------------------------------------------
// Partial snapshot implementations.
// ---------------------------------------------------------------------------

// Factory signature of the dynamic runtime: initial_m is the initial
// vector -- a component count, optionally with every component's payload
// (the object grows from there via add_components) -- and max_threads the
// bound on concurrently live pids (threads register dynamically through
// exec::ThreadRegistry; the bound sizes nothing up-front thanks to the
// grow-only per-pid storage).
using SnapshotFactory =
    std::function<std::unique_ptr<core::PartialSnapshot>(
        core::InitialVector initial_m, std::uint32_t max_threads,
        const Options& options)>;

struct SnapshotInfo {
  // Registry key; also a valid gtest parameter name ([A-Za-z0-9_]).
  std::string name;
  std::string description;
  // "key=value" summary of the accepted options, for --help output.
  std::string options_help;

  // Capability flags, queryable without instantiating.  Wait-freedom and
  // locality depend on the plane, so they are not declared here: each
  // SnapshotVariant reads them from a built instance.
  //
  // Performs base-object steps counted by exec::on_step (false for the
  // mutex baseline, which synchronizes outside the paper's model).
  bool counts_steps = true;
  // Safe under the deterministic simulation scheduler: every potentially
  // blocking wait is a step-instrumented shared-object operation (false
  // for the mutex baseline, which parks threads the scheduler cannot see,
  // and for the seqlock, whose reader spin loop never performs a
  // scheduling step while waiting out a writer).
  bool sim_safe = true;
  // Comma-separated value planes this entry accepts for the universal
  // value=<plane> option (primitives/value_plane.h); the FIRST is the
  // default plane.  make() validates the option against this list before
  // calling the factory, so an unsupported combo fails with the full
  // catalogue rather than inside the factory.
  std::string values = "u64";
  // Comma-separated reclamation planes this entry accepts for the
  // universal reclaim=<plane> option (reclaim/; "ebr" and/or "hp"); the
  // FIRST is the default.  Validated centrally like `values`, so
  // reclaim=hp on an entry without a hazard-pointer path fails with the
  // catalogue.
  std::string reclaims = "ebr";
  // Implements update_batch()/update_batch_blob() (false for the fig1
  // register constructions, whose base-class defaults throw).  Gates the
  // universal batch=/coalesce_window= ingest knobs: a spec asking for
  // batching on an entry without it fails with the full catalogue.
  bool supports_batch = false;

  SnapshotFactory make;
};

// One buildable cell of the catalogue: a registered entry at one of the
// value planes and one of the reclamation planes it lists.
struct SnapshotVariant {
  // "entry:value=<plane>,reclaim=<plane>"; make_snapshot(spec, m, n)
  // builds the variant.
  std::string spec;
  // Identifier-safe gtest parameter name: the entry name, plus
  // "_<plane>" when the value plane is not the entry's default and
  // "_<reclaim>" when the reclamation plane is not (fig3_cas_versioned_hp).
  std::string name;
  std::string entry;
  std::string value;
  std::string reclaim;
  // The entry's flags.
  bool sim_safe = true;
  bool counts_steps = true;
  bool supports_batch = false;
  // Read from a built instance, which is the authority on both.
  bool is_wait_free = false;
  // Scan complexity depends only on r, never on m.
  bool is_local = false;
};

// Every registered snapshot entry expanded over its `values` x `reclaims`
// lists, in registration order (planes in list order).  Computed on each
// call, so entries registered late (the experimental mutants) appear too.
std::vector<SnapshotVariant> variants();

// Ingest-shaping knobs parsed from the universal spec options batch=<k>
// and coalesce_window=<w>.  The registry only parses and validates them
// (batching is a property of how the CALLER feeds the object, not of the
// object itself); callers that batch writes -- the Coalescer front-end,
// benches, examples -- pass an IngestKnobs* to make() and act on the
// result.  Callers that cannot batch pass nullptr, and a spec asking for
// batching then fails loudly instead of silently running singleton.
struct IngestKnobs {
  // Flush after this many distinct components are pending (k=1 means
  // singleton updates; the default).
  std::uint32_t batch = 1;
  // Merge same-component writes while fewer than this many raw writes
  // are pending; 0 disables coalescing (every write is kept).
  std::uint32_t coalesce_window = 0;
  // Worker placement (universal spec option affinity=none|segment):
  // "segment" asks the caller's thread harness to register workers with
  // segment-affine pids (exec::ThreadRegistry), aligning each writer's
  // components with one reclamation shard.  Like batching, this describes
  // how the CALLER drives the object, so it rides in the knobs.
  std::string affinity = "none";

  bool batching_requested() const {
    return batch > 1 || coalesce_window > 0;
  }
};

class SnapshotRegistry {
 public:
  // The process-wide registry, with built-ins already registered.
  static SnapshotRegistry& instance();

  // Registers an implementation; names must be unique.
  void add(SnapshotInfo info);

  // All implementations, in registration order.
  std::vector<const SnapshotInfo*> all() const;

  // Looks up by exact name; nullptr if absent.
  const SnapshotInfo* find(std::string_view name) const;

  // Builds from a spec "name" or "name:key=value,...".  Every
  // implementation accepts the universal options m0=<u32> (initial
  // component count), max_threads=<u32> -- which override the caller's
  // initial_m / max_threads arguments, so a CLI spec can reshape the
  // object without the binary growing flags -- and value=<plane>,
  // validated against the entry's supported plane list.  An initial_m
  // that carries payloads keeps its count: m0= may then not exceed it.
  // Throws std::invalid_argument for unknown names (with a "did you mean"
  // suggestion and the full catalogue), unknown options, an unsupported
  // value plane (again with the full catalogue, which lists each entry's
  // planes), an m0= above a payload vector's count, a component count of
  // 0, a max_threads outside 1..exec::kMaxPidCapacity, or blob payloads
  // for a plane other than value=blob; std::length_error for a count
  // above core::kMaxComponents.
  std::unique_ptr<core::PartialSnapshot> make(std::string_view spec,
                                              core::InitialVector initial_m,
                                              std::uint32_t max_threads)
      const;

  // As above, additionally consuming the universal ingest knobs
  // batch=<u32>, coalesce_window=<u32> and affinity=none|segment into
  // *knobs (see IngestKnobs).
  // Throws std::invalid_argument when the spec requests batching on an
  // entry without supports_batch, when batch=0, or when knobs is nullptr
  // but the spec sets any of them (the three-argument overload above
  // forwards nullptr, so batching specs fail loudly in callers that
  // would silently ignore them).
  std::unique_ptr<core::PartialSnapshot> make(std::string_view spec,
                                              core::InitialVector initial_m,
                                              std::uint32_t max_threads,
                                              IngestKnobs* knobs) const;

 private:
  std::vector<SnapshotInfo> infos_;
};

// ---------------------------------------------------------------------------
// Active set implementations.
// ---------------------------------------------------------------------------

using ActiveSetFactory = std::function<std::unique_ptr<activeset::ActiveSet>(
    std::uint32_t max_threads, const Options& options)>;

struct ActiveSetInfo {
  std::string name;
  std::string description;
  std::string options_help;
  // Safe under the deterministic simulation scheduler (false for the
  // Release runtime, which never yields to it).
  bool sim_safe = true;
  // Option spellings ("coalesce=false") that active_set_variants() lists
  // as cells of their own beside the entry's default configuration.
  std::vector<std::string> ablations = {};
  ActiveSetFactory make;
};

// One buildable cell of the active-set catalogue: an entry in its default
// configuration or with one of its `ablations`.
struct ActiveSetVariant {
  // "entry" or "entry:<ablation>"; make_active_set(spec, n) builds it.
  std::string spec;
  // Identifier-safe gtest parameter name: the entry name, plus
  // "_<key>_<value>" for an ablation (faicas_coalesce_false).
  std::string name;
  std::string entry;
  // The entry's flag.
  bool sim_safe = true;
};

// Every registered active-set entry followed by its ablations, in
// registration order.
std::vector<ActiveSetVariant> active_set_variants();

class ActiveSetRegistry {
 public:
  static ActiveSetRegistry& instance();

  void add(ActiveSetInfo info);
  std::vector<const ActiveSetInfo*> all() const;
  const ActiveSetInfo* find(std::string_view name) const;
  // Accepts the universal option max_threads=<u32> (overrides the
  // argument); unknown names throw with a "did you mean" suggestion, and
  // a max_threads outside 1..exec::kMaxPidCapacity throws
  // std::invalid_argument.
  std::unique_ptr<activeset::ActiveSet> make(std::string_view spec,
                                             std::uint32_t max_threads)
      const;

 private:
  std::vector<ActiveSetInfo> infos_;
};

// ---------------------------------------------------------------------------
// Convenience helpers.
// ---------------------------------------------------------------------------

// Splits "name:opts" into its two halves (opts empty when absent).
std::pair<std::string_view, std::string_view> split_spec(
    std::string_view spec);

std::unique_ptr<core::PartialSnapshot> make_snapshot(
    std::string_view spec, core::InitialVector initial_m,
    std::uint32_t max_threads);

std::unique_ptr<core::PartialSnapshot> make_snapshot(
    std::string_view spec, core::InitialVector initial_m,
    std::uint32_t max_threads, IngestKnobs* knobs);

std::unique_ptr<activeset::ActiveSet> make_active_set(
    std::string_view spec, std::uint32_t max_threads);

// Value-plane list helpers (SnapshotInfo::values is a comma-separated
// plane list whose first entry is the default).
bool value_plane_supported(std::string_view values, std::string_view plane);
std::string_view default_value_plane(std::string_view values);

// Same contract for SnapshotInfo::reclaims (reclaim=ebr|hp).
bool reclaim_plane_supported(std::string_view reclaims,
                             std::string_view plane);
std::string_view default_reclaim_plane(std::string_view reclaims);

// Closest registered name by edit distance (for "did you mean"
// diagnostics); empty when nothing is plausibly close.
std::string closest_snapshot_name(std::string_view name);

// One line per implementation: "name  description [options]".  For the
// --help output of bench/example binaries.
std::string snapshot_catalogue();
std::string active_set_catalogue();

}  // namespace psnap::registry
