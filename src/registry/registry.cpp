#include "registry/registry.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/assert.h"
#include "exec/capacity.h"

namespace psnap::registry {

// Defined in builtins.cpp; called exactly once per registry singleton.
void register_builtin_snapshots(SnapshotRegistry& registry);
void register_builtin_active_sets(ActiveSetRegistry& registry);

namespace {

// Plain Levenshtein distance; catalogues are tiny, so the O(a*b) table is
// irrelevant.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

// Whether a candidate `distance` edits from `typo` is worth suggesting:
// the budget scales with the typo's length (a one-character slip on a
// short name, a couple on a long one) but stays below that length -- at
// as many edits as the typo has characters, every name that long would
// qualify, even one with no letter in common.
bool within_suggestion_budget(std::string_view typo, std::size_t distance) {
  const std::size_t budget = typo.size() < 6 ? 2 : typo.size() / 3;
  return distance <= budget && distance < typo.size();
}

// "Did you mean" candidate: the closest name within the suggestion
// budget.  Prefix matches (an abbreviated name) always qualify.
template <class Infos>
std::string closest_name(std::string_view name, const Infos& infos) {
  std::string best;
  std::size_t best_distance = ~std::size_t{0};
  for (const auto* info : infos) {
    std::size_t d = edit_distance(name, info->name);
    if (d < best_distance) {
      best_distance = d;
      best = info->name;
    }
    if (!name.empty() &&
        std::string_view(info->name).substr(0, name.size()) == name) {
      return info->name;
    }
  }
  return within_suggestion_budget(name, best_distance) ? best
                                                      : std::string();
}

// The universal shape options are 32-bit; reject rather than silently
// truncate a too-large value (the registry's contract is that bad specs
// fail loudly).
std::uint32_t get_u32_option(const Options& options, std::string_view key,
                             std::uint32_t def) {
  std::uint64_t value = options.get_uint(key, def);
  if (value > ~std::uint32_t{0}) {
    throw std::invalid_argument("option '" + std::string(key) +
                                "' exceeds the 32-bit range");
  }
  return static_cast<std::uint32_t>(value);
}

// The universal max_threads bound, resolved from the argument or the
// option: every implementation sizes its pid-indexed state to at most
// exec::kMaxPidCapacity, so a bound outside 1..kMaxPidCapacity (a CLI
// spec, or a checkpoint frame's header) fails here instead of aborting
// inside a constructor.
std::uint32_t resolve_max_threads(const Options& options,
                                  std::uint32_t max_threads) {
  max_threads = get_u32_option(options, "max_threads", max_threads);
  if (max_threads == 0 || max_threads > exec::kMaxPidCapacity) {
    throw std::invalid_argument(
        "max_threads expects 1.." + std::to_string(exec::kMaxPidCapacity) +
        ", got " + std::to_string(max_threads));
  }
  return max_threads;
}

std::string unknown_name_message(std::string_view kind,
                                 std::string_view name,
                                 const std::string& suggestion,
                                 const std::string& catalogue) {
  std::string message = "unknown " + std::string(kind) +
                        " implementation '" + std::string(name) + "'";
  if (!suggestion.empty()) {
    message += "; did you mean '" + suggestion + "'?";
  }
  message += "\nknown implementations:\n" + catalogue;
  return message;
}

}  // namespace

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

Options Options::parse(std::string_view spec) {
  Options options;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    std::string_view item = spec.substr(
        pos, comma == std::string_view::npos ? std::string_view::npos
                                             : comma - pos);
    pos = comma == std::string_view::npos ? spec.size() : comma + 1;
    if (item.empty()) {
      throw std::invalid_argument("empty option in spec '" +
                                  std::string(spec) + "'");
    }
    std::size_t eq = item.find('=');
    Entry entry;
    if (eq == std::string_view::npos) {
      // A bare key is boolean shorthand for key=true.
      entry.key = std::string(item);
      entry.value = "true";
    } else {
      entry.key = std::string(item.substr(0, eq));
      entry.value = std::string(item.substr(eq + 1));
    }
    if (entry.key.empty()) {
      throw std::invalid_argument("option with empty key in spec '" +
                                  std::string(spec) + "'");
    }
    for (const Entry& existing : options.entries_) {
      if (existing.key == entry.key) {
        throw std::invalid_argument("duplicate option '" + entry.key +
                                    "' in spec '" + std::string(spec) + "'");
      }
    }
    options.entries_.push_back(std::move(entry));
  }
  return options;
}

const Options::Entry* Options::find(std::string_view key) const {
  // Record the key whether or not it is present: the set of keys callers
  // ASKED about is check_consumed's "did you mean" candidate pool.
  bool seen = false;
  for (const std::string& q : queried_) seen = seen || q == key;
  if (!seen) queried_.emplace_back(key);
  for (const Entry& entry : entries_) {
    if (entry.key == key) {
      entry.consumed = true;
      return &entry;
    }
  }
  return nullptr;
}

bool Options::get_bool(std::string_view key, bool def) const {
  const Entry* entry = find(key);
  if (entry == nullptr) return def;
  if (entry->value == "true" || entry->value == "1") return true;
  if (entry->value == "false" || entry->value == "0") return false;
  throw std::invalid_argument("option '" + entry->key +
                              "' expects a boolean, got '" + entry->value +
                              "'");
}

std::uint64_t Options::get_uint(std::string_view key,
                                std::uint64_t def) const {
  const Entry* entry = find(key);
  if (entry == nullptr) return def;
  try {
    // stoull tolerates leading whitespace, '+' and even '-' (wrapping the
    // negation); require a bare digit string so typos fail loudly.
    if (entry->value.empty() ||
        entry->value.find_first_not_of("0123456789") != std::string::npos) {
      throw std::invalid_argument("not a digit string");
    }
    std::size_t used = 0;
    std::uint64_t value = std::stoull(entry->value, &used);
    if (used != entry->value.size()) throw std::invalid_argument("trailing");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("option '" + entry->key +
                                "' expects an unsigned integer, got '" +
                                entry->value + "'");
  }
}

std::string Options::get_string(std::string_view key,
                                std::string_view def) const {
  const Entry* entry = find(key);
  return entry == nullptr ? std::string(def) : entry->value;
}

void Options::check_consumed() const {
  for (const Entry& entry : entries_) {
    if (entry.consumed) continue;
    std::string message = "unknown option '" + entry.key + "'";
    // Suggest the closest key anything asked about, under the same
    // distance budget as the registry's name diagnostics.
    std::string best;
    std::size_t best_distance = ~std::size_t{0};
    for (const std::string& q : queried_) {
      std::size_t d = edit_distance(entry.key, q);
      if (d < best_distance) {
        best_distance = d;
        best = q;
      }
    }
    if (!best.empty() && within_suggestion_budget(entry.key, best_distance)) {
      message += "; did you mean '" + best + "'?";
    }
    throw std::invalid_argument(message);
  }
}

// ---------------------------------------------------------------------------
// Registries
// ---------------------------------------------------------------------------

SnapshotRegistry& SnapshotRegistry::instance() {
  static SnapshotRegistry* registry = [] {
    auto* r = new SnapshotRegistry();
    register_builtin_snapshots(*r);
    return r;
  }();
  return *registry;
}

void SnapshotRegistry::add(SnapshotInfo info) {
  PSNAP_ASSERT_MSG(!info.name.empty(), "registry entries need a name");
  PSNAP_ASSERT_MSG(find(info.name) == nullptr,
                   "duplicate snapshot registration");
  infos_.push_back(std::move(info));
}

std::vector<const SnapshotInfo*> SnapshotRegistry::all() const {
  std::vector<const SnapshotInfo*> out;
  out.reserve(infos_.size());
  for (const SnapshotInfo& info : infos_) out.push_back(&info);
  return out;
}

const SnapshotInfo* SnapshotRegistry::find(std::string_view name) const {
  for (const SnapshotInfo& info : infos_) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

std::unique_ptr<core::PartialSnapshot> SnapshotRegistry::make(
    std::string_view spec, core::InitialVector initial_m,
    std::uint32_t max_threads) const {
  return make(spec, initial_m, max_threads, /*knobs=*/nullptr);
}

std::unique_ptr<core::PartialSnapshot> SnapshotRegistry::make(
    std::string_view spec, core::InitialVector initial_m,
    std::uint32_t max_threads, IngestKnobs* knobs) const {
  auto [name, opt_spec] = split_spec(spec);
  const SnapshotInfo* info = find(name);
  if (info == nullptr) {
    throw std::invalid_argument(
        unknown_name_message("snapshot", name, closest_name(name, all()),
                             snapshot_catalogue()));
  }
  Options options = Options::parse(opt_spec);
  // Universal options, consumed before the factory runs: any spec may
  // reshape the object's initial component count and thread bound.  A
  // vector with payloads keeps its count; m0= only bounds it from below.
  if (options.contains("m0")) {
    const std::uint32_t m0 = get_u32_option(options, "m0", 0);
    if (!initial_m.has_payloads()) {
      initial_m = m0;
    } else if (m0 > initial_m.count()) {
      throw std::invalid_argument(
          "spec '" + std::string(spec) + "' sets m0=" + std::to_string(m0) +
          " but the initial vector holds only " +
          std::to_string(initial_m.count()) + " components");
    }
  }
  if (initial_m.count() == 0) {
    throw std::invalid_argument("spec '" + std::string(spec) +
                                "' builds an object with no components "
                                "(m0 expects at least 1)");
  }
  max_threads = resolve_max_threads(options, max_threads);
  // The value plane is validated centrally against the entry's supported
  // list, so an unsupported combo fails with the catalogue (which names
  // every entry's planes) instead of deep inside a factory.
  std::string plane = options.get_string(
      "value", default_value_plane(info->values));
  if (!value_plane_supported(info->values, plane)) {
    throw std::invalid_argument(
        "snapshot implementation '" + info->name +
        "' does not support value=" + plane + " (supported: " +
        info->values + ")\nknown implementations:\n" + snapshot_catalogue());
  }
  if (initial_m.has_blobs() && plane != "blob") {
    throw std::invalid_argument("spec '" + std::string(spec) +
                                "' builds value=" + plane +
                                ", which cannot hold blob payloads");
  }
  // The reclamation plane gets the same central treatment (the catalogue
  // lists each entry's planes as {reclaim=...}).  The option is peeked,
  // not consumed on the entry's behalf: hp-capable factories re-read it.
  std::string reclaim = options.get_string(
      "reclaim", default_reclaim_plane(info->reclaims));
  if (!reclaim_plane_supported(info->reclaims, reclaim)) {
    throw std::invalid_argument(
        "snapshot implementation '" + info->name +
        "' does not support reclaim=" + reclaim + " (supported: " +
        info->reclaims + ")\nknown implementations:\n" +
        snapshot_catalogue());
  }
  // Universal ingest knobs, validated here so an unsupported combo fails
  // with the catalogue, but ACTED on by the caller: batching is a
  // property of how writes are fed to the object, so only entry points
  // that batch (the coalescing ingest front-end, benches, examples) pass
  // an IngestKnobs sink.  With a nullptr sink the knobs would silently
  // mean "singleton anyway" -- reject instead.
  const bool has_batch = options.contains("batch");
  const bool has_window = options.contains("coalesce_window");
  const bool has_affinity = options.contains("affinity");
  if ((has_batch || has_window || has_affinity) && knobs == nullptr) {
    throw std::invalid_argument(
        "spec '" + std::string(spec) + "' sets " +
        (has_batch ? "batch="
                   : has_window ? "coalesce_window=" : "affinity=") +
        " but this entry point feeds writes one at a time and cannot "
        "honor ingest knobs");
  }
  if (knobs != nullptr) {
    knobs->affinity = options.get_string("affinity", knobs->affinity);
    if (knobs->affinity != "none" && knobs->affinity != "segment") {
      throw std::invalid_argument(
          "option 'affinity' expects none|segment, got '" +
          knobs->affinity + "'");
    }
    knobs->batch = get_u32_option(options, "batch", knobs->batch);
    knobs->coalesce_window =
        get_u32_option(options, "coalesce_window", knobs->coalesce_window);
    if (knobs->batch == 0) {
      throw std::invalid_argument(
          "option 'batch' expects a positive flush threshold (batch=1 "
          "means singleton updates)");
    }
    if (knobs->batching_requested() && !info->supports_batch) {
      throw std::invalid_argument(
          "snapshot implementation '" + info->name +
          "' does not support batched updates (requested batch=" +
          std::to_string(knobs->batch) + ", coalesce_window=" +
          std::to_string(knobs->coalesce_window) +
          "; batch-capable entries are marked (batch) below)"
          "\nknown implementations:\n" + snapshot_catalogue());
    }
  }
  auto snapshot = info->make(initial_m, max_threads, options);
  options.check_consumed();
  return snapshot;
}

ActiveSetRegistry& ActiveSetRegistry::instance() {
  static ActiveSetRegistry* registry = [] {
    auto* r = new ActiveSetRegistry();
    register_builtin_active_sets(*r);
    return r;
  }();
  return *registry;
}

void ActiveSetRegistry::add(ActiveSetInfo info) {
  PSNAP_ASSERT_MSG(!info.name.empty(), "registry entries need a name");
  PSNAP_ASSERT_MSG(find(info.name) == nullptr,
                   "duplicate active-set registration");
  infos_.push_back(std::move(info));
}

std::vector<const ActiveSetInfo*> ActiveSetRegistry::all() const {
  std::vector<const ActiveSetInfo*> out;
  out.reserve(infos_.size());
  for (const ActiveSetInfo& info : infos_) out.push_back(&info);
  return out;
}

const ActiveSetInfo* ActiveSetRegistry::find(std::string_view name) const {
  for (const ActiveSetInfo& info : infos_) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

std::unique_ptr<activeset::ActiveSet> ActiveSetRegistry::make(
    std::string_view spec, std::uint32_t max_threads) const {
  auto [name, opt_spec] = split_spec(spec);
  const ActiveSetInfo* info = find(name);
  if (info == nullptr) {
    throw std::invalid_argument(
        unknown_name_message("active-set", name, closest_name(name, all()),
                             active_set_catalogue()));
  }
  Options options = Options::parse(opt_spec);
  max_threads = resolve_max_threads(options, max_threads);
  auto active_set = info->make(max_threads, options);
  options.check_consumed();
  return active_set;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

std::pair<std::string_view, std::string_view> split_spec(
    std::string_view spec) {
  std::size_t colon = spec.find(':');
  if (colon == std::string_view::npos) return {spec, {}};
  return {spec.substr(0, colon), spec.substr(colon + 1)};
}

std::unique_ptr<core::PartialSnapshot> make_snapshot(
    std::string_view spec, core::InitialVector initial_m,
    std::uint32_t max_threads) {
  return SnapshotRegistry::instance().make(spec, initial_m, max_threads);
}

std::unique_ptr<core::PartialSnapshot> make_snapshot(
    std::string_view spec, core::InitialVector initial_m,
    std::uint32_t max_threads, IngestKnobs* knobs) {
  return SnapshotRegistry::instance().make(spec, initial_m, max_threads,
                                           knobs);
}

std::unique_ptr<activeset::ActiveSet> make_active_set(
    std::string_view spec, std::uint32_t max_threads) {
  return ActiveSetRegistry::instance().make(spec, max_threads);
}

namespace {

// The items of a comma-separated plane list, in order.
std::vector<std::string_view> split_list(std::string_view list) {
  std::vector<std::string_view> items;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    std::size_t comma = list.find(',', pos);
    if (comma == std::string_view::npos) comma = list.size();
    items.push_back(list.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return items;
}

}  // namespace

bool value_plane_supported(std::string_view values, std::string_view plane) {
  std::vector<std::string_view> planes = split_list(values);
  return std::find(planes.begin(), planes.end(), plane) != planes.end();
}

std::string_view default_value_plane(std::string_view values) {
  return values.substr(0, values.find(','));
}

bool reclaim_plane_supported(std::string_view reclaims,
                             std::string_view plane) {
  return value_plane_supported(reclaims, plane);
}

std::string_view default_reclaim_plane(std::string_view reclaims) {
  return default_value_plane(reclaims);
}

std::vector<SnapshotVariant> variants() {
  std::vector<SnapshotVariant> out;
  for (const SnapshotInfo* info : SnapshotRegistry::instance().all()) {
    for (std::string_view value : split_list(info->values)) {
      for (std::string_view reclaim : split_list(info->reclaims)) {
        SnapshotVariant v;
        v.entry = info->name;
        v.value = value;
        v.reclaim = reclaim;
        v.spec = v.entry + ":value=" + v.value + ",reclaim=" + v.reclaim;
        v.name = v.entry;
        if (value != default_value_plane(info->values)) {
          v.name += "_" + v.value;
        }
        if (reclaim != default_reclaim_plane(info->reclaims)) {
          v.name += "_" + v.reclaim;
        }
        v.sim_safe = info->sim_safe;
        v.counts_steps = info->counts_steps;
        v.supports_batch = info->supports_batch;
        auto instance = make_snapshot(v.spec, 1, 1);
        v.is_wait_free = instance->is_wait_free();
        v.is_local = instance->is_local();
        out.push_back(std::move(v));
      }
    }
  }
  return out;
}

std::vector<ActiveSetVariant> active_set_variants() {
  std::vector<ActiveSetVariant> out;
  for (const ActiveSetInfo* info : ActiveSetRegistry::instance().all()) {
    auto add = [&](const std::string& ablation) {
      ActiveSetVariant v;
      v.entry = info->name;
      v.spec = v.entry;
      v.name = v.entry;
      if (!ablation.empty()) {
        v.spec += ":" + ablation;
        std::string suffix = ablation;
        std::replace(suffix.begin(), suffix.end(), '=', '_');
        v.name += "_" + suffix;
      }
      v.sim_safe = info->sim_safe;
      out.push_back(std::move(v));
    };
    add("");
    for (const std::string& ablation : info->ablations) add(ablation);
  }
  return out;
}

std::string closest_snapshot_name(std::string_view name) {
  return closest_name(name, SnapshotRegistry::instance().all());
}

namespace {

// Catalogues print in name order, not registration order: the output is
// consumed by humans diffing `--impls=help` across builds, and link-order
// differences (or late registrations like the experimental mutants) must
// not reshuffle it.
template <typename Info>
std::vector<const Info*> sorted_by_name(std::vector<const Info*> infos) {
  std::sort(infos.begin(), infos.end(),
            [](const Info* a, const Info* b) { return a->name < b->name; });
  return infos;
}

}  // namespace

std::string snapshot_catalogue() {
  std::ostringstream out;
  for (const SnapshotInfo* info :
       sorted_by_name(SnapshotRegistry::instance().all())) {
    out << "  " << info->name << " -- " << info->description;
    if (!info->options_help.empty()) {
      out << " [" << info->options_help << "]";
    }
    out << " {value=" << info->values << "}";
    out << " {reclaim=" << info->reclaims << "}";
    if (info->supports_batch) out << " (batch)";
    out << "\n";
  }
  out << "  (every spec also accepts m0=<u32>, max_threads=<u32>, "
         "value=<plane> from the listed {value=...} set, and "
         "reclaim=<plane> from the listed {reclaim=...} set; entries "
         "marked (batch) additionally accept batch=<k> and "
         "coalesce_window=<w> at batch-aware entry points, which also "
         "honor affinity=none|segment for shard-affine worker "
         "placement)\n";
  return out.str();
}

std::string active_set_catalogue() {
  std::ostringstream out;
  for (const ActiveSetInfo* info :
       sorted_by_name(ActiveSetRegistry::instance().all())) {
    out << "  " << info->name << " -- " << info->description;
    if (!info->options_help.empty()) {
      out << " [" << info->options_help << "]";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace psnap::registry
