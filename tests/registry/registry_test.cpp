// The implementation registry: catalogue integrity, spec parsing, and the
// sequential scan contract driven uniformly through registry construction.
#include "registry/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>

#include "activeset/faicas_active_set.h"
#include "baseline/double_collect.h"
#include "core/cas_psnap.h"
#include "core/partial_snapshot.h"
#include "core/register_psnap.h"
#include "exec/capacity.h"
#include "exec/exec.h"
#include "primitives/value_plane.h"
#include "tests/support/registry_params.h"

namespace psnap::registry {
namespace {

// ---------------------------------------------------------------------------
// Catalogue integrity.
// ---------------------------------------------------------------------------

TEST(SnapshotRegistry, CataloguesTheExpectedBuiltins) {
  auto& registry = SnapshotRegistry::instance();
  for (const char* name :
       {"fig1_register", "fig1_register_fast", "fig3_cas", "fig3_cas_fast",
        "full_snapshot", "double_collect", "lock", "seqlock",
        "fig3_cas_batch"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
  EXPECT_EQ(registry.find("no_such_impl"), nullptr);
  // The versioned complete-scan baseline and its batch-routed entry are
  // gone: only Figure 3 has the versioned plane.
  EXPECT_EQ(registry.find("full_snapshot_versioned_batch"), nullptr);
  // Figure 3 publishes only by CAS: the write-published fork is gone.
  EXPECT_EQ(registry.find("fig3_write_ablation"), nullptr);
}

// The per-plane entries the catalogue used to register by hand, each a
// preset of an existing entry.  Every one must come back as a variant
// whose instance reports exactly what the hand-registered entry reported.
struct FormerTwin {
  const char* entry_name;    // no longer registered
  const char* variant_name;  // SnapshotVariant::name that replaces it
  const char* name;          // PartialSnapshot::name()
  const char* value_plane;
  const char* reclaim_plane;
  bool sim_safe;
  bool is_wait_free;
  bool is_local;
  core::BatchAtomicity batch;
};

constexpr FormerTwin kFormerTwins[] = {
    {"fig1_register_blob", "fig1_register_blob", "fig1-register-blob",
     "blob", "ebr", true, true, true, core::BatchAtomicity::kUnsupported},
    {"fig3_cas_blob", "fig3_cas_blob", "fig3-cas-blob", "blob", "ebr", true,
     true, true, core::BatchAtomicity::kAmortized},
    {"fig3_cas_versioned", "fig3_cas_versioned", "fig3-cas-versioned",
     "versioned", "ebr", true, true, true, core::BatchAtomicity::kAtomic},
    {"fig3_cas_hp", "fig3_cas_hp", "fig3-cas-hp", "u64", "hp", true, true,
     true, core::BatchAtomicity::kAmortized},
    {"fig3_cas_versioned_hp", "fig3_cas_versioned_hp",
     "fig3-cas-versioned-hp", "versioned", "hp", true, false, true,
     core::BatchAtomicity::kAmortized},
    {"fig3_cas_versioned_batch", "fig3_cas_batch_versioned",
     "fig3-cas-versioned+batch", "versioned", "ebr", true, false, true,
     core::BatchAtomicity::kAtomic},
};

TEST(SnapshotRegistry, VariantsCoverEveryFormerTwin) {
  const std::vector<SnapshotVariant> all = variants();
  for (const FormerTwin& twin : kFormerTwins) {
    SCOPED_TRACE(twin.entry_name);
    EXPECT_EQ(SnapshotRegistry::instance().find(twin.entry_name), nullptr);
    auto it = std::find_if(all.begin(), all.end(),
                           [&](const SnapshotVariant& v) {
                             return v.name == twin.variant_name;
                           });
    ASSERT_NE(it, all.end()) << twin.variant_name << " is not a variant";
    EXPECT_EQ(it->sim_safe, twin.sim_safe);
    EXPECT_EQ(it->value, twin.value_plane);
    EXPECT_EQ(it->reclaim, twin.reclaim_plane);
    EXPECT_EQ(it->is_wait_free, twin.is_wait_free);
    EXPECT_EQ(it->is_local, twin.is_local);
    auto snap = make_snapshot(it->spec, 4, 2);
    EXPECT_EQ(snap->name(), twin.name);
    EXPECT_EQ(snap->value_plane(), twin.value_plane);
    EXPECT_EQ(snap->reclaim_plane(), twin.reclaim_plane);
    EXPECT_EQ(snap->is_wait_free(), twin.is_wait_free);
    EXPECT_EQ(snap->is_local(), twin.is_local);
    EXPECT_EQ(snap->batch_atomicity(), twin.batch);
  }
}

TEST(SnapshotRegistry, VariantsAreDistinctAndNamedAfterTheirPlanes) {
  std::set<std::tuple<std::string, std::string, std::string>> configs;
  std::set<std::string> names;
  for (const SnapshotVariant& v : variants()) {
    EXPECT_TRUE(configs.insert({v.entry, v.value, v.reclaim}).second)
        << "two variants build " << v.spec;
    EXPECT_TRUE(names.insert(v.name).second) << "duplicate name " << v.name;
    for (char c : v.name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_')
          << v.name << " is not a valid gtest parameter name";
    }
    const SnapshotInfo* info = SnapshotRegistry::instance().find(v.entry);
    ASSERT_NE(info, nullptr) << v.spec;
    EXPECT_TRUE(value_plane_supported(info->values, v.value)) << v.spec;
    EXPECT_TRUE(reclaim_plane_supported(info->reclaims, v.reclaim)) << v.spec;
    EXPECT_EQ(v.spec, v.entry + ":value=" + v.value + ",reclaim=" + v.reclaim);
    // Default planes add nothing to the name, so a default variant keeps
    // its entry's gtest parameter name.
    if (v.value == default_value_plane(info->values) &&
        v.reclaim == default_reclaim_plane(info->reclaims)) {
      EXPECT_EQ(v.name, v.entry);
    }
    EXPECT_EQ(v.sim_safe, info->sim_safe) << v.spec;
    EXPECT_EQ(v.counts_steps, info->counts_steps) << v.spec;
    EXPECT_EQ(v.supports_batch, info->supports_batch) << v.spec;
  }
  // Every plane of every entry, not just the defaults.
  std::size_t cells = 0;
  for (const SnapshotInfo* info : SnapshotRegistry::instance().all()) {
    std::size_t values = std::count(info->values.begin(), info->values.end(),
                                    ',') + 1;
    std::size_t reclaims = std::count(info->reclaims.begin(),
                                      info->reclaims.end(), ',') + 1;
    cells += values * reclaims;
  }
  EXPECT_EQ(configs.size(), cells);
}

TEST(ActiveSetRegistry, CataloguesTheExpectedBuiltins) {
  auto& registry = ActiveSetRegistry::instance();
  for (const char* name : {"register", "faicas", "faicas_fast"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
  EXPECT_EQ(registry.all().size(), 3u);
  // Figure 2's ablations are options of faicas, not entries.
  EXPECT_EQ(registry.find("faicas_nocoalesce"), nullptr);
  EXPECT_EQ(registry.find("faicas_nopublish"), nullptr);
}

TEST(ActiveSetRegistry, VariantsListEachEntryThenItsAblations) {
  std::vector<std::string> specs;
  for (const ActiveSetVariant& variant : active_set_variants()) {
    specs.push_back(variant.spec);
    EXPECT_NE(make_active_set(variant.spec, 2), nullptr) << variant.spec;
  }
  EXPECT_EQ(specs, (std::vector<std::string>{
                       "register", "faicas", "faicas:coalesce=false",
                       "faicas:publish=false", "faicas_fast"}));
  std::vector<ActiveSetVariant> all = active_set_variants();
  EXPECT_EQ(all[2].name, "faicas_coalesce_false");
  EXPECT_EQ(all[2].entry, "faicas");
  EXPECT_TRUE(all[2].sim_safe);
}

TEST(SnapshotRegistry, NamesAreUniqueAndIdentifierSafe) {
  for (const SnapshotInfo* info : SnapshotRegistry::instance().all()) {
    EXPECT_FALSE(info->name.empty());
    for (char c : info->name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_')
          << info->name << " is not a valid gtest parameter name";
    }
    EXPECT_FALSE(info->description.empty()) << info->name;
  }
}

// ---------------------------------------------------------------------------
// Spec parsing.
// ---------------------------------------------------------------------------

TEST(RegistryOptions, ParsesTypedValuesAndFlagShorthand) {
  Options options = Options::parse("cap=3,verbose,name=zipf");
  EXPECT_EQ(options.get_uint("cap", 0), 3u);
  EXPECT_TRUE(options.get_bool("verbose", false));
  EXPECT_EQ(options.get_string("name", ""), "zipf");
  EXPECT_EQ(options.get_uint("absent", 17), 17u);
  EXPECT_NO_THROW(options.check_consumed());
}

TEST(RegistryOptions, RejectsMalformedSpecs) {
  EXPECT_THROW(Options::parse("=3"), std::invalid_argument);
  EXPECT_THROW(Options::parse("a=1,,b=2"), std::invalid_argument);
  // Duplicate keys would be silently first-wins; fail instead.
  EXPECT_THROW(Options::parse("cas=true,cas=false"), std::invalid_argument);
  Options bad_bool = Options::parse("cas=maybe");
  EXPECT_THROW(bad_bool.get_bool("cas", true), std::invalid_argument);
  Options bad_uint = Options::parse("cap=12x");
  EXPECT_THROW(bad_uint.get_uint("cap", 0), std::invalid_argument);
  // stoull would happily wrap a negative or skip leading junk; a typo'd
  // spec must fail loudly instead of silently disabling a bound.
  Options negative = Options::parse("cap=-1");
  EXPECT_THROW(negative.get_uint("cap", 0), std::invalid_argument);
  Options padded = Options::parse("cap= 3");
  EXPECT_THROW(padded.get_uint("cap", 0), std::invalid_argument);
}

TEST(SnapshotRegistry, UnknownNameAndUnknownOptionFailLoudly) {
  EXPECT_THROW(make_snapshot("no_such_impl", 4, 2), std::invalid_argument);
  EXPECT_THROW(make_snapshot("fig3_cas:typo_option=1", 4, 2),
               std::invalid_argument);
  EXPECT_THROW(make_active_set("faicas:typo=1", 2), std::invalid_argument);
}

TEST(SnapshotRegistry, UnknownNameSuggestsTheClosestImplementation) {
  // A one-character typo earns a "did you mean" plus the catalogue.
  try {
    make_snapshot("fig3_ca", 4, 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("did you mean 'fig3_cas'"), std::string::npos)
        << message;
    EXPECT_NE(message.find("fig1_register"), std::string::npos)
        << "catalogue missing from: " << message;
  }
  try {
    make_active_set("faicsa", 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'faicas'"),
              std::string::npos)
        << e.what();
  }
  // Nothing plausibly close: no suggestion, catalogue still printed.
  try {
    make_snapshot("zzzzzzzz", 4, 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string message = e.what();
    EXPECT_EQ(message.find("did you mean"), std::string::npos) << message;
    EXPECT_NE(message.find("known implementations"), std::string::npos)
        << message;
  }
  // Prefix abbreviations resolve to the full name.
  EXPECT_EQ(closest_snapshot_name("fig3"), "fig3_cas");
}

// Options and entries that used to select something else are bad specs:
// Figure 3 publishes only by CAS, Figure 2's join count is unbounded,
// every object starts at 0 (or at an InitialVector's payloads) on the
// watermark walk bound with its own active set, only the faicas entry has
// Figure 2's ablations, the Coalescer's window is a count of writes, and
// the Release register set has no entry of its own, and the bitmap and
// mutex active sets are gone.
TEST(SnapshotRegistry, RetiredSpellingsAreRejected) {
  // Each spelling's last option is the retired one; the error names it.
  auto expect_unknown_option = [](auto make, std::string_view spec) {
    std::string_view key = spec.substr(spec.find_last_of(":,") + 1);
    key = key.substr(0, key.find('='));
    try {
      make(std::string(spec));
      FAIL() << "expected std::invalid_argument for " << spec;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown option '" +
                                           std::string(key) + "'"),
                std::string::npos)
          << spec << ": " << e.what();
    }
  };
  std::vector<std::string> snapshots = {
      "fig1_register:as=bitmap",      "fig1_register:initial=7",
      "fig1_register:adaptive=false", "fig1_register_fast:initial=7",
      "fig1_register_fast:adaptive=false",
      "full_snapshot:initial=7",      "full_snapshot:adaptive=false",
      "double_collect:initial=7",     "lock:initial=7",
      "seqlock:initial=7"};
  for (const char* fig3 : {"fig3_cas", "fig3_cas_fast", "fig3_cas_batch"}) {
    for (const char* option :
         {"coalesce=false", "publish=false", "initial=7", "adaptive=false",
          "cas=false", "max_joins=3", "batch=4,coalesce_window_us=250"}) {
      snapshots.push_back(std::string(fig3) + ":" + option);
    }
  }
  for (const std::string& spec : snapshots) {
    expect_unknown_option(
        [](const std::string& s) {
          IngestKnobs knobs;
          make_snapshot(s, 4, 2, &knobs);
        },
        spec);
  }
  for (const char* spec :
       {"register:adaptive=false", "faicas:adaptive=false",
        "faicas:max_joins=3", "faicas_fast:adaptive=false",
        "faicas_fast:coalesce=false", "faicas_fast:publish=false"}) {
    expect_unknown_option(
        [](const std::string& s) { make_active_set(s, 2); }, spec);
  }
  auto expect_unknown_name = [](auto make, const char* spec,
                                const std::string& catalogue) {
    try {
      make(spec);
      FAIL() << "expected std::invalid_argument for " << spec;
    } catch (const std::invalid_argument& e) {
      std::string message = e.what();
      EXPECT_NE(message.find("unknown"), std::string::npos) << message;
      EXPECT_NE(message.find("known implementations:\n" + catalogue),
                std::string::npos)
          << "catalogue missing from: " << message;
    }
  };
  expect_unknown_name([](const char* s) { make_snapshot(s, 4, 2); },
                      "fig3_write_ablation", snapshot_catalogue());
  for (const char* spec : {"faicas_nocoalesce", "faicas_nopublish",
                           "register_fast", "bitmap_fast", "bitmap",
                           "lock"}) {
    expect_unknown_name([](const char* s) { make_active_set(s, 2); }, spec,
                        active_set_catalogue());
  }
}

TEST(SnapshotRegistry, UniversalSpecOptionsOverrideShapeArguments) {
  exec::ScopedPid pid(0);
  auto snap = make_snapshot("fig3_cas:m0=8,max_threads=3", 4, 2);
  EXPECT_EQ(snap->num_components(), 8u);
  snap->update(7, 42);
  EXPECT_EQ(snap->scan({7}), (std::vector<std::uint64_t>{42}));
  auto as = make_active_set("register:max_threads=5", 2);
  EXPECT_EQ(as->max_processes(), 5u);
}

// A thread bound or component count no implementation can hold fails as
// a bad spec on every entry, whether it comes from the argument or the
// option, instead of aborting inside a constructor (or, for the lock
// baseline, on the first update).
TEST(SnapshotRegistry, OutOfRangeShapeOptionsThrowOnEveryEntry) {
  const std::string too_many = std::to_string(exec::kMaxPidCapacity + 1);
  for (const SnapshotInfo* info : SnapshotRegistry::instance().all()) {
    const std::string& name = info->name;
    EXPECT_THROW(make_snapshot(name + ":max_threads=" + too_many, 4, 2),
                 std::invalid_argument)
        << name;
    EXPECT_THROW(make_snapshot(name + ":max_threads=0", 4, 2),
                 std::invalid_argument)
        << name;
    EXPECT_THROW(make_snapshot(name, 4, exec::kMaxPidCapacity + 1),
                 std::invalid_argument)
        << name;
    EXPECT_THROW(make_snapshot(name, 4, 0), std::invalid_argument) << name;
    EXPECT_THROW(make_snapshot(name + ":m0=0", 4, 2), std::invalid_argument)
        << name;
    EXPECT_THROW(make_snapshot(name, 0, 2), std::invalid_argument) << name;
    // The bounds themselves build.
    EXPECT_NO_THROW(make_snapshot(
        name + ":m0=1,max_threads=" + std::to_string(exec::kMaxPidCapacity),
        4, 2))
        << name;
  }
  for (const ActiveSetInfo* info : ActiveSetRegistry::instance().all()) {
    const std::string& name = info->name;
    EXPECT_THROW(make_active_set(name + ":max_threads=" + too_many, 2),
                 std::invalid_argument)
        << name;
    EXPECT_THROW(make_active_set(name, 0), std::invalid_argument) << name;
    EXPECT_NO_THROW(make_active_set(name, exec::kMaxPidCapacity)) << name;
  }
}

TEST(SnapshotRegistry, EveryImplementationGrowsThroughAddComponents) {
  exec::ScopedPid pid(0);
  for (const SnapshotVariant& variant : variants()) {
    auto snap = test::make_snapshot(variant, 4, 2);
    snap->update(3, 33);
    std::uint32_t first = snap->add_components(3);
    EXPECT_EQ(first, 4u) << variant.spec;
    EXPECT_EQ(snap->num_components(), 7u) << variant.spec;
    // Old components keep their values; new ones start at the initial
    // value and accept updates.
    EXPECT_EQ(snap->scan({3, 4, 6}), (std::vector<std::uint64_t>{33, 0, 0}))
        << variant.spec;
    snap->update(6, 66);
    EXPECT_EQ(snap->scan({6, 0}), (std::vector<std::uint64_t>{66, 0}))
        << variant.spec;
  }
}

TEST(SnapshotRegistry, SpecOptionsReachTheImplementation) {
  exec::ScopedPid pid(0);
  {
    auto snap = make_snapshot("fig3_cas:reclaim=hp", 4, 2);
    auto* cas = dynamic_cast<core::CasPartialSnapshot*>(snap.get());
    ASSERT_NE(cas, nullptr);
    EXPECT_EQ(snap->name(), "fig3-cas-hp");
  }
  {
    auto as = make_active_set("faicas:coalesce=false", 2);
    EXPECT_NE(dynamic_cast<activeset::FaiCasActiveSet*>(as.get()), nullptr);
  }
}

// ---------------------------------------------------------------------------
// Value planes.
// ---------------------------------------------------------------------------

TEST(SnapshotRegistry, ValuePlaneOptionSelectsThePlaneOnEveryBuiltin) {
  exec::ScopedPid pid(0);
  struct Payload {
    std::uint32_t id;
    double reading;
  };
  for (const char* spec :
       {"fig1_register:value=blob", "fig3_cas:value=blob",
        "seqlock:value=blob",
        "fig1_register_fast:value=blob", "fig3_cas_fast:value=blob",
        "fig3_cas_batch:value=blob"}) {
    auto snap = make_snapshot(spec, 4, 2);
    EXPECT_EQ(snap->value_plane(), "blob") << spec;
    // The logical-u64 interface round-trips through 8-byte payloads, so
    // u64-driven harnesses cover this plane unchanged.
    snap->update(1, 77);
    EXPECT_EQ(snap->scan({1, 0}), (std::vector<std::uint64_t>{77, 0}))
        << spec;
    // Arbitrary struct payloads round-trip through the blob interface.
    Payload in{9, 2.5};
    snap->update_blob(2, value::as_bytes_of(in));
    std::vector<value::Blob> blobs;
    const std::vector<std::uint32_t> idx{2, 1};
    snap->scan_blobs(idx, blobs);
    ASSERT_EQ(blobs.size(), 2u) << spec;
    Payload out{};
    ASSERT_TRUE(value::from_bytes(blobs[0], out)) << spec;
    EXPECT_EQ(out.id, 9u) << spec;
    EXPECT_EQ(out.reading, 2.5) << spec;
    // The u64 update at index 1 reads back as its 8-byte encoding.
    EXPECT_EQ(value::IndirectBlob::decode(blobs[1]), 77u) << spec;
  }
}

TEST(SnapshotRegistry, ValuePlaneOptionSelectsTheVersionedPlane) {
  exec::ScopedPid pid(0);
  for (const char* spec :
       {"fig3_cas:value=versioned", "fig3_cas_fast:value=versioned",
        "fig3_cas_batch:value=versioned"}) {
    auto snap = make_snapshot(spec, 4, 2);
    EXPECT_EQ(snap->value_plane(), "versioned") << spec;
    // The u64 interface routes through the version chains, so every
    // u64-driven harness covers this plane unchanged.
    snap->update(1, 77);
    EXPECT_EQ(snap->scan({1, 0}), (std::vector<std::uint64_t>{77, 0}))
        << spec;
    // The plane-specific API returns the scan's camera epoch.
    std::vector<std::uint64_t> out;
    const std::vector<std::uint32_t> idx{1, 3};
    std::uint64_t e1 = snap->scan_versioned(idx, out);
    EXPECT_EQ(out, (std::vector<std::uint64_t>{77, 0})) << spec;
    std::uint64_t e2 = snap->scan_versioned(idx, out);
    EXPECT_GT(e2, e1) << spec;
    // Versioned stores words, not byte payloads.
    EXPECT_THROW(snap->update_blob(0, {}), std::logic_error) << spec;
  }
}

// The plane-specific entry points a cell does not implement fall through
// to the PartialSnapshot defaults, which throw std::logic_error -- on
// every cell of the catalogue, so an implementation that stops overriding
// (or wrongly starts) is caught.
TEST(SnapshotRegistry, NonVersionedPlanesRejectScanVersioned) {
  exec::ScopedPid pid(0);
  for (const SnapshotVariant& variant : variants()) {
    if (variant.value == "versioned") continue;
    auto snap = test::make_snapshot(variant, 4, 2);
    std::vector<std::uint64_t> out;
    const std::vector<std::uint32_t> idx{0};
    EXPECT_THROW(snap->scan_versioned(idx, out), std::logic_error)
        << variant.spec;
  }
}

TEST(SnapshotRegistry, U64PlaneRejectsBlobOperations) {
  exec::ScopedPid pid(0);
  for (const SnapshotVariant& variant : variants()) {
    if (variant.value == "blob") continue;
    auto snap = test::make_snapshot(variant, 4, 2);
    EXPECT_NE(snap->value_plane(), "blob") << variant.spec;
    EXPECT_THROW(snap->update_blob(0, {}), std::logic_error) << variant.spec;
    std::vector<value::Blob> blobs;
    const std::vector<std::uint32_t> idx{0};
    EXPECT_THROW(snap->scan_blobs(idx, blobs), std::logic_error)
        << variant.spec;
    const std::vector<core::BlobBatchEntry> batch{{0, {}}};
    EXPECT_THROW(snap->update_batch_blob(batch), std::logic_error)
        << variant.spec;
  }
}

TEST(SnapshotRegistry, UnsupportedValuePlaneFailsWithTheFullCatalogue) {
  // A plane the entry does not list fails loudly, naming the supported
  // set and printing the catalogue (which itself lists every entry's
  // {value=...} options).
  try {
    make_snapshot("fig3_cas:value=qword", 4, 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("does not support value=qword"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("supported: u64,blob,versioned"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("known implementations"), std::string::npos)
        << message;
    EXPECT_NE(message.find("{value=u64,blob}"), std::string::npos)
        << message;
    EXPECT_NE(message.find("{value=u64,blob,versioned}"), std::string::npos)
        << message;
  }
  // Entries that never grew a version chain reject the versioned plane...
  try {
    make_snapshot("fig1_register:value=versioned", 4, 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("does not support value=versioned"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("supported: u64,blob"), std::string::npos)
        << message;
  }
  // The baselines keep only the planes a claim reads: the cells they
  // dropped are refused, not silently rebuilt on another plane.
  const struct {
    const char* spec;
    const char* plane;
    const char* supported;
  } kDropped[] = {
      {"full_snapshot:value=versioned", "versioned", "u64"},
      {"seqlock:value=versioned", "versioned", "u64,blob"},
      {"full_snapshot:value=blob", "blob", "u64"},
      {"double_collect:value=blob", "blob", "u64"},
      {"lock:value=blob", "blob", "u64"},
  };
  for (const auto& dropped : kDropped) {
    try {
      make_snapshot(dropped.spec, 4, 2);
      ADD_FAILURE() << dropped.spec << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      std::string message = e.what();
      EXPECT_NE(message.find(std::string("does not support value=") +
                             dropped.plane),
                std::string::npos)
          << message;
      EXPECT_NE(message.find(std::string("(supported: ") + dropped.supported +
                             ")"),
                std::string::npos)
          << message;
      EXPECT_NE(message.find("known implementations"), std::string::npos)
          << message;
    }
  }
  // The versioned baseline's batch-routed entry is gone: an unknown name.
  try {
    make_snapshot("full_snapshot_versioned_batch", 4, 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("unknown snapshot implementation "
                           "'full_snapshot_versioned_batch'"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("known implementations"), std::string::npos)
        << message;
  }
}

TEST(SnapshotRegistry, CatalogueListsPerImplementationValuePlanes) {
  std::string catalogue = snapshot_catalogue();
  // Every entry advertises its plane set...
  for (const SnapshotInfo* info : SnapshotRegistry::instance().all()) {
    EXPECT_NE(catalogue.find(info->name), std::string::npos) << info->name;
    EXPECT_NE(catalogue.find("{value=" + info->values + "}"),
              std::string::npos)
        << info->name << " planes missing from catalogue";
  }
  // ...and the trailer documents the universal option.
  EXPECT_NE(catalogue.find("value=<plane>"), std::string::npos);
}

TEST(SnapshotRegistry, DefaultPlaneIsTheFirstListed) {
  EXPECT_TRUE(value_plane_supported("u64,blob", "u64"));
  EXPECT_TRUE(value_plane_supported("u64,blob", "blob"));
  EXPECT_FALSE(value_plane_supported("u64,blob", "qword"));
  EXPECT_FALSE(value_plane_supported("u64", "blob"));
  EXPECT_TRUE(value_plane_supported("u64,blob,versioned", "versioned"));
  EXPECT_FALSE(value_plane_supported("u64,blob", "versioned"));
  EXPECT_EQ(default_value_plane("versioned"), "versioned");
  EXPECT_EQ(default_value_plane("u64,blob"), "u64");
  EXPECT_EQ(default_value_plane("blob"), "blob");
  // Capability field vs instance, for every entry.
  for (const SnapshotInfo* info : SnapshotRegistry::instance().all()) {
    auto snap = make_snapshot(info->name, 4, 2);
    EXPECT_EQ(snap->value_plane(), default_value_plane(info->values))
        << info->name;
  }
}

// ---------------------------------------------------------------------------
// Reclamation planes (reclaim= / shards=).
// ---------------------------------------------------------------------------

TEST(SnapshotRegistry, ReclaimPlaneOptionSelectsThePlane) {
  exec::ScopedPid pid(0);
  for (const char* spec :
       {"fig3_cas:reclaim=hp", "fig3_cas_fast:reclaim=hp",
        "fig3_cas:value=blob,reclaim=hp",
        "fig3_cas:value=versioned,reclaim=hp", "fig3_cas_batch:reclaim=hp",
        "fig3_cas_batch:value=blob,reclaim=hp",
        "fig3_cas_batch:value=versioned,reclaim=hp"}) {
    auto snap = make_snapshot(spec, 4, 2);
    EXPECT_EQ(snap->reclaim_plane(), "hp") << spec;
    EXPECT_EQ(snap->reclaim_shards(), 1u) << spec;
    snap->update(1, 77);
    EXPECT_EQ(snap->scan({1, 0}), (std::vector<std::uint64_t>{77, 0}))
        << spec;
  }
  // The default plane is EBR, one shard; shards=k shards it.
  auto def = make_snapshot("fig3_cas", 4, 2);
  EXPECT_EQ(def->reclaim_plane(), "ebr");
  EXPECT_EQ(def->reclaim_shards(), 1u);
  auto sharded = make_snapshot("fig3_cas:shards=4", 4, 2);
  EXPECT_EQ(sharded->reclaim_plane(), "ebr");
  EXPECT_EQ(sharded->reclaim_shards(), 4u);
  sharded->update(1, 5);
  EXPECT_EQ(sharded->scan({1, 3}), (std::vector<std::uint64_t>{5, 0}));
}

TEST(SnapshotRegistry, UnsupportedReclaimPlaneFailsWithTheFullCatalogue) {
  // reclaim=hp on an entry without a hazard-pointer path fails centrally,
  // naming the supported set and printing the catalogue (whose lines list
  // every entry's {reclaim=...} planes).
  try {
    make_snapshot("fig1_register:reclaim=hp", 4, 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("does not support reclaim=hp"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("supported: ebr"), std::string::npos) << message;
    EXPECT_NE(message.find("known implementations"), std::string::npos)
        << message;
    EXPECT_NE(message.find("{reclaim=ebr,hp}"), std::string::npos)
        << message;
  }
  // Combination rules fail loudly at construction, not deep in a workload:
  // shards out of range, hp with sharding, sharding on the versioned
  // plane.
  EXPECT_THROW(make_snapshot("fig3_cas:shards=0", 4, 2),
               std::invalid_argument);
  EXPECT_THROW(make_snapshot("fig3_cas:shards=17", 4, 2),
               std::invalid_argument);
  EXPECT_THROW(make_snapshot("fig3_cas:reclaim=hp,shards=2", 4, 2),
               std::invalid_argument);
  EXPECT_THROW(make_snapshot("fig3_cas:value=versioned,shards=2", 4, 2),
               std::invalid_argument);
}

TEST(SnapshotRegistry, CatalogueListsPerImplementationReclaimPlanes) {
  std::string catalogue = snapshot_catalogue();
  for (const SnapshotInfo* info : SnapshotRegistry::instance().all()) {
    EXPECT_NE(catalogue.find("{reclaim=" + info->reclaims + "}"),
              std::string::npos)
        << info->name << " reclaim planes missing from catalogue";
  }
  EXPECT_NE(catalogue.find("reclaim=<plane>"), std::string::npos);
}

TEST(SnapshotRegistry, DefaultReclaimPlaneIsTheFirstListed) {
  EXPECT_TRUE(reclaim_plane_supported("ebr,hp", "ebr"));
  EXPECT_TRUE(reclaim_plane_supported("ebr,hp", "hp"));
  EXPECT_FALSE(reclaim_plane_supported("ebr", "hp"));
  EXPECT_FALSE(reclaim_plane_supported("hp", "ebr"));
  EXPECT_EQ(default_reclaim_plane("ebr,hp"), "ebr");
  EXPECT_EQ(default_reclaim_plane("hp"), "hp");
  // Capability field vs instance, for every entry.
  exec::ScopedPid pid(0);
  for (const SnapshotInfo* info : SnapshotRegistry::instance().all()) {
    auto snap = make_snapshot(info->name, 4, 2);
    EXPECT_EQ(snap->reclaim_plane(), default_reclaim_plane(info->reclaims))
        << info->name;
  }
}

TEST(SnapshotRegistry, UnknownOptionSuggestsTheClosestQueriedKey) {
  // A typo'd option names its likely intent: the candidate pool is the
  // keys the registry and the factory actually asked about.
  try {
    make_snapshot("fig3_cas:reclam=hp", 4, 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("unknown option 'reclam'"), std::string::npos)
        << message;
    EXPECT_NE(message.find("did you mean 'reclaim'"), std::string::npos)
        << message;
  }
  try {
    make_snapshot("fig3_cas:shrds=2", 4, 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'shards'"),
              std::string::npos)
        << e.what();
  }
}

// The suggestion budget stays below the typo's length: a 2-letter key is
// 2 edits from every other 2-letter key, so `as` must not be offered
// `m0`, while one-edit slips on short keys still are.
TEST(SnapshotRegistry, ShortTyposGetNoUnrelatedSuggestion) {
  auto message_for = [](const std::string& spec) {
    try {
      make_snapshot(spec, 4, 2);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    ADD_FAILURE() << "expected std::invalid_argument for " << spec;
    return std::string();
  };
  std::string message = message_for("fig1_register:as=bitmap");
  EXPECT_NE(message.find("unknown option 'as'"), std::string::npos)
      << message;
  EXPECT_EQ(message.find("did you mean"), std::string::npos) << message;
  message = message_for("fig3_cas:shard=2");
  EXPECT_NE(message.find("did you mean 'shards'"), std::string::npos)
      << message;
  message = message_for("fig1_register:m1=4");
  EXPECT_NE(message.find("did you mean 'm0'"), std::string::npos)
      << message;
}

// ---------------------------------------------------------------------------
// Ingest knobs (batch= / coalesce_window=) and the batch capability flag.
// ---------------------------------------------------------------------------

TEST(SnapshotRegistry, IngestKnobsParseThroughTheSpec) {
  exec::ScopedPid pid(0);
  IngestKnobs knobs;
  auto snap =
      make_snapshot("fig3_cas:batch=16,coalesce_window=64", 4, 2, &knobs);
  EXPECT_EQ(knobs.batch, 16u);
  EXPECT_EQ(knobs.coalesce_window, 64u);
  EXPECT_TRUE(knobs.batching_requested());
  // The snapshot itself is unchanged by the knobs; they describe how the
  // caller should feed it.
  snap->update(0, 5);
  EXPECT_EQ(snap->scan({0}), (std::vector<std::uint64_t>{5}));
  // Absent knobs keep the caller's defaults (singleton ingest).
  IngestKnobs defaults;
  make_snapshot("fig3_cas", 4, 2, &defaults);
  EXPECT_EQ(defaults.batch, 1u);
  EXPECT_EQ(defaults.coalesce_window, 0u);
  EXPECT_FALSE(defaults.batching_requested());
  // The knobs compose with the other universal options.
  IngestKnobs mixed;
  auto grown = make_snapshot("fig3_cas:m0=8,batch=4", 4, 2, &mixed);
  EXPECT_EQ(grown->num_components(), 8u);
  EXPECT_EQ(mixed.batch, 4u);
}

TEST(SnapshotRegistry, AffinityKnobParsesThroughTheSpec) {
  // affinity=segment rides in the ingest knobs (it describes worker
  // placement, a caller-side concern) and composes with the reclaim
  // shape options.
  IngestKnobs knobs;
  auto snap =
      make_snapshot("fig3_cas:affinity=segment,shards=2", 4, 2, &knobs);
  EXPECT_EQ(knobs.affinity, "segment");
  EXPECT_EQ(snap->reclaim_shards(), 2u);
  IngestKnobs defaults;
  make_snapshot("fig3_cas", 4, 2, &defaults);
  EXPECT_EQ(defaults.affinity, "none");
  // A caller without a knobs sink cannot honor it; a bad value fails.
  EXPECT_THROW(make_snapshot("fig3_cas:affinity=segment", 4, 2),
               std::invalid_argument);
  IngestKnobs bad;
  EXPECT_THROW(make_snapshot("fig3_cas:affinity=wat", 4, 2, &bad),
               std::invalid_argument);
}

TEST(SnapshotRegistry, IngestKnobsRejectUnsupportedCombos) {
  // Batching on an entry without a batch path fails with the catalogue
  // (which marks the capable entries), not deep inside a workload.
  IngestKnobs knobs;
  try {
    make_snapshot("fig1_register:batch=4", 4, 2, &knobs);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("does not support batched updates"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("known implementations"), std::string::npos)
        << message;
    EXPECT_NE(message.find("(batch)"), std::string::npos) << message;
  }
  EXPECT_THROW(
      make_snapshot("fig1_register:coalesce_window=8", 4, 2, &knobs),
      std::invalid_argument);
  // batch=0 has no flush threshold.
  EXPECT_THROW(make_snapshot("fig3_cas:batch=0", 4, 2, &knobs),
               std::invalid_argument);
  // An entry point that feeds writes one at a time (the three-argument
  // make) must not silently ignore a batching request.
  try {
    make_snapshot("fig3_cas:batch=16", 4, 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cannot honor ingest knobs"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(make_snapshot("fig3_cas:coalesce_window=4", 4, 2),
               std::invalid_argument);
}

TEST(SnapshotRegistry, CatalogueMarksBatchCapability) {
  std::string catalogue = snapshot_catalogue();
  EXPECT_NE(catalogue.find("(batch)"), std::string::npos);
  EXPECT_NE(catalogue.find("batch=<k>"), std::string::npos);
  EXPECT_NE(catalogue.find("coalesce_window=<w>"), std::string::npos);
  // Per entry: the capability marker appears on its line exactly when the
  // flag is set.
  for (const SnapshotInfo* info : SnapshotRegistry::instance().all()) {
    std::size_t start = catalogue.find("  " + info->name + " ");
    ASSERT_NE(start, std::string::npos) << info->name;
    std::size_t end = catalogue.find('\n', start);
    std::string line = catalogue.substr(start, end - start);
    EXPECT_EQ(line.find("(batch)") != std::string::npos,
              info->supports_batch)
        << line;
  }
}

// The scan-attempt cap of the starvation-prone baselines reaches the
// implementation: sequentially, the double collect needs two collects to
// agree, so max_attempts=1 starves even an uncontended scan.
TEST(SnapshotRegistry, ScanAttemptCapReachesTheImplementation) {
  exec::ScopedPid pid(0);
  auto capped = make_snapshot("double_collect:max_attempts=1", 4, 2);
  EXPECT_THROW(capped->scan({0}), baseline::StarvationError);
  auto uncapped = make_snapshot("double_collect:max_attempts=0", 4, 2);
  EXPECT_EQ(uncapped->scan({0}), (std::vector<std::uint64_t>{0}));
  // The seqlock succeeds on its first attempt when uncontended.
  auto seqlock = make_snapshot("seqlock:max_attempts=1", 4, 2);
  EXPECT_EQ(seqlock->scan({0}), (std::vector<std::uint64_t>{0}));
}

// ---------------------------------------------------------------------------
// Variant flags vs the instances.
// ---------------------------------------------------------------------------

class RegistryFlagsTest : public ::testing::TestWithParam<SnapshotVariant> {};

TEST_P(RegistryFlagsTest, FlagsMatchInstance) {
  const SnapshotVariant& variant = GetParam();
  auto snap = test::make_snapshot(variant, 4, 2);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(variant.is_wait_free, snap->is_wait_free());
  EXPECT_EQ(variant.is_local, snap->is_local());
  EXPECT_EQ(variant.supports_batch,
            snap->batch_atomicity() != core::BatchAtomicity::kUnsupported);
  EXPECT_EQ(snap->value_plane(), variant.value);
  EXPECT_EQ(snap->reclaim_plane(), variant.reclaim);
  EXPECT_EQ(snap->num_components(), 4u);
  EXPECT_FALSE(snap->name().empty());
}

INSTANTIATE_TEST_SUITE_P(AllImplementations, RegistryFlagsTest,
                         ::testing::ValuesIn(test::snapshot_impls()),
                         test::snapshot_param_name);

// ---------------------------------------------------------------------------
// Sequential scan contract through the registry: unsorted, duplicate, and
// empty index sets, and scan_all, for every registry variant.
// ---------------------------------------------------------------------------

class RegistryScanContractTest
    : public ::testing::TestWithParam<SnapshotVariant> {};

TEST_P(RegistryScanContractTest, UnsortedDuplicateAndEmptyIndexSets) {
  constexpr std::uint32_t kM = 12;
  auto snap = test::make_snapshot(GetParam(), kM, 3);
  exec::ScopedPid pid(0);
  for (std::uint32_t i = 0; i < kM; ++i) snap->update(i, 100 + i);

  // Unsorted request: values must come back in request order.
  EXPECT_EQ(snap->scan({7, 0, 11, 3}),
            (std::vector<std::uint64_t>{107, 100, 111, 103}));
  // Duplicates: every occurrence is answered.
  EXPECT_EQ(snap->scan({5, 5, 2, 5}),
            (std::vector<std::uint64_t>{105, 105, 102, 105}));
  // Unsorted AND duplicated.
  EXPECT_EQ(snap->scan({9, 1, 9, 1}),
            (std::vector<std::uint64_t>{109, 101, 109, 101}));
  // Empty set.
  std::vector<std::uint32_t> none;
  EXPECT_TRUE(snap->scan(std::span<const std::uint32_t>(none)).empty());
}

TEST_P(RegistryScanContractTest, ScanAllMatchesSequentialModel) {
  constexpr std::uint32_t kM = 9;
  auto snap = test::make_snapshot(GetParam(), kM, 3);
  exec::ScopedPid pid(0);
  std::vector<std::uint64_t> model(kM, 0);
  // Interleave updates and partial scans, then compare the complete scan.
  for (std::uint32_t round = 1; round <= 4; ++round) {
    for (std::uint32_t i = 0; i < kM; i += round) {
      snap->update(i, round * 1000 + i);
      model[i] = round * 1000 + i;
    }
    EXPECT_EQ(snap->scan_all(), model) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(AllImplementations, RegistryScanContractTest,
                         ::testing::ValuesIn(test::snapshot_impls()),
                         test::snapshot_param_name);

}  // namespace
}  // namespace psnap::registry
