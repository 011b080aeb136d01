// Coverage assertion for the fuzz target enumeration (verify/fuzz/target.h):
// every sim-safe registry variant -- each entry on each value and
// reclamation plane it lists -- with a coalescing ingest target for every
// batch-capable one, and every sim-safe active set with each of its
// ablations, appears exactly once, and no two targets build the same
// configuration.  The expected set is recomputed here straight from
// the registries -- no hand-curated impl tables -- so registering a new
// implementation without fuzz coverage fails this test, not code review.
#include "verify/fuzz/target.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "registry/registry.h"
#include "verify/fuzz/token.h"

namespace psnap::verify::fuzz {
namespace {

constexpr char kIngest[] = ",batch=3,coalesce_window=6";

TEST(FuzzCoverage, EverySimSafeVariantAndKnobComboIsEnumerated) {
  std::set<std::string> expected;
  for (const registry::SnapshotVariant& variant : registry::variants()) {
    if (!variant.sim_safe) continue;
    expected.insert("snap " + variant.spec);
    if (variant.supports_batch) {
      expected.insert("snap " + variant.spec + kIngest);
    }
  }
  for (const registry::ActiveSetVariant& variant :
       registry::active_set_variants()) {
    if (!variant.sim_safe) continue;
    expected.insert("aset " + variant.spec);
  }

  std::set<std::string> actual;
  for (const FuzzTarget& target : enumerate_targets()) {
    EXPECT_TRUE(actual.insert(target.display()).second)
        << "duplicate fuzz target: " << target.display();
  }

  for (const std::string& spec : expected) {
    EXPECT_TRUE(actual.count(spec)) << "registry combo not fuzzed: " << spec;
  }
  for (const std::string& spec : actual) {
    EXPECT_TRUE(expected.count(spec))
        << "fuzz target not derived from the registry: " << spec;
  }
  // registry::variants() could itself collapse (e.g. to default planes
  // only) and the two-way match above would still hold, so count the
  // cells again from the entries' own plane lists, and require every
  // plane kind to be fuzzed somewhere.
  std::size_t cells = 0;
  for (const registry::SnapshotInfo* info :
       registry::SnapshotRegistry::instance().all()) {
    if (!info->sim_safe) continue;
    const std::size_t values =
        std::count(info->values.begin(), info->values.end(), ',') + 1;
    const std::size_t reclaims =
        std::count(info->reclaims.begin(), info->reclaims.end(), ',') + 1;
    cells += values * reclaims * (info->supports_batch ? 2 : 1);
  }
  for (const registry::ActiveSetInfo* info :
       registry::ActiveSetRegistry::instance().all()) {
    if (info->sim_safe) cells += 1 + info->ablations.size();
  }
  EXPECT_EQ(actual.size(), cells);
  for (const char* plane :
       {"value=u64", "value=blob", "value=versioned", "reclaim=ebr",
        "reclaim=hp", "batch="}) {
    EXPECT_TRUE(std::any_of(actual.begin(), actual.end(),
                            [plane](const std::string& target) {
                              return target.find(plane) != std::string::npos;
                            }))
        << "no fuzz target on " << plane;
  }
}

TEST(FuzzCoverage, NoTwoTargetsBuildTheSameConfiguration) {
  // Resolve each snapshot target to (entry, value plane, reclamation
  // plane, coalesced): two spellings of one object would fuzz it twice.
  std::set<std::tuple<std::string, std::string, std::string, bool>> seen;
  for (const FuzzTarget& target : enumerate_snapshot_targets()) {
    auto [name, opts] = registry::split_spec(target.spec);
    const registry::SnapshotInfo* info =
        registry::SnapshotRegistry::instance().find(name);
    ASSERT_NE(info, nullptr) << target.spec;
    registry::Options options = registry::Options::parse(opts);
    auto key = std::make_tuple(
        std::string(name),
        options.get_string("value",
                           registry::default_value_plane(info->values)),
        options.get_string("reclaim",
                           registry::default_reclaim_plane(info->reclaims)),
        target.coalesced);
    EXPECT_TRUE(seen.insert(key).second)
        << "two fuzz targets build the configuration of " << target.spec;
  }
}

TEST(FuzzCoverage, TargetFromSpecRejectsEntriesWithoutSimHooks) {
  // A fuzz plan runs under the sim scheduler; an entry that never yields
  // to it cannot honour the token's schedule seed, so replay refuses it.
  std::size_t rejected = 0;
  for (const registry::SnapshotInfo* info :
       registry::SnapshotRegistry::instance().all()) {
    if (info->sim_safe) continue;
    EXPECT_THROW(target_from_spec(FuzzTarget::Kind::kSnapshot,
                                  info->name + ":value=u64"),
                 std::invalid_argument)
        << info->name;
    ++rejected;
  }
  EXPECT_GE(rejected, 1u);
  EXPECT_THROW(decode_token("psnapfuzz/1|snap|fig3_cas_fast:value=u64|m0=2|"
                            "procs=3|ops=5|op=1d|sched=9"),
               std::invalid_argument);
  rejected = 0;
  for (const registry::ActiveSetInfo* info :
       registry::ActiveSetRegistry::instance().all()) {
    if (info->sim_safe) continue;
    EXPECT_THROW(target_from_spec(FuzzTarget::Kind::kActiveSet, info->name),
                 std::invalid_argument)
        << info->name;
    ++rejected;
  }
  EXPECT_GE(rejected, 1u);
  EXPECT_THROW(decode_token("psnapfuzz/1|aset|faicas_fast|m0=1|procs=3|"
                            "ops=4|op=7|sched=2f"),
               std::invalid_argument);
}

// Active sets that are no longer registered fail to decode by name rather
// than replaying against some other implementation.
TEST(FuzzCoverage, TokensNamingRetiredActiveSetsDoNotDecode) {
  for (const char* name : {"bitmap", "lock"}) {
    try {
      decode_token(std::string("psnapfuzz/1|aset|") + name +
                   "|m0=1|procs=3|ops=4|op=7|sched=2f");
      ADD_FAILURE() << "expected std::invalid_argument for " << name;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "unknown active-set implementation"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FuzzCoverage, CapabilityFlagsMatchTheRegistryEntry) {
  for (const FuzzTarget& target : enumerate_targets()) {
    if (target.kind != FuzzTarget::Kind::kSnapshot) continue;
    auto [name, opts] = registry::split_spec(target.spec);
    const registry::SnapshotInfo* info =
        registry::SnapshotRegistry::instance().find(name);
    ASSERT_NE(info, nullptr) << target.spec;
    EXPECT_EQ(target.supports_batch, info->supports_batch) << target.spec;
    EXPECT_EQ(target.versioned,
              target.spec.find("value=versioned") != std::string::npos)
        << target.spec;
    EXPECT_EQ(target.coalesced,
              target.spec.find("batch=") != std::string::npos)
        << target.spec;
  }
}

TEST(FuzzCoverage, TargetFromSpecRebuildsEnumeratedTargets) {
  // Token replay rebuilds targets from their spec alone; the rebuilt
  // capability flags must agree with the enumerated original, or a token
  // would fuzz a different op mix than the campaign that minted it.
  for (const FuzzTarget& target : enumerate_targets()) {
    FuzzTarget rebuilt = target_from_spec(target.kind, target.spec);
    EXPECT_EQ(rebuilt.spec, target.spec);
    EXPECT_EQ(rebuilt.supports_batch, target.supports_batch) << target.spec;
    EXPECT_EQ(rebuilt.versioned, target.versioned) << target.spec;
    EXPECT_EQ(rebuilt.blob, target.blob) << target.spec;
    EXPECT_EQ(rebuilt.coalesced, target.coalesced) << target.spec;
  }
}

}  // namespace
}  // namespace psnap::verify::fuzz
