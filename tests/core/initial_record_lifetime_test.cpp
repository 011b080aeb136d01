// The whole life of a storage-owned initial record (core/record.h).
//
// Figure 1 and Figure 3 build their initial records in place in a
// ComponentStorage, and past construction those records are ordinary
// records: an update displaces them, the pool recycles them onto the
// displacing thread's free list, and a later update republishes them --
// with a real tag and, when a scanner is announced, a grown view vector.
// Every record delete must go through RecordT::dispose, which skips them,
// and the storage must free them (view capacity included) exactly once.
//
// Each case drives one fig1/fig3 registry variant through that life and
// then destroys the object:
//
//   * two real threads update every component three times each, sweeping
//     in opposite directions and scanning windows the other thread's
//     updates must help;
//   * batch-capable variants then publish one batch over every component;
//   * on the sim-safe versioned cells, pid 0 first displaces initial
//     records into its own free list, and at the end a FaultPlan halts its
//     batch over every component after every node has left the pool: the
//     destructor's crash sweep then disposes of pooled initial records.
//
// Under ASan a record freed twice, a storage-owned record passed to
// `delete`, or a leaked heap record or view fails the case; CI also runs
// the suite under TSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cas_psnap.h"
#include "core/growth.h"
#include "core/partial_snapshot.h"
#include "exec/exec.h"
#include "registry/registry.h"
#include "runtime/fault_plan.h"
#include "runtime/sim_scheduler.h"
#include "tests/support/registry_params.h"

namespace psnap::core {
namespace {

// Every fig1/fig3 registry cell (value plane x reclamation plane), plus a
// four-shard EBR cell wherever the entry takes shards=.
std::vector<registry::SnapshotVariant> lifetime_cases() {
  std::vector<registry::SnapshotVariant> out;
  for (registry::SnapshotVariant& v :
       test::snapshot_impls([](const registry::SnapshotVariant& v) {
         return v.entry.starts_with("fig1_") || v.entry.starts_with("fig3_");
       })) {
    const registry::SnapshotInfo* info =
        registry::SnapshotRegistry::instance().find(v.entry);
    const bool shardable =
        v.reclaim == "ebr" && v.value != "versioned" &&
        info->options_help.find("shards=") != std::string::npos;
    out.push_back(v);
    if (shardable) {
      v.spec += ",shards=4";
      v.name += "_shards4";
      out.push_back(std::move(v));
    }
  }
  return out;
}

// Three segments, so a four-shard plane spreads the components over
// three shards.
constexpr std::uint32_t kM = 2 * kComponentSegmentSize + 100;
constexpr std::uint64_t kRounds = 3;
constexpr std::uint32_t kWindow = 16;
constexpr std::uint64_t kBatchValue = 7;
// The halted batch's process dies at its third step: inside the install
// engine, after every node of the batch has left the pool.
constexpr std::uint64_t kHaltStep = 3;

std::uint64_t written(std::uint32_t pid, std::uint64_t round) {
  return pid * 100 + round;
}

std::vector<BatchEntry> batch_over_all(std::uint64_t value) {
  std::vector<BatchEntry> entries;
  for (std::uint32_t i = 0; i < kM; ++i) entries.push_back({i, value});
  return entries;
}

class InitialRecordLifetimeTest
    : public ::testing::TestWithParam<registry::SnapshotVariant> {};

TEST_P(InitialRecordLifetimeTest, DisplacedRecycledRepublishedThenFreedOnce) {
  const registry::SnapshotVariant& variant = GetParam();
  auto snap = test::make_snapshot(variant, kM, 3);
  const bool halt = variant.value == "versioned" && variant.sim_safe;

  if (halt) {
    // A versioned update trims its head's predecessor, so pid 0's second
    // update of a component recycles that component's initial record into
    // pid 0's free list.  The threads below run as pids 1 and 2 and never
    // touch that list, so the halted batch at the end takes from it.
    exec::ScopedPid pid(0);
    for (std::uint64_t round = 0; round < 2; ++round) {
      for (std::uint32_t i = 0; i < kM; ++i) snap->update(i, round);
    }
    if (auto* fig3 = dynamic_cast<CasPartialSnapshotVersioned*>(snap.get())) {
      ASSERT_GT(fig3->record_pool().pooled_count(), 0u)
          << "no pooled initial record for the halted batch to take";
    }
  }

  // Opposite sweep directions keep CAS races rare; a failed update still
  // implies a concurrent success on its component, so every component is
  // displaced at least kRounds times.  The threads start together, so one
  // thread's scans are announced while the other's updates help them.
  std::latch start(2);
  std::vector<std::thread> threads;
  for (std::uint32_t t = 1; t <= 2; ++t) {
    threads.emplace_back([&, t] {
      exec::ScopedPid pid(t);
      start.arrive_and_wait();
      std::vector<std::uint32_t> window(kWindow);
      std::vector<std::uint64_t> out;
      for (std::uint64_t round = 0; round < kRounds; ++round) {
        for (std::uint32_t k = 0; k < kM; ++k) {
          const std::uint32_t i = t == 1 ? k : kM - 1 - k;
          snap->update(i, written(t, round));
          if (k % 16 == 0) {
            for (std::uint32_t w = 0; w < kWindow; ++w) {
              window[w] = (i + w) % kM;
            }
            snap->scan(window, out);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  {
    // The last successful write of each component is a last-round write.
    exec::ScopedPid pid(1);
    const std::vector<std::uint64_t> values = snap->scan_all();
    ASSERT_EQ(values.size(), kM);
    for (std::uint32_t i = 0; i < kM; ++i) {
      const std::uint64_t v = values[i];
      ASSERT_TRUE(v == written(1, kRounds - 1) || v == written(2, kRounds - 1))
          << variant.spec << " component " << i << " holds " << v;
    }
    if (variant.supports_batch) {
      snap->update_batch(batch_over_all(kBatchValue));
      EXPECT_EQ(snap->scan_all(), std::vector<std::uint64_t>(kM, kBatchValue))
          << variant.spec;
    }
  }

  if (halt) {
    runtime::SimScheduler sched(
        runtime::FaultPlan{}.crash_at(0, kHaltStep).apply());
    bool returned = false;
    const std::vector<BatchEntry> entries = batch_over_all(kBatchValue + 1);
    sched.add_process([&] {
      snap->update_batch(entries);
      returned = true;
    });
    sched.run();
    EXPECT_FALSE(returned) << variant.spec << ": the batch outran its halt";
  }

  snap.reset();
}

INSTANTIATE_TEST_SUITE_P(Fig1Fig3, InitialRecordLifetimeTest,
                         ::testing::ValuesIn(lifetime_cases()),
                         test::snapshot_param_name);

}  // namespace
}  // namespace psnap::core
