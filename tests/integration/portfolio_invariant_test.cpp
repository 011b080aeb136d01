// End-to-end integration: the paper's stock-portfolio motivation as an
// executable invariant.
//
// Each "ticker" is a pair of components maintained by one owner thread:
//   even component  = cumulative shares issued   (E)
//   odd component   = cumulative shares settled  (O)
// The owner increments E then O in lock-step, so at EVERY instant
//   O <= E <= O + 1.
// A linearizable partial scan of the pair must observe that invariant; a
// torn scan (mixing values from different instants) shows E - O outside
// {0, 1} as soon as the owner has advanced in between.  A deliberately
// naive piecewise reader is included as a control to prove the workload
// does generate tearing when consistency is NOT enforced.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <thread>

#include "core/cas_psnap.h"
#include "core/partial_snapshot.h"
#include "exec/exec.h"
#include "registry/registry.h"
#include "tests/support/registry_params.h"

namespace psnap::core {
namespace {

// Every registered implementation is linearizable, so all of them must
// keep the pair invariant (uncapped double-collect/seqlock scans can
// retry but always return a consistent pair once the owners finish).
class PortfolioInvariantTest
    : public ::testing::TestWithParam<registry::SnapshotVariant> {};

TEST_P(PortfolioInvariantTest, PairInvariantHoldsUnderChurn) {
  constexpr std::uint32_t kPairs = 2;
  constexpr std::uint32_t kM = 2 * kPairs;
  constexpr std::uint64_t kIterations = 30000;
  constexpr int kAudits = 5000;

  auto snap = test::make_snapshot(GetParam(), kM, kPairs + 2);

  std::vector<std::thread> owners;
  for (std::uint32_t p = 0; p < kPairs; ++p) {
    owners.emplace_back([&snap, p] {
      exec::ScopedPid pid(p);
      for (std::uint64_t k = 1; k <= kIterations; ++k) {
        snap->update(2 * p, k);      // E := k   (invariant: E <= O+1 holds)
        snap->update(2 * p + 1, k);  // O := k   (back to E == O)
      }
    });
  }

  std::atomic<std::uint64_t> violations{0};
  std::vector<std::thread> auditors;
  for (std::uint32_t a = 0; a < 2; ++a) {
    auditors.emplace_back([&, a] {
      exec::ScopedPid pid(kPairs + a);
      std::vector<std::uint64_t> out;
      for (int i = 0; i < kAudits; ++i) {
        std::uint32_t p = static_cast<std::uint32_t>(i) % kPairs;
        snap->scan(std::vector<std::uint32_t>{2 * p, 2 * p + 1}, out);
        std::uint64_t issued = out[0], settled = out[1];
        if (!(settled <= issued && issued <= settled + 1)) {
          violations.fetch_add(1);
        }
      }
    });
  }

  for (auto& t : owners) t.join();
  for (auto& t : auditors) t.join();
  EXPECT_EQ(violations.load(), 0u) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(LinearizableImpls, PortfolioInvariantTest,
                         ::testing::ValuesIn(test::snapshot_impls()),
                         test::snapshot_param_name);

TEST(PortfolioControl, NaivePiecewiseReadsDoTear) {
  // Control experiment: read the pair with two independent scans (which is
  // exactly the inconsistent piece-by-piece read of the paper's
  // introduction) and show the invariant DOES get violated -- i.e. the
  // workload is strong enough that the tests above are meaningful.
  constexpr std::uint64_t kIterations = 400000;
  CasPartialSnapshot snap(2, 3);

  std::atomic<bool> done{false};
  std::thread owner([&] {
    exec::ScopedPid pid(0);
    for (std::uint64_t k = 1; k <= kIterations; ++k) {
      snap.update(0, k);
      snap.update(1, k);
    }
    done = true;
  });

  std::uint64_t violations = 0;
  {
    exec::ScopedPid pid(2);
    std::vector<std::uint64_t> issued_out, settled_out;
    while (!done && violations == 0) {
      // Deliberately wrong: two separate atomic reads, not one scan.
      snap.scan(std::vector<std::uint32_t>{1}, settled_out);
      snap.scan(std::vector<std::uint32_t>{0}, issued_out);
      std::uint64_t issued = issued_out[0], settled = settled_out[0];
      if (!(settled <= issued && issued <= settled + 1)) ++violations;
    }
  }
  owner.join();
  EXPECT_GT(violations, 0u)
      << "piecewise reads never tore; the invariant tests are too weak";
}

}  // namespace
}  // namespace psnap::core
