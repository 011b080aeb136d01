// Behavioural tests shared by every active set implementation,
// parameterized over a factory so each algorithm faces the same contract.
#include "activeset/active_set.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "exec/exec.h"
#include "registry/registry.h"
#include "tests/support/registry_params.h"

namespace psnap::activeset {
namespace {

class ActiveSetContractTest
    : public ::testing::TestWithParam<test::ActiveSetCase> {
 protected:
  std::unique_ptr<ActiveSet> make(std::uint32_t n) {
    return GetParam().make(n);
  }
};

TEST_P(ActiveSetContractTest, EmptyInitially) {
  auto as = make(4);
  exec::ScopedPid pid(0);
  EXPECT_TRUE(as->get_set().empty());
}

TEST_P(ActiveSetContractTest, JoinMakesVisible) {
  auto as = make(4);
  exec::ScopedPid pid(2);
  as->join();
  EXPECT_EQ(as->get_set(), (std::vector<std::uint32_t>{2}));
}

TEST_P(ActiveSetContractTest, LeaveRemoves) {
  auto as = make(4);
  exec::ScopedPid pid(1);
  as->join();
  as->leave();
  EXPECT_TRUE(as->get_set().empty());
}

TEST_P(ActiveSetContractTest, RejoinAfterLeave) {
  auto as = make(4);
  exec::ScopedPid pid(3);
  for (int round = 0; round < 5; ++round) {
    as->join();
    EXPECT_EQ(as->get_set(), (std::vector<std::uint32_t>{3}));
    as->leave();
    EXPECT_TRUE(as->get_set().empty());
  }
}

TEST_P(ActiveSetContractTest, MultipleMembersSortedNoDuplicates) {
  auto as = make(8);
  for (std::uint32_t p : {5u, 1u, 7u}) {
    exec::ScopedPid pid(p);
    as->join();
  }
  exec::ScopedPid pid(0);
  auto members = as->get_set();
  EXPECT_EQ(members, (std::vector<std::uint32_t>{1, 5, 7}));
}

TEST_P(ActiveSetContractTest, GetSetByNonMember) {
  auto as = make(4);
  {
    exec::ScopedPid pid(1);
    as->join();
  }
  exec::ScopedPid pid(0);  // observer never joined
  EXPECT_EQ(as->get_set(), (std::vector<std::uint32_t>{1}));
}

TEST_P(ActiveSetContractTest, OutputParameterIsCleared) {
  auto as = make(4);
  exec::ScopedPid pid(0);
  std::vector<std::uint32_t> out{99, 98};
  as->get_set(out);
  EXPECT_TRUE(out.empty());
  as->join();
  as->get_set(out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0}));
}

TEST_P(ActiveSetContractTest, ConcurrentChurnNeverReturnsGarbage) {
  // Under churn, every returned pid must be a valid process id; the full
  // validity property is checked by the sim-based suite.  Churn volume is
  // iteration-bounded: the Figure 2 algorithm consumes one fresh slot per
  // join for the whole execution, by design (Section 6 leaves recycling
  // open), so time-based loops would exhaust the slot array.
  auto as = make(8);
  constexpr int kWorkers = 4;
  constexpr int kRoundsPerWorker = 100000;
  std::vector<std::thread> workers;
  for (std::uint32_t p = 0; p < kWorkers; ++p) {
    workers.emplace_back([&as, p] {
      exec::ScopedPid pid(p);
      for (int i = 0; i < kRoundsPerWorker; ++i) {
        as->join();
        as->leave();
      }
    });
  }
  {
    exec::ScopedPid pid(7);
    for (int i = 0; i < 2000; ++i) {
      for (std::uint32_t member : as->get_set()) {
        ASSERT_LT(member, 8u);
      }
    }
  }
  for (auto& w : workers) w.join();
}

INSTANTIATE_TEST_SUITE_P(AllImplementations, ActiveSetContractTest,
                         ::testing::ValuesIn(test::active_set_impls()),
                         test::active_set_case_name);

}  // namespace
}  // namespace psnap::activeset
