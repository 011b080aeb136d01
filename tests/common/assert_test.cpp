#include "common/assert.h"

#include <gtest/gtest.h>

namespace psnap {
namespace {

TEST(Assert, PassingAssertIsSilent) {
  PSNAP_ASSERT(1 + 1 == 2);
  PSNAP_ASSERT_MSG(true, "never shown");
}

TEST(AssertDeathTest, FailingAssertAborts) {
  EXPECT_DEATH(PSNAP_ASSERT(1 == 2), "invariant violated");
}

TEST(AssertDeathTest, MessageIncluded) {
  EXPECT_DEATH(PSNAP_ASSERT_MSG(false, "the-details"), "the-details");
}

}  // namespace
}  // namespace psnap
