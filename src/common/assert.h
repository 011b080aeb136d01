// Always-on invariant checking for a concurrency library.
//
// PSNAP_ASSERT is active in all build types: the algorithms in this library
// encode subtle correctness arguments (linearizability, view-coverage,
// interval invariants) and silently continuing after a violated invariant
// would make every downstream measurement meaningless.  The cost of the
// checks is a branch on a local predicate; none of them read shared memory,
// so they do not perturb step counts.
#pragma once

#include <string>

namespace psnap {

// Aborts the process with a formatted message.  Out-of-line so the assert
// macro stays tiny at call sites.
[[noreturn]] void assert_fail(const char* expr, const char* file, int line,
                              const std::string& msg);

}  // namespace psnap

#define PSNAP_ASSERT(expr)                                              \
  do {                                                                  \
    if (!(expr)) [[unlikely]] {                                         \
      ::psnap::assert_fail(#expr, __FILE__, __LINE__, std::string{});   \
    }                                                                   \
  } while (0)

#define PSNAP_ASSERT_MSG(expr, msg)                                     \
  do {                                                                  \
    if (!(expr)) [[unlikely]] {                                         \
      ::psnap::assert_fail(#expr, __FILE__, __LINE__, (msg));           \
    }                                                                   \
  } while (0)
