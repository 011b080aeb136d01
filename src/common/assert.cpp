#include "common/assert.h"

#include <cstdio>
#include <cstdlib>

namespace psnap {

void assert_fail(const char* expr, const char* file, int line,
                 const std::string& msg) {
  std::fprintf(stderr, "psnap invariant violated: %s\n  at %s:%d\n", expr,
               file, line);
  if (!msg.empty()) {
    std::fprintf(stderr, "  %s\n", msg.c_str());
  }
  std::fflush(stderr);
  std::abort();
}

}  // namespace psnap
