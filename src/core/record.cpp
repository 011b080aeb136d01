#include "core/record.h"

#include <algorithm>
#include <functional>

namespace psnap::core {

void canonicalize(std::vector<std::uint32_t>& indices) {
  if (std::ranges::adjacent_find(indices, std::ranges::greater_equal{}) ==
      indices.end()) {
    return;
  }
  std::ranges::sort(indices);
  indices.erase(std::ranges::unique(indices).begin(), indices.end());
}

}  // namespace psnap::core
