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

std::span<const std::uint32_t> canonical_indices(
    std::span<const std::uint32_t> indices,
    std::vector<std::uint32_t>& canonical) {
  if (!indices.empty() &&
      std::ranges::adjacent_find(indices, std::ranges::greater_equal{}) ==
          indices.end()) {
    return indices;
  }
  canonical.assign(indices.begin(), indices.end());
  canonicalize(canonical);
  return canonical;
}

}  // namespace psnap::core
