#include "core/scan_context.h"

#include <algorithm>

#include "common/assert.h"
#include "common/padding.h"
#include "exec/capacity.h"
#include "exec/exec.h"

namespace psnap::core {

namespace {

constexpr std::size_t kMinBlockBytes = 4096;

// One context per pid, padded so adjacent pids (which run on different
// cores) never share a line.  A released pid's capacity passes to its next
// holder through the registry's release/acquire hand-off, as an EBR slot's
// retired list does.
CachelinePadded<ScanContext> scan_contexts[exec::kMaxPidCapacity];

}  // namespace

void* ScanArena::take_bytes(std::size_t bytes, std::size_t align) {
  PSNAP_ASSERT(bytes > 0);
  // Walk forward from the current block until one fits; alignment is
  // handled by bumping `used` up to the next boundary (block bases are
  // max-aligned by operator new[]).
  while (current_ < blocks_.size()) {
    Block& block = blocks_[current_];
    std::size_t aligned = (block.used + align - 1) & ~(align - 1);
    if (aligned + bytes <= block.size) {
      block.used = aligned + bytes;
      return block.data.get() + aligned;
    }
    ++current_;
  }
  std::size_t size = std::max(
      {bytes, kMinBlockBytes,
       blocks_.empty() ? std::size_t{0} : blocks_.back().size * 2});
  blocks_.push_back(Block{std::make_unique<std::byte[]>(size), size, bytes});
  current_ = blocks_.size() - 1;
  return blocks_.back().data.get();
}

void ScanArena::reset() {
  for (Block& block : blocks_) block.used = 0;
  current_ = 0;
}

std::size_t ScanArena::allocated_bytes() const {
  std::size_t total = 0;
  for (const Block& block : blocks_) total += block.size;
  return total;
}

ScanContext& pid_scan_context() {
  const std::uint32_t pid = exec::ctx().pid;
  PSNAP_ASSERT_MSG(pid < exec::kMaxPidCapacity,
                   "the scan scratch is per pid: register the thread through "
                   "exec::ThreadHandle or exec::ScopedPid first");
  return scan_contexts[pid].value;
}

}  // namespace psnap::core
