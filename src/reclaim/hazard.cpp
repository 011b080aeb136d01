#include "reclaim/hazard.h"

#include <algorithm>

#include "common/assert.h"
#include "exec/exec.h"

namespace psnap::reclaim {

namespace {

// Floor for the adaptive scan threshold: below this, scans would run so
// often their O(claimed * K) walk dominates.
constexpr std::size_t kMinScanThreshold = 64;

}  // namespace

HazardDomain::HazardDomain() : slots_(exec::kMaxPidCapacity) {}

HazardDomain::~HazardDomain() {
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = slots_[s];
    for (RetiredNode& node : slot.retired) {
      node.fn(node.ptr, node.ctx, s);
    }
    slot.freed_count.add(slot.retired.size());
    slot.retired.clear();
  }
}

std::uint32_t HazardDomain::thread_slot() {
  // The slot is the pid (shared layout with EbrDomain; see
  // reclaim/slots.h for why).
  std::uint32_t pid = exec::ctx().pid;
  PSNAP_ASSERT_MSG(pid < exec::kMaxPidCapacity, kNoPidMessage);
  Slot& slot = slots_[pid];
  if (!slot.in_use.load(std::memory_order_relaxed)) {
    // Only the pid's current holder stores here, so the plain store
    // cannot race another writer; never cleared (a slot that held
    // retired nodes stays scannable).
    slot.in_use.store(true, std::memory_order_release);
    claimed_.fetch_add(1, std::memory_order_relaxed);
  }
  return pid;
}

void* HazardDomain::protect_raw(const std::atomic<void*>& src,
                                std::uint32_t index) {
  PSNAP_ASSERT(index < kHazardsPerThread);
  Slot& slot = slots_[thread_slot()];
  void* p = src.load(std::memory_order_seq_cst);
  while (true) {
    slot.hazards[index].store(p, std::memory_order_seq_cst);
    void* p2 = src.load(std::memory_order_seq_cst);
    if (p2 == p) return p;
    p = p2;
  }
}

void HazardDomain::set(std::uint32_t index, const void* p) {
  PSNAP_ASSERT(index < kHazardsPerThread);
  slots_[thread_slot()].hazards[index].store(
      const_cast<void*>(p), std::memory_order_seq_cst);
}

void HazardDomain::clear(std::uint32_t index) {
  PSNAP_ASSERT(index < kHazardsPerThread);
  slots_[thread_slot()].hazards[index].store(
      nullptr, std::memory_order_seq_cst);
}

void HazardDomain::clear_all() {
  Slot& slot = slots_[thread_slot()];
  for (auto& h : slot.hazards) h.store(nullptr, std::memory_order_seq_cst);
}

void HazardDomain::retire_raw(void* node, void* ctx, RecycleFn fn) {
  PSNAP_ASSERT(node != nullptr);
  Slot& slot = slots_[thread_slot()];
  slot.retired.push_back(RetiredNode{node, ctx, fn});
  slot.retired_count.add();
  // Michael's amortized bound, scaled to the slots actually claimed
  // rather than the full capacity (see the claimed_ comment in the
  // header): scan when the local list exceeds twice the live hazard
  // capacity, giving amortized O(1) and garbage bounded by
  // O(claimed^2 * K) across all threads.
  std::size_t threshold =
      2 * std::size_t{claimed_.load(std::memory_order_relaxed)} *
      kHazardsPerThread;
  if (slot.retired.size() >= std::max(threshold, kMinScanThreshold)) {
    scan_and_free();
  }
}

void HazardDomain::scan_and_free() {
  std::uint32_t my_slot = thread_slot();
  Slot& mine = slots_[my_slot];
  std::vector<void*>& protected_ptrs = mine.scan_scratch;
  protected_ptrs.clear();
  for (Slot& slot : slots_) {
    if (!slot.in_use.load(std::memory_order_acquire)) continue;
    for (auto& h : slot.hazards) {
      void* p = h.load(std::memory_order_seq_cst);
      if (p != nullptr) protected_ptrs.push_back(p);
    }
  }
  std::sort(protected_ptrs.begin(), protected_ptrs.end());

  std::size_t kept = 0;
  for (std::size_t i = 0; i < mine.retired.size(); ++i) {
    RetiredNode& node = mine.retired[i];
    if (std::binary_search(protected_ptrs.begin(), protected_ptrs.end(),
                           node.ptr)) {
      mine.retired[kept++] = node;
    } else {
      node.fn(node.ptr, node.ctx, my_slot);
    }
  }
  mine.freed_count.add(mine.retired.size() - kept);
  mine.retired.resize(kept);
}

std::uint64_t HazardDomain::retired_count() const {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) total += slot.retired_count.get();
  return total;
}

std::uint64_t HazardDomain::freed_count() const {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) total += slot.freed_count.get();
  return total;
}

}  // namespace psnap::reclaim
