#include "reclaim/hazard.h"

#include <algorithm>
#include <unordered_map>

#include "common/assert.h"
#include "exec/exec.h"

namespace psnap::reclaim {

namespace {

std::uint64_t next_domain_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

// Per-thread cache for ANONYMOUS slots only (see reclaim/ebr.cpp, which
// uses the identical layout): domain id -> slot index.
std::unordered_map<std::uint64_t, std::uint32_t>& slot_cache() {
  thread_local std::unordered_map<std::uint64_t, std::uint32_t> cache;
  return cache;
}

// Floor for the adaptive scan threshold: below this, scans would run so
// often their O(claimed * K) walk dominates.
constexpr std::size_t kMinScanThreshold = 64;

}  // namespace

HazardDomain::HazardDomain()
    : domain_id_(next_domain_id()), slots_(kTotalSlots) {}

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

std::uint32_t HazardDomain::slot_for_this_thread() {
  // Registered threads: the slot is the pid (shared layout with
  // EbrDomain; see reclaim/slots.h for why).
  std::uint32_t pid = exec::ctx().pid;
  if (pid != exec::kInvalidPid) {
    PSNAP_ASSERT_MSG(pid < kPidSlots, "pid exceeds the hazard pid-slot range");
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
  // Anonymous threads: sticky CAS-claimed slots above the pid range.
  auto& cache = slot_cache();
  auto it = cache.find(domain_id_);
  if (it != cache.end()) return it->second;
  for (std::uint32_t i = kPidSlots; i < kTotalSlots; ++i) {
    bool expected = false;
    if (slots_[i].in_use.compare_exchange_strong(expected, true,
                                                 std::memory_order_acq_rel)) {
      claimed_.fetch_add(1, std::memory_order_relaxed);
      cache.emplace(domain_id_, i);
      return i;
    }
  }
  PSNAP_ASSERT_MSG(false, "HazardDomain anonymous-thread capacity exhausted");
  return 0;  // unreachable
}

void* HazardDomain::protect_raw(const std::atomic<void*>& src,
                                std::uint32_t index) {
  PSNAP_ASSERT(index < kHazardsPerThread);
  Slot& slot = slots_[slot_for_this_thread()];
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
  slots_[slot_for_this_thread()].hazards[index].store(
      const_cast<void*>(p), std::memory_order_seq_cst);
}

void HazardDomain::clear(std::uint32_t index) {
  PSNAP_ASSERT(index < kHazardsPerThread);
  slots_[slot_for_this_thread()].hazards[index].store(
      nullptr, std::memory_order_seq_cst);
}

void HazardDomain::clear_all() {
  Slot& slot = slots_[slot_for_this_thread()];
  for (auto& h : slot.hazards) h.store(nullptr, std::memory_order_seq_cst);
}

void HazardDomain::retire_raw(void* node, void* ctx, RecycleFn fn) {
  PSNAP_ASSERT(node != nullptr);
  Slot& slot = slots_[slot_for_this_thread()];
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
  std::uint32_t my_slot = slot_for_this_thread();
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
