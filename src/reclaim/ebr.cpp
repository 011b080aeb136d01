#include "reclaim/ebr.h"

#include "common/assert.h"
#include "exec/exec.h"

namespace psnap::reclaim {

namespace {

// Retire-list length that triggers a reclamation attempt.
constexpr std::size_t kReclaimThreshold = 64;

}  // namespace

EbrDomain::EbrDomain() : slots_(exec::kMaxPidCapacity) {}

EbrDomain::~EbrDomain() {
  // Precondition: quiescent.  Free everything outstanding.  The callback
  // receives each node's own slot index: the destroying thread may never
  // have operated on this domain, so it must not need a slot of its own.
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = slots_[s];
    PSNAP_ASSERT_MSG(slot.epoch.load(std::memory_order_relaxed) == kIdle,
                     "EbrDomain destroyed while a thread is pinned");
    for (RetiredNode& node : slot.retired) {
      node.fn(node.ptr, node.ctx, *this, s);
    }
    slot.freed_count.add(slot.retired.size());
    slot.retired.clear();
  }
}

std::uint32_t EbrDomain::thread_slot() {
  // The slot is the pid.  Distinct live threads never share a pid
  // (exec::ThreadRegistry invariant), and a reused pid's slot state is
  // handed over through the registry's release/acquire pair.  A thread
  // must therefore not drop its pid (ThreadHandle destruction) while
  // pinned or mid-operation on this domain.
  std::uint32_t pid = exec::ctx().pid;
  PSNAP_ASSERT_MSG(pid < exec::kMaxPidCapacity, kNoPidMessage);
  Slot& slot = slots_[pid];
  if (!slot.in_use.load(std::memory_order_relaxed)) {
    // Marks the slot live for try_reclaim's walk; never cleared (a slot
    // that held retired nodes stays scannable).  Only the pid's current
    // holder stores here, so the plain store cannot race another writer.
    slot.in_use.store(true, std::memory_order_release);
  }
  return pid;
}

std::uint32_t EbrDomain::enter() {
  std::uint32_t slot_index = thread_slot();
  Slot& slot = slots_[slot_index];
  ++slot.depth;
  if (slot.depth > 1) return slot_index;  // reentrant: already pinned
  // Publish the pinned epoch; re-check so we never pin an epoch that has
  // already been left behind (the classic EBR entry protocol).
  std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  while (true) {
    slot.epoch.store(e, std::memory_order_seq_cst);
    std::uint64_t e2 = global_epoch_.load(std::memory_order_seq_cst);
    if (e2 == e) break;
    e = e2;
  }
  return slot_index;
}

void EbrDomain::exit(std::uint32_t slot_index) {
  Slot& slot = slots_[slot_index];
  PSNAP_ASSERT(slot.depth > 0);
  --slot.depth;
  if (slot.depth > 0) return;
  slot.epoch.store(kIdle, std::memory_order_seq_cst);
  if (slot.retired.size() >= kReclaimThreshold) {
    try_reclaim();
  }
}

EbrDomain::Guard::Guard(EbrDomain& domain)
    : domain_(domain), slot_(domain.enter()) {}

EbrDomain::Guard::~Guard() { domain_.exit(slot_); }

void EbrDomain::retire_raw(void* node, void* ctx, RecycleFn fn) {
  PSNAP_ASSERT(node != nullptr);
  Slot& slot = slots_[thread_slot()];
  slot.retired.push_back(
      RetiredNode{node, ctx, fn,
                  global_epoch_.load(std::memory_order_seq_cst)});
  slot.retired_count.add();
  if (slot.retired.size() >= kReclaimThreshold && slot.depth == 0) {
    try_reclaim();
  }
}

void EbrDomain::try_reclaim() {
  std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  bool can_advance = true;
  for (Slot& slot : slots_) {
    if (!slot.in_use.load(std::memory_order_acquire)) continue;
    std::uint64_t pinned = slot.epoch.load(std::memory_order_seq_cst);
    if (pinned != kIdle && pinned != e) {
      can_advance = false;
      break;
    }
  }
  if (can_advance) {
    // Multiple threads may race here; compare_exchange keeps the epoch from
    // skipping generations.
    std::uint64_t expected = e;
    global_epoch_.compare_exchange_strong(expected, e + 1,
                                          std::memory_order_seq_cst);
  }
  // Free this thread's eligible nodes: retired in an epoch at least two
  // generations behind the current one.
  std::uint64_t now = global_epoch_.load(std::memory_order_seq_cst);
  if (now < 2) return;
  free_eligible(thread_slot(), now - 2);
}

void EbrDomain::free_eligible(std::uint32_t slot_index,
                              std::uint64_t safe_epoch) {
  Slot& slot = slots_[slot_index];
  std::size_t kept = 0;
  for (std::size_t i = 0; i < slot.retired.size(); ++i) {
    RetiredNode& node = slot.retired[i];
    if (node.epoch <= safe_epoch) {
      node.fn(node.ptr, node.ctx, *this, slot_index);
    } else {
      slot.retired[kept++] = node;
    }
  }
  slot.freed_count.add(slot.retired.size() - kept);
  slot.retired.resize(kept);
}

std::uint64_t EbrDomain::retired_count() const {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) total += slot.retired_count.get();
  return total;
}

std::uint64_t EbrDomain::freed_count() const {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) total += slot.freed_count.get();
  return total;
}

}  // namespace psnap::reclaim
