// The versioned value plane's primitives: version chains and the camera.
//
// Wei, Fatourou & Ben-David ("Constant-Time Snapshots with Applications to
// Concurrent Data Structures", PAPERS.md) take a snapshot in O(1) by
// fetch-adding a global epoch counter -- the CAMERA -- and resolving reads
// lazily against per-location VERSION CHAINS: each publication carries an
// immutable node {value, version, prev}, and a reader with epoch s walks
// prev pointers to the newest node whose version is <= s.  This header
// holds the pieces the snapshot implementations share:
//
//   * the publish-then-stamp protocol.  A node is published with
//     version = kUnstamped and its version is FIXED afterwards by a CAS
//     from kUnstamped to a camera read.  Anyone who needs the version --
//     the publisher itself, a later updater displacing the node, a reader
//     deciding which side of its epoch the node falls on -- helps stamp
//     first (ensure_stamped), so the fix is unique and an updater stalled
//     between publish and stamp never blocks a reader.  An update
//     linearizes at its stamp fix; a scan linearizes at its camera
//     fetch-add.
//
//   * the chain invariant the walk's termination rests on: an updater
//     help-stamps the node it displaces BEFORE publishing over it, so
//     stamps never decrease along publication order -- walking prev the
//     versions are non-increasing, and every chain is rooted in an initial
//     node stamped 0 (< every epoch: the camera starts at 1).
//
//   * the consistency argument: a stamp is a camera read, so every stamp
//     fixed before a scan's fetch-add is <= that scan's epoch s, and every
//     stamp fixed after it is > s.  The values a scan extracts -- newest
//     node with version <= s per component -- were therefore all
//     simultaneously current at the instant of the fetch-add.
//
//   * reclamation (lazy chain trimming): after publishing N over H, the
//     only nodes of the chain a future reader can still reach are N and H
//     -- a reader pinned after the publication starts its walk at N (or
//     newer) and stops at the first node with version <= its epoch, which
//     is at latest H, because H's stamp was fixed before N was published
//     and hence before any later epoch.  So the updater retires H.prev
//     through the pool and the live unretired set per component is always
//     exactly {head, head->prev}; readers that raced the publication are
//     protected by the EBR grace period.  Steady state stays
//     zero-allocation: one node acquired, one retired, per update.
//
// Every shared access here is one base-object step under the Instrumented
// policy (the version word is a CAS object, prev is a register, the camera
// is the paper's fetch&increment), so the sim scheduler interleaves the
// versioned algorithms exactly like the collect-based ones.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "exec/exec.h"
#include "primitives/primitives.h"

namespace psnap::primitives {

// A published-but-not-yet-stamped version (see publish-then-stamp above).
inline constexpr std::uint64_t kUnstamped = ~std::uint64_t{0};

// --- batched publication (update_batch on the versioned plane) ---
//
// A k-entry batch publishes k nodes that must carry ONE stamp, fixed only
// after ALL k are installed -- that is what makes the batch atomic: a
// scan's epoch e either satisfies e >= stamp (the stamp was fixed, hence
// every entry installed, before the scan's fetch-add, so the scan sees all
// k new values) or e < stamp (it sees none of them).  The shared stamp
// lives in a BATCH DESCRIPTOR the member nodes point at; anyone who needs
// a member's version while the descriptor is unresolved -- a reader's
// chain walk, an updater displacing a member -- first helps the batch to
// completion through resolve() (install every pending entry, then fix the
// shared stamp), exactly like ensure_stamped helps a stalled singleton.
//
// Descriptors outlive their batch by an EBR grace period (pool-recycled by
// the owner after it has copied the shared stamp into every member's own
// version word), so the member fast path never touches the descriptor
// again once stamped.
class BatchControl {
 public:
  // Ensures every entry of the batch is installed and `version` is fixed.
  // Figure 3 resolves through batch_install_and_resolve below (lock-free
  // install helping); after resolve() returns, version != kUnstamped.
  virtual void resolve() const = 0;

  // The shared stamp; kUnstamped until resolve() fixes it.
  mutable std::atomic<std::uint64_t> version{kUnstamped};

 protected:
  ~BatchControl() = default;  // owned and destroyed as the concrete type
};

// Stamp carried by pre-installed initial nodes; the camera starts at 1, so
// an initial node is older than every epoch ever handed out.
inline constexpr std::uint64_t kInitialVersion = 0;

// The camera: a fetch&increment object whose value is the next epoch to be
// handed out.  new_epoch() atomically claims the current value (one F&I
// step); now() reads it (one register-kind step on the F&I object).
template <class Policy = Instrumented>
class VersionCamera {
 public:
  // A scan's epoch: all stamps fixed before this fetch-add are <= the
  // returned value, all fixed after are > it.
  std::uint64_t new_epoch() { return fai_.fetch_increment() - 1; }

  // The stamp value for a node published before this read.
  std::uint64_t now() { return fai_.read(); }

 private:
  FetchIncrementT<Policy> fai_{1};
};

// Empty stand-in so non-versioned instantiations carry no camera
// ([[no_unique_address]] member via std::conditional_t).
struct NoCamera {};

// --- chain accessors (one step each; Node is any record with atomic
// `version`, `prev` and `batch` fields, e.g. core::VersionedRecordT) ---

template <class Policy, class Node>
std::uint64_t version_of(const Node& node) {
  if constexpr (Policy::kCountsSteps) {
    exec::on_step(exec::ObjKind::kCas);
  }
  return node.version.load(Policy::kLoad);
}

// Fixes an unstamped node's version to `stamp`; returns the version the
// node ended up with (the existing one if another stamper won).
template <class Policy, class Node>
std::uint64_t stamp_version(const Node& node, std::uint64_t stamp) {
  if constexpr (Policy::kCountsSteps) {
    exec::on_step(exec::ObjKind::kCas);
  }
  std::uint64_t expected = kUnstamped;
  if (node.version.compare_exchange_strong(expected, stamp, Policy::kRmw,
                                           Policy::kCasFailure)) {
    return stamp;
  }
  return expected;
}

template <class Policy, class Node>
const Node* prev_of(const Node& node) {
  if constexpr (Policy::kCountsSteps) {
    exec::on_step(exec::ObjKind::kRegister);
  }
  return node.prev.load(Policy::kLoad);
}

// The helping primitive: returns the node's fixed version, stamping it
// from the camera first if it is still unstamped.  Used by updaters on the
// node they displace (before publishing over it), by publishers on their
// own node (after publishing), and by readers on any node whose epoch side
// they must decide.
//
// Batch members route through their descriptor: the batch is first helped
// to completion (resolve installs every pending entry, then fixes the
// shared stamp), and the member is stamped FROM the shared word -- every
// stamper of every member therefore proposes the same value, which is the
// whole-batch atomicity.
template <class Policy, class Node, class Camera>
std::uint64_t ensure_stamped(const Node& node, Camera& camera) {
  std::uint64_t version = version_of<Policy>(node);
  if (version != kUnstamped) return version;
  if (const BatchControl* batch =
          node.batch.load(std::memory_order_acquire)) {
    batch->resolve();
    return stamp_version<Policy>(
        node, batch->version.load(std::memory_order_acquire));
  }
  return stamp_version<Policy>(node, camera.now());
}

// The reader's walk: newest node with version <= epoch, starting from a
// head loaded under the caller's EBR pin and after its fetch-add.  Those
// two facts are all the walk needs of the head load, so a caller may
// batch and reorder its head loads around other components' walks (the
// fig3 versioned scan loads the next block's heads before it walks the
// current block's chains).  Terminates at latest at the
// chain's initial node (version 0); every prev it dereferences belongs to
// a node stamped AFTER the caller's fetch-add (version > epoch), whose
// displacement -- and hence whose prev's retirement -- came after the
// caller's pin, so the grace period protects the whole walk.  `walked`
// counts visited nodes (chain-length observability for tests/benches).
template <class Policy, class Node, class Camera>
const Node* chain_read(const Node* head, std::uint64_t epoch, Camera& camera,
                       std::uint64_t& walked) {
  const Node* node = head;
  while (true) {
    ++walked;
    if (ensure_stamped<Policy>(*node, camera) <= epoch) return node;
    node = prev_of<Policy>(*node);
  }
}

// --- the batch descriptor's entry table and install engine ---

// One entry of a batch descriptor.  `installed` flips false->true exactly
// once, when the node lands in its component's cell.
template <class Node>
struct BatchSlotT {
  std::uint32_t index = 0;
  Node* node = nullptr;
  std::atomic<bool> installed{false};
};

// The descriptor's entry storage: a capacity-reusing array (atomics make
// BatchSlotT immovable, so std::vector cannot hold it).  reset(k)
// allocates only when k exceeds every previous batch's size -- steady
// state stays allocation-free, like the record pools.
template <class Node>
class BatchSlots {
 public:
  BatchSlotT<Node>* begin() { return data_.get(); }
  BatchSlotT<Node>* data() const { return data_.get(); }
  std::uint32_t size() const { return size_; }
  BatchSlotT<Node>& operator[](std::uint32_t i) { return data_[i]; }
  const BatchSlotT<Node>& operator[](std::uint32_t i) const {
    return data_[i];
  }

  void reset(std::uint32_t count) {
    if (count > capacity_) {
      data_ = std::make_unique<BatchSlotT<Node>[]>(count);
      capacity_ = count;
    }
    size_ = count;
    for (std::uint32_t i = 0; i < count; ++i) {
      data_[i].index = 0;
      data_[i].node = nullptr;
      data_[i].installed.store(false, std::memory_order_relaxed);
    }
  }

 private:
  std::unique_ptr<BatchSlotT<Node>[]> data_;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;
};

// Installs every pending entry of a batch (owner and helpers run the same
// loop), then fixes the shared stamp.
//
//   * entries are sorted ascending by component index and installed in
//     that order, and a slot's flag flips only after every lower slot's
//     did -- so when helping chains recurse (installing over a head that
//     is itself an unresolved batch member calls ensure_stamped, hence
//     resolve, on THAT batch), the component index strictly increases
//     along the chain and the recursion depth is bounded by m.  This is
//     the MCAS address-ordering argument.
//
//   * an entry's predecessor is agreed through node->prev (CAS nullptr ->
//     head): the first proposer fixes which head the installers CAS over.
//     A failed cell CAS either returns our own node (another helper just
//     won: mark installed and stop) or a foreign head -- and in the latter
//     case the entry, if it HAD been installed, was already displaced,
//     which required the displacer to resolve this batch first (it
//     ensure_stamped the head it displaced), so re-checking `installed`
//     after the failure is guaranteed to see true before the stale
//     proposal could be retracted from a published node.  Only a genuinely
//     uninstalled entry ever has its proposal reset.
//
//   * every proposal is help-stamped before the cell CAS, preserving the
//     chain's never-decreasing stamp order; the shared stamp, taken after
//     the last install, is >= all of them.
//
//   * ABA-safety: callers run pinned, so a displaced head cannot be
//     recycled into a fresh publication while any helper still holds its
//     pointer.
//
// `cell_at(index)` returns the component's CAS cell (load() /
// compare_and_swap(expected, desired) -> previous); `trim(displaced)` is
// called once per installed entry with the head it displaced (the lazy
// chain-trim hook).
template <class Policy, class Node, class Camera, class CellAt, class Trim>
void batch_install_and_resolve(BatchSlotT<Node>* slots, std::uint32_t count,
                               const BatchControl& control, Camera& camera,
                               CellAt&& cell_at, Trim&& trim) {
  for (std::uint32_t e = 0; e < count; ++e) {
    BatchSlotT<Node>& slot = slots[e];
    Node* node = slot.node;
    while (!slot.installed.load(std::memory_order_acquire)) {
      const Node* proposed = node->prev.load(std::memory_order_acquire);
      if (proposed == nullptr) {
        const Node* head = cell_at(slot.index).load();
        ensure_stamped<Policy>(*head, camera);
        const Node* expected = nullptr;
        node->prev.compare_exchange_strong(expected, head,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire);
        continue;  // re-read the agreed proposal
      }
      const Node* was = cell_at(slot.index).compare_and_swap(proposed, node);
      if (was == proposed) {
        slot.installed.store(true, std::memory_order_release);
        trim(proposed);
        break;
      }
      if (was == node) {
        // Another helper's install landed between our proposal read and
        // our CAS; publish the flag on its behalf and move on.
        slot.installed.store(true, std::memory_order_release);
        break;
      }
      if (slot.installed.load(std::memory_order_acquire)) break;
      // Stale proposal on an uninstalled entry: retract it (first
      // retractor wins; losers just loop) and retry against the new head.
      const Node* stale = proposed;
      node->prev.compare_exchange_strong(stale, nullptr,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire);
    }
  }
  // All entries installed: fix the shared stamp (the batch's linearization
  // point, unless a racing helper already fixed it).
  if (control.version.load(std::memory_order_acquire) == kUnstamped) {
    if constexpr (Policy::kCountsSteps) {
      exec::on_step(exec::ObjKind::kCas);
    }
    std::uint64_t expected = kUnstamped;
    control.version.compare_exchange_strong(expected, camera.now(),
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire);
  }
}

}  // namespace psnap::primitives
