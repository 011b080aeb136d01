// Linearizable shared base objects, parameterized over a runtime policy.
//
// These are the paper's model-level primitives (Section 2 / Section 4):
// read/write registers, compare&swap objects, and fetch&increment objects.
// Each is a template over a *runtime policy* selecting one of two
// compile-time runtimes:
//
//   * Instrumented (the default, used by every theorem bench, sim test,
//     and crash sweep): every operation is a single std::atomic operation
//     with seq_cst ordering -- so the implementation really is
//     linearizable at the hardware level with no further argument -- and
//     reports exactly one "step" to the execution layer, the unit in which
//     Theorems 1-3 are stated and in which our benches measure.  Steps are
//     also the scheduling points of the deterministic simulator.
//
//   * Release (the `*_fast` registry entries): no step accounting, no
//     sim/logger hooks, and acquire/release publication instead of
//     seq_cst.  The downgrades are sound for THIS library's usage pattern,
//     argued per operation below and tabulated in README.md ("The two
//     runtimes"); the short form is that every algorithm here synchronizes
//     by publishing immutable heap records through single atomic words
//     (message passing), and never decides anything from a Dekker-style
//     store-load race between two locations.  RMWs (exchange, CAS, F&I)
//     keep acq_rel, so they still read the newest value in each location's
//     modification order.
//
// Objects may carry a label (component index) so locality tests can assert
// which components an operation touched.  Labels are only observable
// through the instrumentation hooks, so the Release runtime ignores them.
#pragma once

#include <atomic>
#include <cstdint>

#include "exec/exec.h"

namespace psnap::primitives {

// ---------------------------------------------------------------------------
// Runtime policies.
// ---------------------------------------------------------------------------

// The paper's model: seq_cst base objects, one exec step per operation.
// Every operation is already globally ordered, so the protocol fence
// (below) is a no-op here.
struct Instrumented {
  static constexpr bool kCountsSteps = true;
  static constexpr bool kNeedsProtocolFence = false;
  static constexpr std::memory_order kLoad = std::memory_order_seq_cst;
  static constexpr std::memory_order kStore = std::memory_order_seq_cst;
  static constexpr std::memory_order kRmw = std::memory_order_seq_cst;
  static constexpr std::memory_order kCasFailure = std::memory_order_seq_cst;
};

// The wall-clock runtime: acquire/release publication, no accounting.
// Loads are acquire because every loaded pointer may be dereferenced
// (records are immutable and fully built before the release publication,
// the classic message-passing pattern).  Stores are release for the same
// reason.  RMWs are acq_rel: they publish a new record (release) and the
// returned previous value may be dereferenced or retired (acquire).
//
// One synchronization pattern in the snapshot algorithms is NOT covered
// by acquire/release: the announce/join-vs-getSet handshake is
// Dekker-shaped.  A scanner STOREs its announcement and joins, then LOADs
// components; an updater LOADs the active set after LOADing its
// component.  The condition-(2) borrow proof needs "an update whose
// embedded scan began after my join sees my announcement", i.e. the
// scanner's stores must be ordered before its own subsequent loads --
// store-load ordering, the one thing release+acquire never gives (the
// scanner's join can sit in its store buffer while its collects run).
// Policies with kNeedsProtocolFence request an explicit seq_cst fence at
// the scanner's end of that handshake (after announce+join, before the
// first collect): architecturally, the fence drains the store buffer, so
// the join is globally visible before any collect load executes, and a
// getSet walk -- whose loads read coherent memory, via load_sync below --
// that runs after that point must see it.  One fence per scan (updates
// pay none) instead of seq_cst ordering on every step.  This is an
// architectural argument (TSO / ARMv8 barrier semantics), not a pure
// C++-abstract-machine proof; the Instrumented runtime remains the
// formally seq_cst model and everything that reasons about correctness
// (sim tests, crash sweeps) runs on it.
struct Release {
  static constexpr bool kCountsSteps = false;
  static constexpr bool kNeedsProtocolFence = true;
  static constexpr std::memory_order kLoad = std::memory_order_acquire;
  static constexpr std::memory_order kStore = std::memory_order_release;
  static constexpr std::memory_order kRmw = std::memory_order_acq_rel;
  static constexpr std::memory_order kCasFailure = std::memory_order_acquire;
};

#if defined(__SANITIZE_THREAD__)
#define PSNAP_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PSNAP_TSAN 1
#endif
#endif

// The Dekker-point fence (see Release above).  Call sites mark the
// scanner's end of the announce/join-vs-getSet handshake; no-op for
// policies whose every operation is already seq_cst.
template <class Policy>
inline void protocol_fence() {
  if constexpr (Policy::kNeedsProtocolFence) {
#if defined(PSNAP_TSAN)
    // TSan cannot instrument atomic_thread_fence (GCC hard-errors under
    // -Wtsan -Werror).  A seq_cst RMW stands in: every shared access in
    // this library is an atomic TSan models directly, so the fence's only
    // job under TSan is to exist without breaking the build.
    static std::atomic<unsigned> fence_surrogate{0};
    fence_surrogate.fetch_add(1, std::memory_order_seq_cst);
#else
    std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
  }
}

// Atomic read/write register.  T must be a type std::atomic supports
// natively (we use pointers and 64-bit integers throughout).
template <class T, class Policy = Instrumented>
class Register {
 public:
  Register() : value_(T{}) {}
  explicit Register(T initial, std::uint64_t label = exec::kNoLabel)
      : value_(initial), label_(label) {}

  // Construction-phase initialization (before the object is shared); not a
  // step.  Registers live in vectors, and std::atomic makes them
  // non-assignable, so containers default-construct and then init().
  void init(T initial, std::uint64_t label = exec::kNoLabel) {
    value_.store(initial, std::memory_order_relaxed);
    label_ = label;
  }

  void set_label(std::uint64_t label) { label_ = label; }

  T load() const {
    if constexpr (Policy::kCountsSteps) {
      exec::on_step(exec::ObjKind::kRegister, label_);
    }
    return value_.load(Policy::kLoad);
  }

  void store(T desired) {
    if constexpr (Policy::kCountsSteps) {
      exec::on_step(exec::ObjKind::kRegister, label_);
    }
    value_.store(desired, Policy::kStore);
  }

  // Atomic swap.  Counted as one register step: the algorithms use it only
  // where the paper writes a plain write, and the returned previous value
  // is used purely for memory reclamation (retire-exactly-once), never for
  // synchronization decisions.  See RegisterPartialSnapshot::update.
  T exchange(T desired) {
    if constexpr (Policy::kCountsSteps) {
      exec::on_step(exec::ObjKind::kRegister, label_);
    }
    return value_.exchange(desired, Policy::kRmw);
  }

  // Handshake read: the getSet end of the announce/join-vs-getSet
  // handshake (see Release above).  seq_cst in BOTH runtimes -- the same
  // instruction as an acquire load on x86 and AArch64, so the Release
  // runtime pays nothing -- and one ordinary step in the instrumented
  // runtime.  Used for the active-set membership walks, whose loads must
  // observe any join a scanner fenced before them.
  T load_sync() const {
    if constexpr (Policy::kCountsSteps) {
      exec::on_step(exec::ObjKind::kRegister, label_);
    }
    return value_.load(std::memory_order_seq_cst);
  }

  // Non-step read: does not count a step or act as a schedule point.  For
  // tests, destructors, and a process reading its OWN single-writer
  // register (re-reading local state the process itself wrote is not a
  // shared-object step in the paper's model -- see the announcement reuse
  // in cas_psnap.cpp / register_psnap.cpp).  Relaxed in both runtimes:
  // every use is either same-thread (reading our own last store, which
  // program order already orders) or externally synchronized (destructors
  // run quiescent, after the owning threads were joined).
  T peek() const { return value_.load(std::memory_order_relaxed); }

  // Non-step VALIDATION read: seq_cst, no step, no schedule point.  The
  // hazard-pointer plane publishes a hazard and must then re-read the
  // source to confirm the pointer did not move before the publication
  // became visible (Michael's protect protocol).  The re-read is not one
  // of the paper's steps -- the operation's counted step is the initial
  // load being validated -- but it needs seq_cst so it is ordered after
  // the hazard store it validates.
  T peek_sync() const { return value_.load(std::memory_order_seq_cst); }

 private:
  std::atomic<T> value_;
  std::uint64_t label_ = exec::kNoLabel;
};

// compare&swap object (Section 4): holds a value; compare_and_swap(old,new)
// installs new iff the current value equals old, returning the previous
// value.  We also expose the boolean-success form used in Figure 3.
template <class T, class Policy = Instrumented>
class CasObject {
 public:
  CasObject() : value_(T{}) {}
  explicit CasObject(T initial, std::uint64_t label = exec::kNoLabel)
      : value_(initial), label_(label) {}

  // Construction-phase initialization; see Register::init.
  void init(T initial, std::uint64_t label = exec::kNoLabel) {
    value_.store(initial, std::memory_order_relaxed);
    label_ = label;
  }

  void set_label(std::uint64_t label) { label_ = label; }

  T load() const {
    if constexpr (Policy::kCountsSteps) {
      exec::on_step(exec::ObjKind::kCas, label_);
    }
    return value_.load(Policy::kLoad);
  }

  // Returns the value held immediately before the operation (the paper's
  // interface).  The swap happened iff the return value equals `expected`.
  T compare_and_swap(T expected, T desired) {
    if constexpr (Policy::kCountsSteps) {
      exec::on_step(exec::ObjKind::kCas, label_);
    }
    T prev = expected;
    value_.compare_exchange_strong(prev, desired, Policy::kRmw,
                                   Policy::kCasFailure);
    return prev;
  }

  bool compare_and_swap_bool(T expected, T desired) {
    return compare_and_swap(expected, desired) == expected;
  }

  // Non-step read.  Acquire (not relaxed): unlike Register::peek, one use
  // crosses threads and dereferences -- FaiCasActiveSet::
  // published_intervals() peeks the skip-list pointer published by another
  // thread's CAS and reads the IntervalSet behind it.  Acquire pairs with
  // that publication; it is still fence-free on x86 and a plain ldar on
  // AArch64, never a full seq_cst barrier.
  T peek() const { return value_.load(std::memory_order_acquire); }

  // Non-step validation read for the hazard-pointer protect protocol; see
  // Register::peek_sync.
  T peek_sync() const { return value_.load(std::memory_order_seq_cst); }

 private:
  std::atomic<T> value_;
  std::uint64_t label_ = exec::kNoLabel;
};

// fetch&increment object (Section 4): atomically increments and returns the
// *new* value; also readable without modification (the paper assumes this).
template <class Policy = Instrumented>
class FetchIncrementT {
 public:
  FetchIncrementT() = default;
  explicit FetchIncrementT(std::uint64_t initial,
                           std::uint64_t label = exec::kNoLabel)
      : value_(initial), label_(label) {}

  std::uint64_t fetch_increment() {
    if constexpr (Policy::kCountsSteps) {
      exec::on_step(exec::ObjKind::kFai, label_);
    }
    return value_.fetch_add(1, Policy::kRmw) + 1;
  }

  std::uint64_t read() const {
    if constexpr (Policy::kCountsSteps) {
      exec::on_step(exec::ObjKind::kFai, label_);
    }
    return value_.load(Policy::kLoad);
  }

  // Non-step read; relaxed, used only by tests and observability accessors
  // (slots_used) where the value is a plain counter, never dereferenced.
  std::uint64_t peek() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
  std::uint64_t label_ = exec::kNoLabel;
};

// The historical (and still most common) spelling: the instrumented F&I.
using FetchIncrement = FetchIncrementT<Instrumented>;

}  // namespace psnap::primitives
