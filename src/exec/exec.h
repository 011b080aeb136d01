// Execution layer: step accounting and scheduling hooks.
//
// The paper measures algorithms in *steps*: accesses to linearizable shared
// base objects (registers, compare&swap objects, fetch&increment objects).
// Every primitive in src/primitives calls exec::on_step() exactly once per
// base-object operation.  In a native run this bumps thread-local counters,
// which is how the benchmark harness reproduces the step-complexity bounds
// of Theorems 1-3.  In a simulated run a SimHook is installed and each step
// becomes a scheduling point for the deterministic scheduler in src/runtime,
// which is how the linearizability tests enumerate interleavings.
//
// The same algorithm implementations serve both modes; nothing in
// src/activeset or src/core knows which mode it is running under.
#pragma once

#include <cstdint>
#include <vector>

#include "core/op_stats.h"

namespace psnap::exec {

// Kinds of shared base objects, for per-kind step breakdowns.
enum class ObjKind : std::uint8_t {
  kRegister = 0,  // read/write register
  kCas = 1,       // compare&swap object
  kFai = 2,       // fetch&increment object
  kNumKinds = 3,
};

inline constexpr std::size_t kNumObjKinds =
    static_cast<std::size_t>(ObjKind::kNumKinds);

// Label attached to a base object for access-set tests (e.g. "scan must not
// touch components outside its argument set").  kNoLabel objects are
// bookkeeping (announcements, active-set state) and are exempt.
inline constexpr std::uint64_t kNoLabel = ~std::uint64_t{0};

struct StepCounters {
  std::uint64_t by_kind[kNumObjKinds] = {};
  std::uint64_t total = 0;

  void reset() { *this = StepCounters{}; }

  StepCounters operator-(const StepCounters& rhs) const {
    StepCounters out;
    for (std::size_t k = 0; k < kNumObjKinds; ++k) {
      out.by_kind[k] = by_kind[k] - rhs.by_kind[k];
    }
    out.total = total - rhs.total;
    return out;
  }
};

// Installed by the deterministic scheduler; each base-object step parks the
// calling thread until the scheduler grants it.
class SimHook {
 public:
  virtual ~SimHook() = default;
  virtual void on_step(ObjKind kind, std::uint64_t label) = 0;
};

// Installed by locality tests to record which labelled objects an operation
// touched.
class AccessLogger {
 public:
  virtual ~AccessLogger() = default;
  virtual void on_access(ObjKind kind, std::uint64_t label) = 0;
};

inline constexpr std::uint32_t kInvalidPid = ~std::uint32_t{0};

// Per-thread execution context, the library's one thread-local object.  pid
// identifies the logical process; it must be set (exec::ThreadHandle or
// exec::ScopedPid) before invoking any algorithm operation.  Every other
// piece of per-process state -- announcement registers, EBR and hazard
// slots, pool free lists, the scan scratch (core::pid_scan_context()) --
// lives in a table indexed by pid, so it follows the pid, not the thread.
// What stays here belongs to the thread: its step counts, the installed
// hook and logger, and its last operation's stats.
struct ThreadCtx {
  std::uint32_t pid = kInvalidPid;
  StepCounters steps;
  SimHook* hook = nullptr;
  AccessLogger* logger = nullptr;
  // The calling thread's most recent operation (core::tls_op_stats()).
  core::OpStats op_stats;
};

ThreadCtx& ctx();

// One call per base-object operation.  Keep inline: this is on every hot
// path in the library.
inline void on_step(ObjKind kind, std::uint64_t label = kNoLabel) {
  ThreadCtx& c = ctx();
  ++c.steps.total;
  ++c.steps.by_kind[static_cast<std::size_t>(kind)];
  if (c.logger != nullptr) [[unlikely]] {
    c.logger->on_access(kind, label);
  }
  if (c.hook != nullptr) [[unlikely]] {
    c.hook->on_step(kind, label);
  }
}

// RAII process-id assignment for native threads.  Asserts the thread did
// not already carry a pid, so nesting bugs fail fast.
class ScopedPid {
 public:
  explicit ScopedPid(std::uint32_t pid);
  ~ScopedPid();

  ScopedPid(const ScopedPid&) = delete;
  ScopedPid& operator=(const ScopedPid&) = delete;

 private:
  std::uint32_t saved_;
};

// RAII access-logger installation.
class ScopedLogger {
 public:
  explicit ScopedLogger(AccessLogger* logger);
  ~ScopedLogger();

  ScopedLogger(const ScopedLogger&) = delete;
  ScopedLogger& operator=(const ScopedLogger&) = delete;

 private:
  AccessLogger* saved_;
};

// Simple vector-recording logger for tests.
class RecordingLogger final : public AccessLogger {
 public:
  struct Access {
    ObjKind kind;
    std::uint64_t label;
  };

  void on_access(ObjKind kind, std::uint64_t label) override {
    accesses_.push_back({kind, label});
  }

  const std::vector<Access>& accesses() const { return accesses_; }
  void clear() { accesses_.clear(); }

 private:
  std::vector<Access> accesses_;
};

}  // namespace psnap::exec
