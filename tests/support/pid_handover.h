// Real-thread harness for per-slot state keyed by pid.
//
// The reclamation domains keep their counters and retired lists in the
// slot of a registered thread's pid, with one writer per slot.  A pid that
// is released and re-acquired hands its slot to the next holder through
// the registry's release/acquire pair; this harness makes that hand-over
// happen mid-run, next to other threads working on the same domain.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "exec/thread_registry.h"

namespace psnap::test {

// Runs `threads` registered threads that each call work(per_thread)
// in total.  Thread 0 calls work(per_thread / 2), releases its pid, and a
// fresh thread re-acquires that same pid for the rest.  Every other thread
// holds its pid until the hand-over is done, so the released pid is the
// only one free.  Pids are 0..threads-1; returns once all have exited.
template <class Work>
void run_threads_with_pid_handover(std::uint32_t threads, int per_thread,
                                   Work work) {
  exec::ThreadRegistry registry(threads);
  std::atomic<std::uint32_t> registered{0};
  std::atomic<bool> handed_over{false};
  std::vector<std::thread> workers;
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      if (t != 0) {
        exec::ThreadHandle handle(registry);
        registered.fetch_add(1);
        work(per_thread);
        while (!handed_over) std::this_thread::yield();
        return;
      }
      std::uint32_t released;
      {
        exec::ThreadHandle handle(registry);
        released = handle.pid();
        registered.fetch_add(1);
        while (registered < threads) std::this_thread::yield();
        work(per_thread / 2);
      }
      std::thread successor([&] {
        exec::ThreadHandle handle(registry);
        EXPECT_EQ(handle.pid(), released);
        work(per_thread - per_thread / 2);
      });
      successor.join();
      handed_over = true;
    });
  }
  for (auto& worker : workers) worker.join();
}

}  // namespace psnap::test
