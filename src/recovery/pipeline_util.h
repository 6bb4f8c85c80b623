// Lock-free plumbing shared by the dispatch/worker pipelines of the
// partitioned recovery passes: DPT construction (recovery/analysis.cc) and
// redo (redo.cc). Both have the same shape — one log-scanning dispatcher
// routing fixed-size items to per-partition consumer threads over bounded
// FIFO queues — so the partition map, the queue and the wait policy live
// here, once. The wait policy also paces the standby's continuous-replay
// thread (core/replica.cc).
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/types.h"

namespace deutero {

/// Stable partition map: which of `n` partitions owns `pid`. Exposed so
/// tests can assert routing invariants.
inline uint32_t RedoPartitionOf(PageId pid, uint32_t n) {
  return static_cast<uint32_t>(
      ((static_cast<uint64_t>(pid) * 0x9E3779B97F4A7C15ull) >> 32) % n);
}

/// Single-producer single-consumer ring. The dispatcher owns the producer
/// side, one worker the consumer side. Capacity is fixed (a power of two);
/// the producer spins (with yields) when full — backpressure, not loss.
/// T must be trivially copyable-assignable; a default-constructed T is
/// conventionally the pipeline's control token.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(size_t capacity_pow2) : buf_(capacity_pow2) {
    assert((capacity_pow2 & (capacity_pow2 - 1)) == 0);
  }

  bool TryPush(const T& item) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head - tail_.load(std::memory_order_acquire) == buf_.size()) {
      return false;
    }
    buf_[head & (buf_.size() - 1)] = item;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  bool TryPop(T* out) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (head_.load(std::memory_order_acquire) == tail) return false;
    *out = buf_[tail & (buf_.size() - 1)];
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

 private:
  std::vector<T> buf_;
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) std::atomic<uint64_t> tail_{0};
};

/// Progressive wait: spin briefly, then yield, then (when the scheduler is
/// clearly starving us — oversubscribed cores, sanitizer slowdown) sleep.
/// Keeps a pipeline thread from burning a core another pipeline thread
/// needs.
inline void SpinWait(uint32_t* spins) {
  ++*spins;
  if (*spins < 32) return;
  if (*spins < 2048) {
    std::this_thread::yield();
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(50));
  *spins = 2048;  // stay in the sleep regime until progress resets us
}

}  // namespace deutero
