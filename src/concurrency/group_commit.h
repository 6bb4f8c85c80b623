// Group-commit pipeline (PR 8). A committing transaction appends its
// commit record under the engine's write gate, releases its locks, and —
// instead of forcing the log itself — enqueues a durability request here
// and blocks. One batcher thread forces the log once per batch:
//
//   * as soon as `max_batch` commits are waiting (size trigger), or
//   * at latest `window_us` of real time after the first waiter of the
//     batch arrived (window trigger),
//
// then wakes every waiter whose commit LSN the stable prefix now covers.
// One log force thus amortizes over the whole batch.
//
// Early lock release is sound because the log flushes in prefix order: any
// transaction that read this commit's writes appended its own commit record
// at a higher LSN, so its durability implies this one's.
//
// Crash semantics: CrashHalt() stops the batcher WITHOUT flushing and fails
// every pending waiter with Status::Aborted — those commits were never
// acknowledged, so after recovery they may legitimately be present (the
// batch made it to the stable prefix) or absent (it did not); the workload
// oracle treats them as uncertain, exactly like a real client whose commit
// RPC never returned.
//
// Allocation behaviour: waiters live in a fixed preallocated slot pool, so
// a steady-state enqueue → batch flush → wake cycle performs zero heap
// allocations per transaction (proved by hotpath_alloc_test).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <thread>

#include "common/mutex.h"
#include "common/status.h"
#include "common/types.h"

namespace deutero {

class GroupCommit {
 public:
  struct Stats {
    uint64_t enqueued = 0;         ///< Durability requests queued.
    uint64_t fast_path = 0;        ///< Already durable at enqueue: no wait.
    uint64_t batches = 0;          ///< Log forces issued by the batcher.
    uint64_t size_triggered = 0;   ///< Batches closed by max_batch.
    uint64_t window_triggered = 0; ///< Batches closed by window expiry.
    uint64_t max_batch_seen = 0;   ///< Largest batch of waiters woken.
  };

  /// `flush` forces the log (taking the engine's write gate) and returns
  /// the resulting stable end; `stable` reads the current stable end
  /// without forcing. `window_us`/`max_batch` as documented above.
  using FlushFn = std::function<Lsn()>;
  using StableFn = std::function<Lsn()>;
  GroupCommit(FlushFn flush, StableFn stable, uint32_t window_us,
              uint32_t max_batch);
  ~GroupCommit();

  GroupCommit(const GroupCommit&) = delete;
  GroupCommit& operator=(const GroupCommit&) = delete;

  /// Start the batcher thread. Idempotent; called at engine open and after
  /// a successful recovery.
  void Start();

  /// Graceful shutdown: flush whatever is pending, wake all waiters, join.
  void Stop();

  /// Crash: join the batcher WITHOUT flushing; every pending waiter fails
  /// with Status::Aborted (its commit was never acknowledged).
  void CrashHalt();

  /// Block until the stable log covers `durable_point` (the first offset
  /// past the caller's commit record). Called WITHOUT the engine gate.
  /// Returns OK when durable, Aborted if the engine crashed first.
  Status WaitDurable(Lsn durable_point);

  Stats stats() const;

 private:
  struct Waiter {
    Lsn target = kInvalidLsn;
    bool in_use = false;
    bool done = false;
    bool failed = false;
  };
  /// Upper bound on concurrently-waiting committers; far above any
  /// plausible client-thread count. Claimants beyond it wait for a slot.
  static constexpr size_t kMaxWaiters = 256;

  void BatcherLoop() EXCLUDES(mu_);
  /// Mark satisfied waiters done; returns how many were woken.
  size_t WakeCovered(Lsn stable) REQUIRES(mu_);

  const FlushFn flush_;
  const StableFn stable_;
  const uint32_t window_us_;
  const uint32_t max_batch_;

  mutable Mutex mu_;
  CondVar batcher_cv_;  ///< Waiter -> batcher: work arrived.
  CondVar done_cv_;     ///< Batcher -> waiters: results.
  std::array<Waiter, kMaxWaiters> waiters_ GUARDED_BY(mu_);
  size_t pending_ GUARDED_BY(mu_) = 0;  ///< Enqueued and not yet done.
  bool running_ GUARDED_BY(mu_) = false;
  bool stop_ GUARDED_BY(mu_) = false;
  bool crashed_ GUARDED_BY(mu_) = false;
  Stats stats_ GUARDED_BY(mu_);
  /// Written in Start(), joined in Stop()/CrashHalt() — all serialized by
  /// the engine's lifecycle (no concurrent Start/Stop), never touched by
  /// the batcher itself, so it stays outside mu_.
  std::thread thread_;
};

}  // namespace deutero
