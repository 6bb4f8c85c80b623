// Concurrent transaction front end (PR 8): atomic log-space reservation,
// the group-commit batcher, the sharded lock manager, and the N-writer
// crash storm. The storm is the acceptance test of the whole subsystem —
// four client threads produce ONE interleaved log through group commit,
// the engine crashes mid-flight, and the crash image must recover
// byte-identically under all five methods × recovery_threads {1,2,4}.
//
// Everything here is real-thread concurrent; the suite is part of the TSan
// CI job, so any data race in the front end fails the build twice over.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "concurrency/group_commit.h"
#include "concurrency/sharded_lock_manager.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "sim/clock.h"
#include "tc/lock_manager.h"
#include "test_util.h"
#include "wal/log_manager.h"
#include "workload/concurrent_driver.h"
#include "workload/crash_storm.h"
#include "workload/driver.h"

namespace deutero {
namespace {

using testing_util::SmallOptions;

// ---- atomic log-space reservation ----

// A reservation that parks mid-encode is a hole: later windows fill and
// retire around it, but neither the all-filled-through mark nor the stable
// prefix may ever pass the hole's start — a flushed prefix with a hole in
// it would replay garbage after a crash.
TEST(LogReservationTest, ParkedHolePinsTheStablePrefix) {
  SimClock clock;
  LogManager log(&clock, 1024, 0.0);
  const Lsn start = log.filled_through();

  // Park one reservation (the hole), then let four threads append two
  // hundred fully-published records each at higher LSNs.
  LogManager::Reservation hole = log.Reserve(LogRecordType::kTxnCommit, 8);
  ASSERT_EQ(hole.lsn, start);
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; t++) {
    writers.emplace_back([&log] {
      const std::string payload(24, 'x');
      for (int i = 0; i < 200; i++) {
        LogManager::Reservation r = log.Reserve(
            LogRecordType::kUpdate,
            static_cast<uint32_t>(payload.size()));
        if ((i & 7) == 0) std::this_thread::yield();  // stagger publishes
        log.Publish(r, payload.data());
      }
    });
  }
  for (auto& th : writers) th.join();

  // Every later window is filled; the hole still pins both marks.
  EXPECT_EQ(log.filled_through(), hole.lsn);
  log.Flush();
  EXPECT_EQ(log.stable_end(), hole.lsn);

  // Publishing the hole releases the whole contiguous prefix at once.
  const std::string fill(8, 'h');
  log.Publish(hole, fill.data());
  EXPECT_GT(log.filled_through(), hole.lsn);
  log.Flush();
  EXPECT_EQ(log.stable_end(), log.filled_through());
}

// Many threads reserving, encoding, and publishing concurrently while an
// observer hammers filled_through()/Flush(): the filled mark must be
// monotone and the stable prefix must never pass it.
TEST(LogReservationTest, ReservationTortureKeepsMarksMonotone) {
  SimClock clock;
  LogManager log(&clock, 1024, 0.0);

  std::atomic<bool> stop{false};
  std::thread observer([&] {
    Lsn prev_filled = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const Lsn f = log.filled_through();
      EXPECT_GE(f, prev_filled) << "all-filled-through mark regressed";
      prev_filled = f;
      log.Flush();
      EXPECT_LE(log.stable_end(), log.filled_through())
          << "stable prefix passed the filled mark (hole exposed)";
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < 8; t++) {
    writers.emplace_back([&log, t] {
      for (int i = 0; i < 300; i++) {
        // Vary the payload size so windows interleave unevenly.
        const std::string payload(1 + ((t * 31 + i) % 57), 'a' + t);
        LogManager::Reservation r = log.Reserve(
            LogRecordType::kUpdate,
            static_cast<uint32_t>(payload.size()));
        if ((i % 11) == t) std::this_thread::yield();
        log.Publish(r, payload.data());
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  observer.join();

  log.Flush();
  EXPECT_EQ(log.stable_end(), log.filled_through());
  EXPECT_EQ(log.stats().records_appended, 8u * 300u);
}

// Regression: the quiesce wait in buffer growth releases the growth latch,
// so a second grower could enter beside the first and, once the first had
// unparked the encoders, move the buffer under their Publish (under TSan
// the torture above raced, hung or crashed). Writers appending across many
// growths must each find every record intact, in its own bytes.
TEST(LogReservationTest, ConcurrentGrowthKeepsEveryRecord) {
  SimClock clock;
  LogManager log(&clock, 1024, 0.0);
  constexpr int kWriters = 8;
  constexpr int kPerWriter = 300;
  auto image = [](int t, int i) {
    return std::string(1 + (t * 31 + i) % 200, static_cast<char>('a' + t));
  };
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; t++) {
    writers.emplace_back([&log, &image, t] {
      LogRecord r;
      r.type = LogRecordType::kUpdate;
      r.txn_id = static_cast<TxnId>(1 + t);
      r.table_id = 1;
      r.pid = static_cast<PageId>(1 + t);
      for (int i = 0; i < kPerWriter; i++) {
        r.key = static_cast<Key>(t * kPerWriter + i);
        r.after = image(t, i);
        log.Append(r);
      }
    });
  }
  for (auto& th : writers) th.join();
  log.Flush();

  std::vector<int> seen(kWriters * kPerWriter, 0);
  for (auto it = log.NewIterator(kFirstLsn, /*charge_io=*/false); it.Valid();
       it.Next()) {
    const LogRecordView& rec = it.record();
    ASSERT_LT(rec.key, seen.size());
    const int t = static_cast<int>(rec.key / kPerWriter);
    const int i = static_cast<int>(rec.key % kPerWriter);
    EXPECT_EQ(rec.after.ToString(), image(t, i)) << "key " << rec.key;
    seen[rec.key]++;
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
            static_cast<std::ptrdiff_t>(seen.size()));
}

// ---- group-commit batcher ----

TEST(GroupCommitTest, BatchesConcurrentWaitersIntoFewFlushes) {
  std::atomic<Lsn> tail{0};
  std::atomic<Lsn> stable{0};
  std::atomic<uint64_t> flushes{0};
  GroupCommit gc(
      /*flush=*/[&] {
        flushes.fetch_add(1);
        stable.store(tail.load());
        return stable.load();
      },
      /*stable=*/[&] { return stable.load(); },
      /*window_us=*/5000, /*max_batch=*/64);
  gc.Start();

  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 8;
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; t++) {
    clients.emplace_back([&] {
      for (int i = 0; i < kCommitsPerThread; i++) {
        const Lsn mine = tail.fetch_add(100) + 100;
        const Status st = gc.WaitDurable(mine);
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
    });
  }
  for (auto& th : clients) th.join();
  gc.Stop();

  const GroupCommit::Stats s = gc.stats();
  EXPECT_EQ(s.enqueued, uint64_t{kThreads * kCommitsPerThread});
  // The batching win: one window flush covers many concurrent commits.
  EXPECT_LT(flushes.load(), uint64_t{kThreads * kCommitsPerThread});
  EXPECT_GT(s.max_batch_seen, 1u);
  EXPECT_GE(stable.load(), Lsn{kThreads * kCommitsPerThread * 100});
}

TEST(GroupCommitTest, MaxBatchClosesBeforeTheWindow) {
  std::atomic<Lsn> tail{0};
  std::atomic<Lsn> stable{0};
  GroupCommit gc(
      /*flush=*/[&] {
        stable.store(tail.load());
        return stable.load();
      },
      /*stable=*/[&] { return stable.load(); },
      /*window_us=*/2'000'000, /*max_batch=*/4);  // window absurdly long
  gc.Start();

  // 8 waiters against a 2-second window: only the size trigger can get
  // them durable before the suite timeout, so finishing promptly proves it.
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; t++) {
    clients.emplace_back([&] {
      const Lsn mine = tail.fetch_add(100) + 100;
      EXPECT_TRUE(gc.WaitDurable(mine).ok());
    });
  }
  for (auto& th : clients) th.join();
  gc.Stop();
  EXPECT_GE(gc.stats().size_triggered, 1u);
}

TEST(GroupCommitTest, CrashHaltFailsPendingWaitersWithAborted) {
  std::atomic<Lsn> stable{0};  // never advances: waiters can only crash out
  GroupCommit gc(
      /*flush=*/[&] { return stable.load(); },
      /*stable=*/[&] { return stable.load(); },
      /*window_us=*/100, /*max_batch=*/4);
  gc.Start();

  std::atomic<int> aborted{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; t++) {
    clients.emplace_back([&] {
      const Status st = gc.WaitDurable(1000);
      if (st.IsAborted()) aborted.fetch_add(1);
    });
  }
  // Give the waiters time to enqueue, then crash under them.
  while (gc.stats().enqueued < 4) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  gc.CrashHalt();
  for (auto& th : clients) th.join();
  EXPECT_EQ(aborted.load(), 4);

  // A crashed batcher refuses new waiters the same way.
  EXPECT_TRUE(gc.WaitDurable(2000).IsAborted());
}

// ---- sharded lock manager vs the serial one ----

TEST(ShardedLockTest, ConflictMatrixMatchesSerialManager) {
  using SM = ShardedLockManager::LockMode;
  using LM = LockManager::LockMode;
  const TableId table = 7;
  const Key key = 42;

  // Immediate-decision cases (grant / die) must agree with the serial
  // manager exactly. The requester is YOUNGER than the holder, so wait-die
  // also decides immediately (die), like the serial manager's Busy.
  struct Case {
    LM serial_held, serial_req;
    SM sharded_held, sharded_req;
    bool grant;
  };
  const Case cases[] = {
      {LM::kShared, LM::kShared, SM::kShared, SM::kShared, true},
      {LM::kShared, LM::kExclusive, SM::kShared, SM::kExclusive, false},
      {LM::kExclusive, LM::kShared, SM::kExclusive, SM::kShared, false},
      {LM::kExclusive, LM::kExclusive, SM::kExclusive, SM::kExclusive,
       false},
  };
  for (const Case& c : cases) {
    LockManager serial;
    ShardedLockManager sharded(16);
    ASSERT_TRUE(serial.Acquire(1, table, key, c.serial_held).ok());
    ASSERT_TRUE(sharded.Acquire(1, table, key, c.sharded_held).ok());
    const Status ss = serial.Acquire(2, table, key, c.serial_req);
    const Status cs = sharded.Acquire(2, table, key, c.sharded_req);
    EXPECT_EQ(ss.ok(), c.grant);
    EXPECT_EQ(cs.ok(), c.grant);
    if (!c.grant) {
      EXPECT_TRUE(ss.IsBusy());
      EXPECT_TRUE(cs.IsBusy());  // wait-die: the younger requester dies
    }
    // Re-acquire and release behave identically too.
    EXPECT_TRUE(serial.Acquire(1, table, key, c.serial_held).ok());
    EXPECT_TRUE(sharded.Acquire(1, table, key, c.sharded_held).ok());
    serial.ReleaseAll(1);
    sharded.ReleaseAll(1);
    serial.ReleaseAll(2);
    sharded.ReleaseAll(2);
    EXPECT_EQ(serial.total_locks(), 0u);
    EXPECT_EQ(sharded.total_locks(), 0u);
  }
}

TEST(ShardedLockTest, OlderRequesterWaitsForReleaseInsteadOfDying) {
  // The one intentional departure from the serial manager: an OLDER
  // requester blocks until the younger holder releases (wait-die keeps
  // the waits-for graph acyclic), instead of aborting.
  ShardedLockManager locks(16);
  ASSERT_TRUE(
      locks.Acquire(9, 1, 5, ShardedLockManager::LockMode::kExclusive).ok());

  std::atomic<bool> granted{false};
  std::thread older([&] {
    // Txn 3 is older than holder 9: it must wait, then win.
    const Status st =
        locks.Acquire(3, 1, 5, ShardedLockManager::LockMode::kExclusive);
    EXPECT_TRUE(st.ok()) << st.ToString();
    granted.store(true);
  });
  while (locks.StatsSnapshot().lock_waits == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_FALSE(granted.load());
  locks.ReleaseAll(9);
  older.join();
  EXPECT_TRUE(granted.load());
  EXPECT_TRUE(locks.Holds(3, 1, 5));
  EXPECT_GE(locks.StatsSnapshot().lock_waits, 1u);
}

TEST(ShardedLockTest, ContendedStressStaysDeadlockFreeAndDrains) {
  // Eight threads fight over 32 keys with wait-die retries. The invariant
  // under test is liveness (no deadlock, every thread finishes) and a
  // clean drain (no entry leaks a holder).
  ShardedLockManager locks(8);
  std::atomic<uint64_t> next_txn{1};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; t++) {
    threads.emplace_back([&, t] {
      uint64_t rng = 0x9e3779b97f4a7c15ULL * (t + 1);
      for (int i = 0; i < 400; i++) {
        const TxnId txn = next_txn.fetch_add(1);
        for (int k = 0; k < 3; k++) {
          rng ^= rng << 13;
          rng ^= rng >> 7;
          rng ^= rng << 17;
          const Key key = rng % 8;
          const auto mode = (rng & 64)
                                ? ShardedLockManager::LockMode::kExclusive
                                : ShardedLockManager::LockMode::kShared;
          const Status st = locks.Acquire(txn, 1, key, mode);
          if (!st.ok()) {
            ASSERT_TRUE(st.IsBusy()) << st.ToString();  // died, never stuck
            break;
          }
          std::this_thread::yield();  // dwell while holding: force overlap
        }
        locks.ReleaseAll(txn);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(locks.total_locks(), 0u);
  const ShardedLockManager::Stats s = locks.StatsSnapshot();
  EXPECT_GT(s.acquires, 0u);
  EXPECT_GT(s.wait_die_aborts + s.lock_waits, 0u) << "no contention seen";
}

// ---- multi-writer engine: live verification, then the crash storm ----

EngineOptions ConcurrentOptions() {
  EngineOptions o = SmallOptions();
  o.num_rows = 1200;
  o.cache_pages = 96;
  o.lazy_writer_reference_cache_pages = 96;
  o.checkpoint_interval_updates = 150;
  o.group_commit_window_us = 500;
  o.group_commit_max_batch = 8;  // > 1 turns the batcher on
  o.lock_shards = 16;
  return o;
}

TEST(ConcurrentFrontendTest, FourWritersCommitAndVerifyWithoutCrash) {
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(ConcurrentOptions(), &e));

  ConcurrentWorkloadConfig wc;
  wc.threads = 4;
  wc.ops_per_txn = 4;
  wc.seed = 17;
  ConcurrentDriver driver(e.get(), wc);
  ASSERT_OK(driver.RunUntilAcked(200));
  EXPECT_GE(driver.acked_commits(), 200u);
  EXPECT_EQ(driver.uncertain_txns(), 0u);  // nothing crashed

  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(e.get(), &checked));
  EXPECT_GT(checked, 1200u);
  uint64_t seen = 0;
  ASSERT_OK(driver.VerifyScan(e.get(), &seen));
  EXPECT_EQ(seen, driver.ExpectedRows());

  const EngineStats s = e->Stats();
  EXPECT_GE(s.committed, driver.acked_commits());
  EXPECT_GE(s.commits_enqueued, driver.acked_commits());
  EXPECT_GT(s.lock_acquires, 0u);
  EXPECT_GT(s.commit_batches, 0u);
  // The whole point of the batcher: fewer log forces than commits.
  EXPECT_LT(s.commit_batches, s.commits_enqueued);
}

TEST(ConcurrentFrontendTest, CrashStormRecoversOneLogFifteenWays) {
  ConcurrentStormConfig c;
  c.generations = 2;
  c.acked_per_generation = 150;
  c.workload.threads = 4;
  c.workload.ops_per_txn = 4;
  c.workload.seed = 23;

  ConcurrentStormResult r;
  const Status st = RunConcurrentCrashStorm(ConcurrentOptions(), c, &r);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(r.recoveries, 30u);  // 2 generations x 5 methods x 3 threads
  EXPECT_GE(r.acked_commits, 300u);
  EXPECT_GT(r.verified_rows, 0u);
  EXPECT_GT(r.commit_batches, 0u);
  EXPECT_LT(r.commit_batches, r.commits_enqueued);
  EXPECT_GT(r.lock_acquires, 0u);
}

// Readers under the shared gate evict dirty pages. The lazy-writer
// watermark, scaled by the checkpoint interval, keeps all but a few frames
// dirty, so nearly every read miss evicts a dirty page: its WAL force, the
// monitor's flush hook and any Δ/BW record that hook emits run on a reader
// thread, beside a writer and the group-commit batcher. The crash image
// then recovers the same bytes under all five methods × {1, 2, 4}.
TEST(ConcurrentFrontendTest, ReadersFlushDirtyVictimsBesideAWriter) {
  EngineOptions o = SmallOptions();  // 5,000 rows: 181 leaves, 64 frames
  o.checkpoint_interval_updates = 3'000;
  o.lazy_writer_reference_interval = 300;  // watermark 0.3 x 64 x sqrt(10)
  o.group_commit_window_us = 500;
  o.group_commit_max_batch = 8;
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  BufferPool& pool = e->dc().pool();
  WorkloadDriver writer(e.get(), WorkloadConfig{});
  ASSERT_OK(writer.RunOps(500));
  ASSERT_GT(pool.dirty_pages(), o.cache_pages * 3 / 4);

  std::atomic<uint64_t> read_errors{0};
  auto read_uniform = [&](uint64_t seed, uint64_t reads) {
    Random rng(seed);
    std::string value;
    for (uint64_t i = 0; i < reads; i++) {
      const Status s = e->Read(rng.Uniform(o.num_rows), &value);
      if (!s.ok() || value.size() != o.value_size) read_errors++;
    }
  };
  auto run_readers = [&](uint64_t seed) {
    std::vector<std::thread> readers;
    for (uint64_t t = 0; t < 3; t++) {
      readers.emplace_back(read_uniform, seed + t, 400);
    }
    return readers;
  };

  // Readers beside the writer.
  std::vector<std::thread> readers = run_readers(100);
  const Status written = writer.RunOps(600);
  for (auto& th : readers) th.join();
  ASSERT_OK(written);

  // Readers alone: every dirty eviction now runs on a reader thread, and
  // they take most of the pool's dirty pages out.
  const uint64_t dirty = pool.dirty_pages();
  ASSERT_GT(dirty, o.cache_pages / 2);
  const uint64_t dirty_evictions = pool.stats().dirty_evictions;
  readers = run_readers(200);
  for (auto& th : readers) th.join();
  EXPECT_GE(pool.stats().dirty_evictions - dirty_evictions, dirty / 2);
  EXPECT_EQ(read_errors.load(), 0u);

  ASSERT_OK(writer.RunOps(300));
  writer.OnCrash();
  e->SimulateCrash();
  Engine::StableSnapshot snap;
  ASSERT_OK(e->TakeStableSnapshot(&snap));
  testing_util::ExpectRecoversEveryWay(o, snap, &writer);
}

TEST(ConcurrentFrontendTest, CrashStormSecondSeedSerialGeometry) {
  // Same campaign, different interleaving seed and serial-sized batches:
  // group_commit_max_batch = 1 disables the batcher entirely, so the
  // concurrent clients exercise the per-commit-flush path too.
  EngineOptions o = ConcurrentOptions();
  o.group_commit_max_batch = 1;
  ConcurrentStormConfig c;
  c.generations = 1;
  c.acked_per_generation = 120;
  c.workload.threads = 4;
  c.workload.ops_per_txn = 3;
  c.workload.seed = 29;

  ConcurrentStormResult r;
  const Status st = RunConcurrentCrashStorm(o, c, &r);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(r.recoveries, 15u);
  EXPECT_GE(r.acked_commits, 120u);
}

}  // namespace
}  // namespace deutero
