// Unit tests for the prefetch machinery (App. A): window budgeting, DPT
// re-checks, PF-list consumption, log-driven candidate selection, and the
// spans both prefetchers grow their heads into.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "recovery/prefetch.h"
#include "sim/clock.h"
#include "sim/sim_disk.h"
#include "storage/buffer_pool.h"

namespace deutero {
namespace {

constexpr uint32_t kPageSize = 256;

class PrefetchTest : public ::testing::Test {
 protected:
  PrefetchTest()
      : disk_(&clock_, kPageSize, IoModelOptions{}),
        pool_(&clock_, &disk_, /*capacity=*/32, kPageSize, 8) {
    disk_.EnsurePages(256);
  }

  void FillDpt(std::vector<PageId> pids, Lsn rlsn = 1) {
    for (PageId pid : pids) dpt_.AddOrUpdate(pid, rlsn);
  }

  SimClock clock_;
  SimDisk disk_;
  BufferPool pool_;
  DirtyPageTable dpt_;
};

TEST_F(PrefetchTest, WindowIssuesUpToBudget) {
  PrefetchWindow w(&pool_, 4);
  w.Issue({10, 11, 12, 13});
  EXPECT_EQ(w.inflight(), 4u);
  EXPECT_EQ(w.budget(), 0u);
}

TEST_F(PrefetchTest, WindowDrainsClaimedPagesOnly) {
  PrefetchWindow w(&pool_, 4);
  w.Issue({10, 11});
  PageHandle h;
  ASSERT_TRUE(pool_.Get(10, PageClass::kData, &h).ok());  // claims page 10
  h.Release();
  w.Drain();
  // 10 was claimed by a demand Get => drained. 11's I/O completed (same
  // batch) but nobody consumed it yet => still occupies a window slot, so
  // the read-ahead cannot race arbitrarily far ahead of redo.
  EXPECT_EQ(w.inflight(), 1u);
  EXPECT_EQ(w.budget(), 3u);
}

TEST_F(PrefetchTest, StalledWindowEventuallyFreesASlot) {
  PrefetchWindow w(&pool_, 2);
  w.Issue({10, 11});  // never claimed by anyone
  for (int i = 0; i < 70; i++) {
    clock_.AdvanceUs(5);  // redo's scan CPU between pumps
    w.Drain();
  }
  EXPECT_GE(w.budget(), 1u);  // escape hatch released a slot
}

TEST_F(PrefetchTest, PfListPrefetcherSkipsPrunedPids) {
  FillDpt({20, 22});
  const std::vector<PageId> pf = {20, 21, 22, 23};  // 21, 23 not in DPT
  PfListPrefetcher p(&pool_, &dpt_, &pf, /*window=*/8);
  p.Pump();
  EXPECT_TRUE(pool_.IsResidentOrPending(20));
  EXPECT_FALSE(pool_.IsResidentOrPending(21));
  EXPECT_TRUE(pool_.IsResidentOrPending(22));
  EXPECT_FALSE(pool_.IsResidentOrPending(23));
}

TEST_F(PrefetchTest, PfListPrefetcherRespectsWindow) {
  std::vector<PageId> pf;
  for (PageId p = 50; p < 80; p++) {
    pf.push_back(p);
    dpt_.AddOrUpdate(p, 1);
  }
  PfListPrefetcher p(&pool_, &dpt_, &pf, /*window=*/6);
  p.Pump();
  uint64_t pending = 0;
  for (PageId pid : pf) {
    if (pool_.IsResidentOrPending(pid)) pending++;
  }
  // Heads fill exactly the window; their DPT riders stay within their own
  // bound.
  EXPECT_EQ(p.window().inflight(), 6u);
  EXPECT_LE(p.window().riders_inflight(), p.window().rider_bound());
  EXPECT_EQ(pending, p.window().inflight() + p.window().riders_inflight());
  // As pages land, pumping tops the window back up.
  PageHandle h;
  ASSERT_TRUE(pool_.Get(50, PageClass::kData, &h).ok());
  h.Release();
  p.Pump();
  pending = 0;
  for (PageId pid : pf) {
    if (pool_.IsResidentOrPending(pid)) pending++;
  }
  EXPECT_GT(pending, 6u);  // 50 is loaded AND new pages are pending
}

TEST_F(PrefetchTest, PfListPrefetcherStopsAtListEnd) {
  FillDpt({30});
  const std::vector<PageId> pf = {30};
  PfListPrefetcher p(&pool_, &dpt_, &pf, 8);
  p.Pump();
  p.Pump();  // no crash, nothing further to issue
  EXPECT_TRUE(pool_.IsResidentOrPending(30));
  EXPECT_EQ(pool_.stats().prefetch_issued, 1u);
}

// ---- Span read-ahead: PF-list prefetcher ----

/// Pages in [lo, hi] the pool holds or is reading.
uint64_t CountPending(const BufferPool& pool, PageId lo, PageId hi) {
  uint64_t n = 0;
  for (PageId pid = lo; pid <= hi; pid++) n += pool.IsResidentOrPending(pid);
  return n;
}

TEST_F(PrefetchTest, PfListHeadWithDirtyNeighboursIsOneBatchedRead) {
  FillDpt({40, 41, 42, 43});
  const std::vector<PageId> pf = {40};
  PfListPrefetcher p(&pool_, &dpt_, &pf, /*window=*/8);
  p.Pump();
  EXPECT_EQ(CountPending(pool_, 40, 43), 4u);
  EXPECT_EQ(p.window().inflight(), 1u);         // the head
  EXPECT_EQ(p.window().riders_inflight(), 3u);  // its neighbours
  EXPECT_EQ(disk_.stats().read_ios, 1u);
  EXPECT_EQ(disk_.stats().batched_reads, 1u);
  EXPECT_EQ(disk_.stats().pages_read, 4u);
}

TEST_F(PrefetchTest, PfListSpanReadsThroughGapCachedAndPendingPages) {
  // 40 [41] _ [43] | 46 [47] (48 cached) [49] | 51 [52] (53 pending) [54]:
  // the DPT pages past each stop (the gap at 42, cached 48, pending 53)
  // ride in a head's span, while 42 is never installed and 48 and 53 are
  // never re-issued. A cache large enough that capacity / 8 does not bind
  // the riders.
  BufferPool pool(&clock_, &disk_, /*capacity=*/128, kPageSize, 8);
  FillDpt({40, 41, 43, 46, 47, 48, 49, 51, 52, 53, 54});
  PageHandle h;
  ASSERT_TRUE(pool.Get(48, PageClass::kData, &h).ok());
  h.Release();
  pool.Prefetch(std::vector<PageId>{53}, PageClass::kData);
  const SimDisk::Stats before = disk_.stats();
  const std::vector<PageId> pf = {40, 46, 51};
  PfListPrefetcher p(&pool, &dpt_, &pf, /*window=*/8);
  p.Pump();
  for (PageId rider : {41, 43, 47, 49, 52, 54}) {
    EXPECT_TRUE(pool.IsResidentOrPending(rider)) << rider;
  }
  EXPECT_FALSE(pool.IsResidentOrPending(42));  // not in the DPT
  EXPECT_TRUE(pool.IsLoaded(48));
  EXPECT_EQ(p.window().inflight(), 3u);
  EXPECT_EQ(p.window().riders_inflight(), 6u);
  EXPECT_EQ(pool.stats().prefetch_issued, 1u + 9u);  // 53, then the Pump
  // Spans 40..47 and 49..54; 42, 44, 45, 50 and 53 are gap pages.
  EXPECT_EQ(disk_.stats().read_ios - before.read_ios, 2u);
  EXPECT_EQ(disk_.stats().gap_pages - before.gap_pages, 5u);
}

TEST_F(PrefetchTest, PfListRunStopsAtMaxBatchPages) {
  // A cache large enough that capacity / 8 does not bind the riders.
  BufferPool pool(&clock_, &disk_, /*capacity=*/128, kPageSize,
                  /*max_batch=*/4);
  std::vector<PageId> dirty;
  for (PageId pid = 40; pid < 60; pid++) dirty.push_back(pid);
  FillDpt(dirty);
  const std::vector<PageId> pf = {40};
  PfListPrefetcher p(&pool, &dpt_, &pf, /*window=*/8);
  p.Pump();
  EXPECT_EQ(CountPending(pool, 40, 59), 4u);  // 40..43
  EXPECT_FALSE(pool.IsResidentOrPending(44));
  EXPECT_EQ(disk_.stats().read_ios, 1u);
}

TEST_F(PrefetchTest, PfListPrunedEntryNeverRides) {
  FillDpt({40, 41, 42, 43, 44});
  const std::vector<PageId> pf = {40, 42};
  dpt_.Remove(42);  // pruned after it entered the PF-list
  PfListPrefetcher p(&pool_, &dpt_, &pf, /*window=*/8);
  p.Pump();
  EXPECT_FALSE(pool_.IsResidentOrPending(42));  // neither head nor rider
  for (PageId rider : {41, 43, 44}) {  // 43 and 44 lie past the pruned gap
    EXPECT_TRUE(pool_.IsResidentOrPending(rider)) << rider;
  }
  EXPECT_EQ(p.window().riders_inflight(), 3u);
  EXPECT_EQ(disk_.stats().read_ios, 1u);
  EXPECT_EQ(disk_.stats().gap_pages, 1u);
}

TEST_F(PrefetchTest, PfListRidersSpanAlternateDirtyPages) {
  // Every other pid is dirty: no two DPT pages are pid-contiguous, yet one
  // I/O of 8 pids carries the head and 3 riders (80 is a 9th pid).
  BufferPool pool(&clock_, &disk_, /*capacity=*/128, kPageSize, 8);
  FillDpt({66, 68, 70, 72, 74, 76, 78, 80});
  const std::vector<PageId> pf = {72};
  PfListPrefetcher p(&pool, &dpt_, &pf, /*window=*/8);
  p.Pump();
  EXPECT_EQ(p.window().riders_inflight(), 3u);
  EXPECT_EQ(CountPending(pool, 66, 80), 4u);
  for (PageId pid : {72, 74, 76, 78}) {
    EXPECT_TRUE(pool.IsResidentOrPending(pid)) << pid;
  }
  EXPECT_EQ(disk_.stats().read_ios, 1u);
  EXPECT_EQ(disk_.stats().pages_read, 7u);  // 72..78
  EXPECT_EQ(disk_.stats().gap_pages, 3u);
}

TEST_F(PrefetchTest, PfListRiderBoundIsAnEighthOfTheCache) {
  // The bound has no window term: even a 2-page window may keep
  // capacity / 8 riders in flight.
  BufferPool pool(&clock_, &disk_, /*capacity=*/256, kPageSize, 8);
  const std::vector<PageId> pf;
  PfListPrefetcher p(&pool, &dpt_, &pf, /*window=*/2);
  EXPECT_EQ(p.window().rider_bound(), 32u);
}

TEST_F(PrefetchTest, PfListReadAheadNeverExhaustsASmallPool) {
  // The 32-frame fixture pool over a fully dirty contiguous range, with
  // redo's window for that pool (RedoPrefetchWindow: capacity / 8 = 4) and
  // a demand Get per PF-list entry between pumps, as logical redo runs.
  std::vector<PageId> pf;
  for (PageId pid = 1; pid < 200; pid++) pf.push_back(pid);
  FillDpt(pf);
  PfListPrefetcher p(&pool_, &dpt_, &pf, /*window=*/4);
  uint32_t most_riders = 0;
  for (PageId pid : pf) {
    p.Pump();
    EXPECT_LE(p.window().riders_inflight(), p.window().rider_bound());
    most_riders = std::max(most_riders, p.window().riders_inflight());
    PageHandle h;
    const Status s = pool_.Get(pid, PageClass::kData, &h);
    ASSERT_TRUE(s.ok()) << "pid " << pid << ": " << s.ToString();
  }
  EXPECT_GT(most_riders, 0u);
  EXPECT_EQ(pool_.stats().prefetch_wasted, 0u);
  EXPECT_LT(disk_.stats().read_ios, disk_.stats().pages_read);
}

// ---- The log's tail: PF-list pages outside the DPT ----

TEST_F(PrefetchTest, PfListTailPageRidesInASpanThatPassesOverIt) {
  // DPT 40 and 44, tail page 42, with a one-head window: 40's span takes
  // 42 as a rider, as it takes 44, while 41, 43 (wanted by no one) are gap
  // pages. A pool large enough that the margin leaves riders room.
  BufferPool pool(&clock_, &disk_, /*capacity=*/128, kPageSize, 8);
  FillDpt({40, 44});
  const std::vector<PageId> tail = {42};
  const std::vector<PageId> pf = BuildPfList(dpt_, tail);
  ASSERT_EQ(pf, (std::vector<PageId>{40, 44, 42}));
  PfListPrefetcher p(&pool, &dpt_, &pf, /*window=*/1, /*tail_begin=*/2);
  p.Pump();
  EXPECT_EQ(p.window().inflight(), 1u);  // the head, 40
  EXPECT_EQ(p.window().riders_inflight(), 2u);
  EXPECT_TRUE(pool.IsResidentOrPending(42));
  EXPECT_TRUE(pool.IsResidentOrPending(44));
  EXPECT_FALSE(pool.IsResidentOrPending(41));
  EXPECT_FALSE(pool.IsResidentOrPending(43));
  EXPECT_EQ(dpt_.Find(42), nullptr) << "a tail page entered the DPT";
  EXPECT_EQ(disk_.stats().read_ios, 1u);
  EXPECT_EQ(disk_.stats().gap_pages, 2u);
}

TEST_F(PrefetchTest, PfListTailHeadNeedsAFrameBeyondTheMargin) {
  // Window 4 in the 32-frame pool: a rider bound of capacity / 8 = 4, so
  // the margin is 8 unused frames. A tail page goes out as a head only
  // while more than the margin is unused; a DPT head goes out either way.
  const std::vector<PageId> tail = {120};
  for (const uint64_t unused : {8u, 9u}) {
    SimClock clock;
    SimDisk disk(&clock, kPageSize, IoModelOptions{});
    disk.EnsurePages(256);
    BufferPool pool(&clock, &disk, /*capacity=*/32, kPageSize, 8);
    for (PageId pid = 1; pool.unused_frames() > unused; pid++) {
      PageHandle h;
      ASSERT_TRUE(pool.Get(pid, PageClass::kData, &h).ok());
    }
    DirtyPageTable dpt;
    dpt.AddOrUpdate(100, 1);
    const std::vector<PageId> dpt_only = BuildPfList(dpt);
    PfListPrefetcher d(&pool, &dpt, &dpt_only, /*window=*/4);
    const std::vector<PageId> tail_only = BuildPfList(DirtyPageTable(), tail);
    PfListPrefetcher t(&pool, &dpt, &tail_only, /*window=*/4,
                       /*tail_begin=*/0);
    EXPECT_EQ(t.window().RoomBeyondMargin(0), unused - 8);
    t.Pump();
    EXPECT_EQ(pool.IsResidentOrPending(120), unused > 8) << unused;
    d.Pump();
    EXPECT_TRUE(pool.IsResidentOrPending(100)) << unused;
  }
}

class LogDrivenPrefetchTest : public PrefetchTest {
 protected:
  LogDrivenPrefetchTest() : log_(&clock_, 8192, 0.0) {}

  Lsn Update(PageId pid) {
    LogRecord r;
    r.type = LogRecordType::kUpdate;
    r.txn_id = 1;
    r.table_id = 1;
    r.key = pid;
    r.after = "x";
    r.pid = pid;
    const Lsn lsn = log_.Append(r);
    log_.Flush();
    return lsn;
  }

  LogManager log_;
};

TEST_F(LogDrivenPrefetchTest, IssuesOnlyDptMembersPassingRlsnTest) {
  const Lsn l1 = Update(100);
  Update(101);
  const Lsn l3 = Update(102);
  dpt_.AddOrUpdate(100, l1);       // rlsn == lsn: issue
  dpt_.AddOrUpdate(102, l3 + 10);  // rlsn > lsn: redo impossible, skip
  LogDrivenPrefetcher p(&pool_, &dpt_, &log_, kFirstLsn, /*window=*/8,
                        /*lookahead=*/100);
  p.Pump(0);
  EXPECT_TRUE(pool_.IsResidentOrPending(100));
  EXPECT_FALSE(pool_.IsResidentOrPending(101));  // not in DPT
  // 102 fails the rLSN test, so it is never a head; as a DPT page in head
  // 100's span it rides across 101.
  EXPECT_EQ(p.window().inflight(), 1u);
  EXPECT_EQ(p.window().riders_inflight(), 1u);
  EXPECT_TRUE(pool_.IsResidentOrPending(102));
  EXPECT_EQ(disk_.stats().read_ios, 1u);
}

TEST_F(LogDrivenPrefetchTest, LookaheadBoundsReadAhead) {
  std::vector<Lsn> lsns;
  for (PageId p = 100; p < 140; p++) lsns.push_back(Update(p));
  for (PageId p = 100; p < 140; p++) dpt_.AddOrUpdate(p, 1);
  LogDrivenPrefetcher p(&pool_, &dpt_, &log_, kFirstLsn, /*window=*/32,
                        /*lookahead=*/5);
  p.Pump(0);  // may scan at most 5 records ahead of a cursor at 0
  uint64_t pending = 0;
  for (PageId pid = 100; pid < 140; pid++) {
    if (pool_.IsResidentOrPending(pid)) pending++;
  }
  EXPECT_LE(pending, 5u);
  p.Pump(20);  // cursor advanced: more candidates visible
  pending = 0;
  for (PageId pid = 100; pid < 140; pid++) {
    if (pool_.IsResidentOrPending(pid)) pending++;
  }
  EXPECT_GT(pending, 5u);
}

// ---- Span read-ahead: log-driven prefetcher ----

TEST_F(LogDrivenPrefetchTest, HeadWithDirtyNeighboursIsOneBatchedRead) {
  Update(40);
  FillDpt({40, 41, 42, 43});
  LogDrivenPrefetcher p(&pool_, &dpt_, &log_, kFirstLsn, /*window=*/8,
                        /*lookahead=*/100);
  p.Pump(0);
  EXPECT_EQ(CountPending(pool_, 40, 43), 4u);
  EXPECT_EQ(p.window().inflight(), 1u);
  EXPECT_EQ(p.window().riders_inflight(), 3u);
  EXPECT_EQ(disk_.stats().read_ios, 1u);
  EXPECT_EQ(disk_.stats().batched_reads, 1u);
  EXPECT_EQ(disk_.stats().pages_read, 4u);
}

TEST_F(LogDrivenPrefetchTest, SpanReadsThroughGapCachedAndPendingPages) {
  // The PF-list case, with the heads named by the log.
  BufferPool pool(&clock_, &disk_, /*capacity=*/128, kPageSize, 8);
  Update(40);
  Update(46);
  Update(51);
  FillDpt({40, 41, 43, 46, 47, 48, 49, 51, 52, 53, 54});
  PageHandle h;
  ASSERT_TRUE(pool.Get(48, PageClass::kData, &h).ok());
  h.Release();
  pool.Prefetch(std::vector<PageId>{53}, PageClass::kData);
  const SimDisk::Stats before = disk_.stats();
  LogDrivenPrefetcher p(&pool, &dpt_, &log_, kFirstLsn, /*window=*/8,
                        /*lookahead=*/100);
  p.Pump(0);
  for (PageId rider : {41, 43, 47, 49, 52, 54}) {
    EXPECT_TRUE(pool.IsResidentOrPending(rider)) << rider;
  }
  EXPECT_FALSE(pool.IsResidentOrPending(42));  // not in the DPT
  EXPECT_TRUE(pool.IsLoaded(48));
  EXPECT_EQ(p.window().inflight(), 3u);
  EXPECT_EQ(p.window().riders_inflight(), 6u);
  EXPECT_EQ(pool.stats().prefetch_issued, 1u + 9u);  // 53, then the Pump
  EXPECT_EQ(disk_.stats().read_ios - before.read_ios, 2u);
  EXPECT_EQ(disk_.stats().gap_pages - before.gap_pages, 5u);
}

TEST_F(LogDrivenPrefetchTest, RunStopsAtMaxBatchPages) {
  BufferPool pool(&clock_, &disk_, /*capacity=*/128, kPageSize,
                  /*max_batch=*/4);
  Update(40);
  std::vector<PageId> dirty;
  for (PageId pid = 40; pid < 60; pid++) dirty.push_back(pid);
  FillDpt(dirty);
  LogDrivenPrefetcher p(&pool, &dpt_, &log_, kFirstLsn, /*window=*/8,
                        /*lookahead=*/100);
  p.Pump(0);
  EXPECT_EQ(CountPending(pool, 40, 59), 4u);  // 40..43
  EXPECT_FALSE(pool.IsResidentOrPending(44));
  EXPECT_EQ(disk_.stats().read_ios, 1u);
}

TEST_F(LogDrivenPrefetchTest, PrunedEntryNeverRides) {
  Update(40);
  Update(42);
  FillDpt({40, 41, 42, 43, 44});
  dpt_.Remove(42);
  LogDrivenPrefetcher p(&pool_, &dpt_, &log_, kFirstLsn, /*window=*/8,
                        /*lookahead=*/100);
  p.Pump(0);
  EXPECT_FALSE(pool_.IsResidentOrPending(42));  // neither head nor rider
  for (PageId rider : {41, 43, 44}) {  // 43 and 44 lie past the pruned gap
    EXPECT_TRUE(pool_.IsResidentOrPending(rider)) << rider;
  }
  EXPECT_EQ(p.window().inflight(), 1u);
  EXPECT_EQ(p.window().riders_inflight(), 3u);
  EXPECT_EQ(disk_.stats().read_ios, 1u);
  EXPECT_EQ(disk_.stats().gap_pages, 1u);
}

TEST_F(LogDrivenPrefetchTest, RiderBoundIsTheLookaheadBeyondTheWindow) {
  // capacity / 8 = 32 binds a long lookahead; a short one binds itself.
  BufferPool pool(&clock_, &disk_, /*capacity=*/256, kPageSize, 8);
  LogDrivenPrefetcher wide(&pool, &dpt_, &log_, kFirstLsn, /*window=*/2,
                           /*lookahead=*/100);
  EXPECT_EQ(wide.window().rider_bound(), 32u);
  LogDrivenPrefetcher narrow(&pool, &dpt_, &log_, kFirstLsn, /*window=*/2,
                             /*lookahead=*/16);
  EXPECT_EQ(narrow.window().rider_bound(), 14u);
}

TEST_F(LogDrivenPrefetchTest, ReadAheadNeverExhaustsASmallPool) {
  // As the PF-list case: SQL redo's window and lookahead for a 32-frame
  // pool, one demand Get per log record between pumps.
  std::vector<PageId> pids;
  for (PageId pid = 1; pid < 200; pid++) {
    Update(pid);
    pids.push_back(pid);
  }
  FillDpt(pids);
  LogDrivenPrefetcher p(&pool_, &dpt_, &log_, kFirstLsn, /*window=*/4,
                        /*lookahead=*/32);
  uint64_t consumed = 0;
  uint32_t most_riders = 0;
  for (PageId pid : pids) {
    p.Pump(consumed++);
    EXPECT_LE(p.window().riders_inflight(), p.window().rider_bound());
    most_riders = std::max(most_riders, p.window().riders_inflight());
    PageHandle h;
    const Status s = pool_.Get(pid, PageClass::kData, &h);
    ASSERT_TRUE(s.ok()) << "pid " << pid << ": " << s.ToString();
  }
  EXPECT_GT(most_riders, 0u);
  EXPECT_EQ(pool_.stats().prefetch_wasted, 0u);
  EXPECT_LT(disk_.stats().read_ios, disk_.stats().pages_read);
}

TEST_F(LogDrivenPrefetchTest, DoesNotReissueResidentPages) {
  const Lsn l1 = Update(100);
  dpt_.AddOrUpdate(100, l1);
  PageHandle h;
  ASSERT_TRUE(pool_.Get(100, PageClass::kData, &h).ok());
  h.Release();
  LogDrivenPrefetcher p(&pool_, &dpt_, &log_, kFirstLsn, 8, 100);
  p.Pump(0);
  EXPECT_EQ(pool_.stats().prefetch_issued, 0u);
}

}  // namespace
}  // namespace deutero
