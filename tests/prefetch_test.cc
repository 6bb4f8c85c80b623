// Unit tests for the prefetch machinery (App. A): window budgeting, DPT
// re-checks, PF-list consumption, log-driven candidate selection, and the
// DPT runs both prefetchers grow their heads into.
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
  for (int i = 0; i < 70; i++) w.Drain();
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

// ---- DPT-run read-ahead: PF-list prefetcher ----

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

TEST_F(PrefetchTest, PfListRunStopsAtGapCachedAndPendingPages) {
  // 40 [41] _ 43 | 46 [47] (48 cached) | 51 [52] (53 pending): each head
  // takes only the neighbour before its stop.
  FillDpt({40, 41, 43, 46, 47, 48, 49, 51, 52, 53, 54});
  PageHandle h;
  ASSERT_TRUE(pool_.Get(48, PageClass::kData, &h).ok());
  h.Release();
  pool_.Prefetch(std::vector<PageId>{53}, PageClass::kData);
  const std::vector<PageId> pf = {40, 46, 51};
  PfListPrefetcher p(&pool_, &dpt_, &pf, /*window=*/8);
  p.Pump();
  EXPECT_TRUE(pool_.IsResidentOrPending(41));
  EXPECT_FALSE(pool_.IsResidentOrPending(43));  // beyond the gap at 42
  EXPECT_TRUE(pool_.IsResidentOrPending(47));
  EXPECT_FALSE(pool_.IsResidentOrPending(49));  // beyond cached 48
  EXPECT_TRUE(pool_.IsResidentOrPending(52));
  EXPECT_FALSE(pool_.IsResidentOrPending(54));  // beyond pending 53
  EXPECT_EQ(p.window().riders_inflight(), 3u);
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
  EXPECT_TRUE(pool_.IsResidentOrPending(41));
  EXPECT_FALSE(pool_.IsResidentOrPending(42));
  EXPECT_FALSE(pool_.IsResidentOrPending(43));  // past the pruned gap
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
  EXPECT_FALSE(pool_.IsResidentOrPending(102));  // fails the rLSN test
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

// ---- DPT-run read-ahead: log-driven prefetcher ----

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

TEST_F(LogDrivenPrefetchTest, RunStopsAtGapCachedAndPendingPages) {
  Update(40);
  Update(46);
  Update(51);
  FillDpt({40, 41, 43, 46, 47, 48, 49, 51, 52, 53, 54});
  PageHandle h;
  ASSERT_TRUE(pool_.Get(48, PageClass::kData, &h).ok());
  h.Release();
  pool_.Prefetch(std::vector<PageId>{53}, PageClass::kData);
  LogDrivenPrefetcher p(&pool_, &dpt_, &log_, kFirstLsn, /*window=*/8,
                        /*lookahead=*/100);
  p.Pump(0);
  EXPECT_TRUE(pool_.IsResidentOrPending(41));
  EXPECT_FALSE(pool_.IsResidentOrPending(43));  // beyond the gap at 42
  EXPECT_TRUE(pool_.IsResidentOrPending(47));
  EXPECT_FALSE(pool_.IsResidentOrPending(49));  // beyond cached 48
  EXPECT_TRUE(pool_.IsResidentOrPending(52));
  EXPECT_FALSE(pool_.IsResidentOrPending(54));  // beyond pending 53
  EXPECT_EQ(p.window().riders_inflight(), 3u);
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
  FillDpt({40, 41, 42, 43, 44});
  dpt_.Remove(42);
  LogDrivenPrefetcher p(&pool_, &dpt_, &log_, kFirstLsn, /*window=*/8,
                        /*lookahead=*/100);
  p.Pump(0);
  EXPECT_TRUE(pool_.IsResidentOrPending(41));
  EXPECT_FALSE(pool_.IsResidentOrPending(42));
  EXPECT_FALSE(pool_.IsResidentOrPending(43));
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
