// Unit tests for the buffer pool: caching, eviction, dirty bookkeeping,
// checkpoint phase flipping, the WAL rule, the lazy writer, and prefetch.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sim/clock.h"
#include "sim/sim_disk.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/page_table.h"

namespace deutero {
namespace {

constexpr uint32_t kPageSize = 256;

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest()
      : disk_(&clock_, kPageSize, IoModelOptions{}),
        pool_(&clock_, &disk_, /*capacity=*/8, kPageSize,
              /*max_batch=*/4) {
    disk_.EnsurePages(64);
    // Give every disk page a recognizable first payload byte.
    std::vector<uint8_t> buf(kPageSize, 0);
    for (PageId pid = 0; pid < 64; pid++) {
      PageView p(buf.data(), kPageSize);
      p.Format(pid, PageType::kLeaf, 0);
      p.payload()[0] = static_cast<uint8_t>(pid);
      disk_.WriteImageDirect(pid, buf.data());
    }
  }

  SimClock clock_;
  SimDisk disk_;
  BufferPool pool_;
};

TEST_F(BufferPoolTest, MissThenHit) {
  PageHandle h;
  ASSERT_TRUE(pool_.Get(3, PageClass::kData, &h).ok());
  EXPECT_EQ(h.view().payload()[0], 3);
  h.Release();
  EXPECT_EQ(pool_.stats().misses, 1u);
  PageHandle h2;
  ASSERT_TRUE(pool_.Get(3, PageClass::kData, &h2).ok());
  EXPECT_EQ(pool_.stats().hits, 1u);
  EXPECT_EQ(pool_.stats().misses, 1u);
}

TEST_F(BufferPoolTest, MissChargesIoTime) {
  PageHandle h;
  const double before = clock_.NowMs();
  ASSERT_TRUE(pool_.Get(5, PageClass::kData, &h).ok());
  EXPECT_GT(clock_.NowMs(), before);
  EXPECT_EQ(pool_.stats().stall_count, 1u);
  EXPECT_GT(pool_.stats().data_stall_ms, 0.0);
  EXPECT_DOUBLE_EQ(pool_.stats().index_stall_ms, 0.0);
}

TEST_F(BufferPoolTest, IndexClassAccountsSeparately) {
  PageHandle h;
  ASSERT_TRUE(pool_.Get(5, PageClass::kIndex, &h).ok());
  EXPECT_EQ(pool_.stats().index_fetches, 1u);
  EXPECT_EQ(pool_.stats().data_fetches, 0u);
  EXPECT_GT(pool_.stats().index_stall_ms, 0.0);
}

TEST_F(BufferPoolTest, EvictionAtCapacityPrefersUnreferenced) {
  // Fill capacity (8 frames), touching pages 0..7.
  for (PageId pid = 0; pid < 8; pid++) {
    PageHandle h;
    ASSERT_TRUE(pool_.Get(pid, PageClass::kData, &h).ok());
  }
  EXPECT_EQ(pool_.resident_pages(), 8u);
  // One more page forces an eviction.
  PageHandle h;
  ASSERT_TRUE(pool_.Get(20, PageClass::kData, &h).ok());
  EXPECT_EQ(pool_.resident_pages(), 8u);
  EXPECT_EQ(pool_.stats().evictions, 1u);
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  std::vector<PageHandle> pins(7);
  for (PageId pid = 0; pid < 7; pid++) {
    ASSERT_TRUE(pool_.Get(pid, PageClass::kData, &pins[pid]).ok());
  }
  // Frame 8 gets used and evicted repeatedly; pinned pages survive.
  for (PageId pid = 20; pid < 30; pid++) {
    PageHandle h;
    ASSERT_TRUE(pool_.Get(pid, PageClass::kData, &h).ok());
  }
  for (PageId pid = 0; pid < 7; pid++) {
    EXPECT_TRUE(pool_.IsLoaded(pid)) << pid;
  }
}

TEST_F(BufferPoolTest, AllPinnedReturnsBusy) {
  std::vector<PageHandle> pins(8);
  for (PageId pid = 0; pid < 8; pid++) {
    ASSERT_TRUE(pool_.Get(pid, PageClass::kData, &pins[pid]).ok());
  }
  PageHandle h;
  EXPECT_TRUE(pool_.Get(30, PageClass::kData, &h).IsBusy());
}

TEST_F(BufferPoolTest, MarkDirtyStampsPlsnAndCounts) {
  PageHandle h;
  ASSERT_TRUE(pool_.Get(4, PageClass::kData, &h).ok());
  h.MarkDirty(777);
  EXPECT_EQ(h.view().plsn(), 777u);
  EXPECT_EQ(pool_.dirty_pages(), 1u);
  h.MarkDirty(778);  // same page again: still one dirty page
  EXPECT_EQ(pool_.dirty_pages(), 1u);
  EXPECT_EQ(h.view().plsn(), 778u);
}

TEST_F(BufferPoolTest, DirtyCallbackFiresPerUpdate) {
  int calls = 0;
  int clean_transitions = 0;
  pool_.set_dirty_callback([&](PageId, Lsn, bool was_clean) {
    calls++;
    if (was_clean) clean_transitions++;
  });
  PageHandle h;
  ASSERT_TRUE(pool_.Get(4, PageClass::kData, &h).ok());
  h.MarkDirty(1);
  h.MarkDirty(2);
  h.MarkDirty(3);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(clean_transitions, 1);
}

TEST_F(BufferPoolTest, FlushPageWritesAndCleans) {
  PageId flushed = kInvalidPageId;
  pool_.set_flush_callback([&](PageId pid, Lsn) { flushed = pid; });
  PageHandle h;
  ASSERT_TRUE(pool_.Get(4, PageClass::kData, &h).ok());
  h.view().payload()[1] = 0xEE;
  h.MarkDirty(10);
  h.Release();
  ASSERT_TRUE(pool_.FlushPage(4).ok());
  EXPECT_EQ(pool_.dirty_pages(), 0u);
  EXPECT_EQ(flushed, 4u);
  EXPECT_EQ(disk_.ImageData(4)[kPageHeaderSize + 1], 0xEE);
}

TEST_F(BufferPoolTest, WalRuleForcesLogBeforeFlush) {
  Lsn stable = 5;
  Lsn forced_to = 0;
  pool_.set_stable_lsn_provider([&] { return stable; });
  pool_.set_wal_force_callback([&](Lsn lsn) {
    forced_to = lsn;
    stable = lsn;  // the TC flushes its log
  });
  PageHandle h;
  ASSERT_TRUE(pool_.Get(4, PageClass::kData, &h).ok());
  h.MarkDirty(42);  // beyond the stable log
  h.Release();
  ASSERT_TRUE(pool_.FlushPage(4).ok());
  EXPECT_EQ(forced_to, 42u);
  EXPECT_EQ(pool_.stats().wal_forces, 1u);
}

TEST_F(BufferPoolTest, CheckpointPhaseFlushesOnlyOldPhase) {
  PageHandle a, b;
  ASSERT_TRUE(pool_.Get(1, PageClass::kData, &a).ok());
  a.MarkDirty(10);
  a.Release();
  pool_.FlipCheckpointPhase();  // bCkpt instant
  ASSERT_TRUE(pool_.Get(2, PageClass::kData, &b).ok());
  b.MarkDirty(11);  // dirtied during the checkpoint: exempt
  b.Release();
  uint64_t flushed = 0;
  ASSERT_TRUE(pool_.FlushPhasePages(&flushed).ok());
  EXPECT_EQ(flushed, 1u);
  EXPECT_EQ(pool_.dirty_pages(), 1u);  // page 2 still dirty
  EXPECT_FALSE(pool_.IsLoaded(1) && false);  // page 1 still resident, clean
}

TEST_F(BufferPoolTest, PageDirtyBeforeBckptKeepsOldPhaseDespiteLaterUpdate) {
  PageHandle a;
  ASSERT_TRUE(pool_.Get(1, PageClass::kData, &a).ok());
  a.MarkDirty(10);
  pool_.FlipCheckpointPhase();
  a.MarkDirty(12);  // updated again during the checkpoint
  a.Release();
  // SQL semantics (§3.2): first-dirtied before bCkpt => flushed.
  uint64_t flushed = 0;
  ASSERT_TRUE(pool_.FlushPhasePages(&flushed).ok());
  EXPECT_EQ(flushed, 1u);
  EXPECT_EQ(pool_.dirty_pages(), 0u);
}

TEST_F(BufferPoolTest, LazyWriterFlushesOldestFirst) {
  pool_.set_dirty_watermark(2);
  std::vector<PageId> flush_order;
  pool_.set_flush_callback([&](PageId pid, Lsn) { flush_order.push_back(pid); });
  for (PageId pid = 1; pid <= 4; pid++) {
    PageHandle h;
    ASSERT_TRUE(pool_.Get(pid, PageClass::kData, &h).ok());
    h.MarkDirty(pid * 10);
  }
  EXPECT_EQ(pool_.dirty_pages(), 4u);
  ASSERT_TRUE(pool_.LazyWriterTick().ok());
  EXPECT_EQ(pool_.dirty_pages(), 2u);
  ASSERT_EQ(flush_order.size(), 2u);
  EXPECT_EQ(flush_order[0], 1u);  // oldest-dirtied first
  EXPECT_EQ(flush_order[1], 2u);
}

TEST_F(BufferPoolTest, LazyWriterSkipsStaleFifoEntries) {
  pool_.set_dirty_watermark(1);
  PageHandle h;
  ASSERT_TRUE(pool_.Get(1, PageClass::kData, &h).ok());
  h.MarkDirty(5);
  h.Release();
  ASSERT_TRUE(pool_.FlushPage(1).ok());  // manual flush: FIFO entry now stale
  PageHandle h2, h3;
  ASSERT_TRUE(pool_.Get(2, PageClass::kData, &h2).ok());
  h2.MarkDirty(6);
  ASSERT_TRUE(pool_.Get(3, PageClass::kData, &h3).ok());
  h3.MarkDirty(7);
  h2.Release();
  h3.Release();
  ASSERT_TRUE(pool_.LazyWriterTick().ok());
  EXPECT_EQ(pool_.dirty_pages(), 1u);
  EXPECT_FALSE(pool_.IsLoaded(2) && pool_.dirty_pages() == 2);
}

TEST_F(BufferPoolTest, PrefetchBatchesContiguousRuns) {
  const std::vector<PageId> pids = {10, 11, 12, 13, 30, 31, 50};
  const uint32_t issued = pool_.Prefetch(pids, PageClass::kData);
  EXPECT_EQ(issued, 7u);
  // 10..13 is one run (max_batch=4), 30..31 one, 50 one => 3 read I/Os.
  EXPECT_EQ(disk_.stats().read_ios, 3u);
  EXPECT_EQ(disk_.stats().batched_reads, 2u);
  EXPECT_EQ(pool_.stats().prefetch_issued, 7u);
}

TEST_F(BufferPoolTest, PrefetchedPageServedWithoutNewIo) {
  pool_.Prefetch(std::vector<PageId>{9}, PageClass::kData);
  EXPECT_TRUE(pool_.IsResidentOrPending(9));
  EXPECT_FALSE(pool_.IsLoaded(9));
  PageHandle h;
  ASSERT_TRUE(pool_.Get(9, PageClass::kData, &h).ok());
  EXPECT_EQ(h.view().payload()[0], 9);
  EXPECT_EQ(disk_.stats().read_ios, 1u);  // only the prefetch I/O
  EXPECT_EQ(pool_.stats().prefetch_used, 1u);
  EXPECT_EQ(pool_.stats().misses, 0u);
}

TEST_F(BufferPoolTest, GetOnPendingPageWaitsOnlyUntilCompletion) {
  pool_.Prefetch(std::vector<PageId>{9}, PageClass::kData);
  const double completion = disk_.IdleAtMs();
  PageHandle h;
  ASSERT_TRUE(pool_.Get(9, PageClass::kData, &h).ok());
  EXPECT_DOUBLE_EQ(clock_.NowMs(), completion);
}

TEST_F(BufferPoolTest, PrefetchSkipsResidentPages) {
  PageHandle h;
  ASSERT_TRUE(pool_.Get(9, PageClass::kData, &h).ok());
  h.Release();
  const uint32_t issued =
      pool_.Prefetch(std::vector<PageId>{9, 10}, PageClass::kData);
  EXPECT_EQ(issued, 1u);
}

/// Named regression: a prefetch run the pool could not supply frames for
/// handed back the frames its evictions had just freed and dropped the rest
/// of the batch. In a full 4-frame pool with 2 pinned pages,
/// Prefetch({10, 11, 12}) evicted both cached pages and issued nothing.
TEST_F(BufferPoolTest, PrefetchShortOfFramesIssuesWhatFits) {
  BufferPool pool(&clock_, &disk_, /*capacity=*/4, kPageSize,
                  /*max_batch=*/4);
  EXPECT_EQ(pool.unused_frames(), 4u);
  std::vector<PageHandle> pins(2);
  ASSERT_TRUE(pool.Get(1, PageClass::kData, &pins[0]).ok());
  ASSERT_TRUE(pool.Get(2, PageClass::kData, &pins[1]).ok());
  for (PageId pid : {3, 4}) {
    PageHandle h;
    ASSERT_TRUE(pool.Get(pid, PageClass::kData, &h).ok());
  }
  EXPECT_EQ(pool.unused_frames(), 0u);
  const uint64_t ios_before = disk_.stats().read_ios;

  const uint32_t issued =
      pool.Prefetch(std::vector<PageId>{10, 11, 12}, PageClass::kData);
  EXPECT_EQ(issued, 2u);
  EXPECT_EQ(pool.stats().evictions, 2u);
  // The run shrank to its leading pages: one I/O for 10 and 11.
  EXPECT_TRUE(pool.IsResidentOrPending(10));
  EXPECT_TRUE(pool.IsResidentOrPending(11));
  EXPECT_FALSE(pool.IsResidentOrPending(12));
  EXPECT_EQ(disk_.stats().read_ios - ios_before, 1u);
  EXPECT_EQ(pool.stats().prefetch_issued, 2u);
  PageHandle h;
  ASSERT_TRUE(pool.Get(11, PageClass::kData, &h).ok());
  EXPECT_EQ(h.view().payload()[0], 11);
}

// ---- Span read-ahead: one read over every wanted pid within
// max_batch_pages pids of its first page ----

TEST_F(BufferPoolTest, PrefetchSpansEveryWantedPidWithinMaxBatchPages) {
  BufferPool pool(&clock_, &disk_, /*capacity=*/8, kPageSize,
                  /*max_batch=*/8);
  EXPECT_EQ(pool.Prefetch(std::vector<PageId>{10, 13, 17}, PageClass::kData),
            3u);
  EXPECT_EQ(disk_.stats().read_ios, 1u);
  EXPECT_EQ(disk_.stats().batched_reads, 1u);
  EXPECT_EQ(disk_.stats().pages_read, 8u);  // 10..17
  EXPECT_EQ(disk_.stats().gap_pages, 5u);
  EXPECT_EQ(pool.stats().prefetch_issued, 3u);
  EXPECT_EQ(pool.stats().data_fetches, 3u);  // a gap page is no fetch
  for (PageId gap : {11, 12, 14, 15, 16}) {
    EXPECT_FALSE(pool.IsResidentOrPending(gap)) << gap;
  }
  pool.Reset();
  // 18 lies max_batch_pages pids past 10, out of its span.
  EXPECT_EQ(pool.Prefetch(std::vector<PageId>{10, 18}, PageClass::kData), 2u);
  EXPECT_EQ(disk_.stats().read_ios, 3u);
  EXPECT_EQ(disk_.stats().gap_pages, 5u);
}

TEST_F(BufferPoolTest, SpanNeverInstallsItsGapPages) {
  // Span 10..14 wants 10 and 14. Its gap pages: 11 dirty and resident, 12
  // freed (a merge discarded it), 13 clean on the device.
  BufferPool pool(&clock_, &disk_, /*capacity=*/8, kPageSize,
                  /*max_batch=*/8);
  {
    PageHandle h;
    ASSERT_TRUE(pool.Get(11, PageClass::kData, &h).ok());
    h.view().payload()[1] = 0xEE;
    h.MarkDirty(7);
  }
  {
    PageHandle h;
    ASSERT_TRUE(pool.Get(12, PageClass::kData, &h).ok());
    h.MarkDirty(8);
  }
  ASSERT_TRUE(pool.Discard(12));
  const SimDisk::Stats before = disk_.stats();
  EXPECT_EQ(pool.Prefetch(std::vector<PageId>{10, 14}, PageClass::kData), 2u);
  EXPECT_EQ(disk_.stats().read_ios - before.read_ios, 1u);
  EXPECT_EQ(disk_.stats().gap_pages - before.gap_pages, 3u);
  EXPECT_FALSE(pool.IsResidentOrPending(12));
  EXPECT_FALSE(pool.IsResidentOrPending(13));
  EXPECT_TRUE(pool.IsLoaded(11));
  EXPECT_EQ(pool.dirty_pages(), 1u);
  clock_.AdvanceMs(100);  // the span has landed
  PageHandle h;
  ASSERT_TRUE(pool.Get(11, PageClass::kData, &h).ok());
  EXPECT_EQ(h.view().payload()[1], 0xEE);  // not the stable image
  EXPECT_EQ(h.view().plsn(), 7u);
}

TEST_F(BufferPoolTest, CorruptGapPageIsNeverVerified) {
  // Stamp page 11's checksum, then flip a bit of its stable image.
  {
    PageHandle h;
    ASSERT_TRUE(pool_.Get(11, PageClass::kData, &h).ok());
    h.MarkDirty(11);
  }
  ASSERT_TRUE(pool_.FlushPage(11).ok());
  pool_.Reset();
  disk_.CorruptStableByteForTest(11, kPageHeaderSize + 3, 0x10);
  int repair_calls = 0;
  pool_.set_repair_callback([&](PageId, uint8_t*) {
    repair_calls++;
    return Status::OK();
  });
  const uint64_t ios = disk_.stats().read_ios;
  EXPECT_EQ(pool_.Prefetch(std::vector<PageId>{10, 12}, PageClass::kData), 2u);
  EXPECT_EQ(disk_.stats().read_ios - ios, 1u);  // 10..12, 11 read through
  clock_.AdvanceMs(100);
  for (PageId pid : {10, 12}) {
    PageHandle h;
    ASSERT_TRUE(pool_.Get(pid, PageClass::kData, &h).ok());
    EXPECT_EQ(h.view().payload()[0], pid);
  }
  EXPECT_FALSE(pool_.IsResidentOrPending(11));
  EXPECT_EQ(pool_.stats().checksum_failures, 0u);
  EXPECT_EQ(pool_.stats().repairs, 0u);
  EXPECT_EQ(repair_calls, 0);
}

TEST(BufferPoolGapRuleTest, GapCostlierThanASeekSplitsTheRead) {
  IoModelOptions io;
  io.random_seek_ms = 1.0;        // a sorted seek costs 0.75 ms
  io.transfer_ms_per_page = 1.0;  // one gap page costs more
  SimClock clock;
  SimDisk disk(&clock, kPageSize, io);
  disk.EnsurePages(64);
  BufferPool pool(&clock, &disk, /*capacity=*/8, kPageSize, /*max_batch=*/8);
  EXPECT_EQ(pool.max_read_gap(), 0u);
  EXPECT_EQ(pool.Prefetch(std::vector<PageId>{10, 12}, PageClass::kData), 2u);
  EXPECT_EQ(disk.stats().read_ios, 2u);
  EXPECT_EQ(disk.stats().gap_pages, 0u);
  // Contiguous pages still share a read.
  EXPECT_EQ(pool.Prefetch(std::vector<PageId>{20, 21}, PageClass::kData), 2u);
  EXPECT_EQ(disk.stats().read_ios, 3u);
}

TEST_F(BufferPoolTest, CreateMaterializesZeroedPage) {
  PageHandle h;
  ASSERT_TRUE(pool_.Create(60, PageClass::kData, &h).ok());
  EXPECT_EQ(h.view().plsn(), 0u);
  EXPECT_EQ(pool_.stats().misses, 0u);
  EXPECT_EQ(disk_.stats().read_ios, 0u);
  EXPECT_TRUE(pool_.IsLoaded(60));
}

TEST_F(BufferPoolTest, ResetDropsEverything) {
  PageHandle h;
  ASSERT_TRUE(pool_.Get(4, PageClass::kData, &h).ok());
  h.MarkDirty(10);
  h.Release();
  pool_.Reset();
  EXPECT_EQ(pool_.resident_pages(), 0u);
  EXPECT_EQ(pool_.dirty_pages(), 0u);
  EXPECT_FALSE(pool_.IsResidentOrPending(4));
  // And it still works afterwards.
  PageHandle h2;
  ASSERT_TRUE(pool_.Get(4, PageClass::kData, &h2).ok());
  EXPECT_EQ(h2.view().payload()[0], 4);
}

TEST_F(BufferPoolTest, DirtyEvictionFlushesFirst) {
  // Dirty all 8 frames, then demand a 9th page.
  for (PageId pid = 0; pid < 8; pid++) {
    PageHandle h;
    ASSERT_TRUE(pool_.Get(pid, PageClass::kData, &h).ok());
    h.view().payload()[2] = 0x77;
    h.MarkDirty(100 + pid);
  }
  PageHandle h;
  ASSERT_TRUE(pool_.Get(40, PageClass::kData, &h).ok());
  EXPECT_EQ(pool_.stats().dirty_evictions, 1u);
  EXPECT_EQ(pool_.stats().flushes, 1u);
  // The victim's content reached the device.
  uint64_t written = 0;
  for (PageId pid = 0; pid < 8; pid++) {
    if (disk_.ImageData(pid)[kPageHeaderSize + 2] == 0x77) written++;
  }
  EXPECT_EQ(written, 1u);
}

TEST_F(BufferPoolTest, CallbacksCanBeDisabled) {
  int dirty_calls = 0, flush_calls = 0;
  pool_.set_dirty_callback([&](PageId, Lsn, bool) { dirty_calls++; });
  pool_.set_flush_callback([&](PageId, Lsn) { flush_calls++; });
  pool_.set_callbacks_enabled(false);
  PageHandle h;
  ASSERT_TRUE(pool_.Get(4, PageClass::kData, &h).ok());
  h.MarkDirty(9);
  h.Release();
  ASSERT_TRUE(pool_.FlushPage(4).ok());
  EXPECT_EQ(dirty_calls, 0);
  EXPECT_EQ(flush_calls, 0);
}

// ---------------------------------------------------------------------------
// Media failures (PR 7): checksum stamping/verification, transient-error
// retry with backoff, and the repair-callback path.
// ---------------------------------------------------------------------------

TEST_F(BufferPoolTest, FlushStampsChecksumAndReadVerifiesIt) {
  // The fixture seeds pages via WriteImageDirect without stamping, so the
  // stored checksum is the legacy 0 marker.
  PageView before(const_cast<uint8_t*>(disk_.ImageData(4)), kPageSize);
  EXPECT_EQ(before.checksum(), 0u);
  PageHandle h;
  ASSERT_TRUE(pool_.Get(4, PageClass::kData, &h).ok());
  h.view().payload()[1] = 0xAB;
  h.MarkDirty(42);
  h.Release();
  ASSERT_TRUE(pool_.FlushPage(4).ok());
  // The flushed image carries a real (non-zero) CRC that verifies.
  PageView after(const_cast<uint8_t*>(disk_.ImageData(4)), kPageSize);
  EXPECT_NE(after.checksum(), 0u);
  EXPECT_TRUE(VerifyPageChecksum(disk_.ImageData(4), kPageSize));
  // And a fresh read-in of the stamped page passes verification.
  pool_.Reset();
  PageHandle h2;
  ASSERT_TRUE(pool_.Get(4, PageClass::kData, &h2).ok());
  EXPECT_EQ(h2.view().payload()[1], 0xAB);
  EXPECT_EQ(pool_.stats().checksum_failures, 0u);
}

TEST_F(BufferPoolTest, LegacyZeroChecksumIsAccepted) {
  // Unstamped seed pages (checksum slot 0) read in without complaint.
  PageHandle h;
  ASSERT_TRUE(pool_.Get(7, PageClass::kData, &h).ok());
  EXPECT_EQ(pool_.stats().checksum_failures, 0u);
}

TEST_F(BufferPoolTest, CorruptReadSurfacesCorruptionAndRecordsPid) {
  // Stamp page 5 so corruption is detectable, then flip a payload bit.
  PageHandle h;
  ASSERT_TRUE(pool_.Get(5, PageClass::kData, &h).ok());
  h.MarkDirty(11);
  h.Release();
  ASSERT_TRUE(pool_.FlushPage(5).ok());
  pool_.Reset();
  disk_.CorruptStableByteForTest(5, kPageHeaderSize + 3, 0x10);
  PageHandle h2;
  EXPECT_TRUE(pool_.Get(5, PageClass::kData, &h2).IsCorruption());
  EXPECT_EQ(pool_.stats().checksum_failures, 1u);
  EXPECT_EQ(pool_.last_corrupt_pid(), 5u);
  EXPECT_EQ(pool_.TakeCorruptPage(), 5u);
  EXPECT_EQ(pool_.TakeCorruptPage(), kInvalidPageId);  // cleared on read
  // The failed Get left no half-loaded frame behind: the pool still works.
  PageHandle h3;
  ASSERT_TRUE(pool_.Get(6, PageClass::kData, &h3).ok());
}

// Regression: last_corrupt_pid_/TakeCorruptPage() used to read and clear
// the corrupt-page slot with NO latch, racing the miss path writing it
// under miss_mu_ — the thread-safety annotation sweep (PR 10) flagged the
// unguarded access. Concurrent readers tripping the corrupt page while
// another thread drains TakeCorruptPage() must race-free observe either
// the corrupt pid or the cleared sentinel, never a torn value (TSan in CI
// proves the "race-free" half).
TEST_F(BufferPoolTest, CorruptPidHandoffIsLatchedAcrossThreads) {
  PageHandle h;
  ASSERT_TRUE(pool_.Get(5, PageClass::kData, &h).ok());
  h.MarkDirty(11);
  h.Release();
  ASSERT_TRUE(pool_.FlushPage(5).ok());
  pool_.Reset();
  // The flip stays on stable storage (no repair callback), so every
  // fresh Get of page 5 re-trips verification and re-records the pid.
  disk_.CorruptStableByteForTest(5, kPageHeaderSize + 3, 0x10);

  constexpr int kReaders = 3;
  constexpr int kItersPerReader = 200;
  std::atomic<bool> bad_value{false};
  std::atomic<uint64_t> taken{0};
  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (int t = 0; t < kReaders; t++) {
    threads.emplace_back([this, &bad_value] {
      for (int i = 0; i < kItersPerReader; i++) {
        PageHandle ph;
        if (!pool_.Get(5, PageClass::kData, &ph).IsCorruption()) {
          bad_value.store(true);
        }
      }
    });
  }
  threads.emplace_back([this, &bad_value, &taken] {
    for (int i = 0; i < kReaders * kItersPerReader; i++) {
      const PageId peek = pool_.last_corrupt_pid();
      if (peek != kInvalidPageId && peek != 5u) bad_value.store(true);
      const PageId got = pool_.TakeCorruptPage();
      if (got == 5u) {
        taken.fetch_add(1);
      } else if (got != kInvalidPageId) {
        bad_value.store(true);
      }
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_FALSE(bad_value.load());
  // The readers re-recorded the pid on every failed Get; the drainer must
  // have seen it at least once, and a final take drains whatever is left.
  const PageId last = pool_.TakeCorruptPage();
  EXPECT_TRUE(last == 5u || last == kInvalidPageId);
  if (last == 5u) taken.fetch_add(1);
  EXPECT_GE(taken.load(), 1u);
  EXPECT_EQ(pool_.TakeCorruptPage(), kInvalidPageId);
}

TEST_F(BufferPoolTest, RepairCallbackRebuildsCorruptPage) {
  PageHandle h;
  ASSERT_TRUE(pool_.Get(5, PageClass::kData, &h).ok());
  h.MarkDirty(11);
  h.Release();
  ASSERT_TRUE(pool_.FlushPage(5).ok());
  pool_.Reset();
  disk_.CorruptStableByteForTest(5, kPageHeaderSize + 3, 0x10);
  // Repair = undo the known flip in place and restore the stable image,
  // exactly the PageRepairer contract (frame fixed + device fixed).
  pool_.set_repair_callback([this](PageId pid, uint8_t* frame_data) {
    frame_data[kPageHeaderSize + 3] ^= 0x10;
    disk_.WriteImageDirect(pid, frame_data);
    return Status::OK();
  });
  PageHandle h2;
  ASSERT_TRUE(pool_.Get(5, PageClass::kData, &h2).ok());
  EXPECT_EQ(h2.view().payload()[0], 5);
  EXPECT_EQ(pool_.stats().checksum_failures, 1u);
  EXPECT_EQ(pool_.stats().repairs, 1u);
  EXPECT_EQ(pool_.last_corrupt_pid(), kInvalidPageId);
}

class BufferPoolFaultTest : public ::testing::Test {
 protected:
  static IoModelOptions FaultyIo(double read_rate, double write_rate) {
    IoModelOptions io;
    io.faults.seed = 20110807;
    io.faults.read_error_rate = read_rate;
    io.faults.write_error_rate = write_rate;
    io.faults.max_failure_burst = 2;
    // BufferPool::kIoRetryLimit = 4 extra attempts, kIoBackoffBaseMs = 0.5.
    return io;
  }

  BufferPoolFaultTest(double read_rate, double write_rate)
      : disk_(&clock_, kPageSize, FaultyIo(read_rate, write_rate)),
        pool_(&clock_, &disk_, /*capacity=*/8, kPageSize) {
    disk_.EnsurePages(64);
    std::vector<uint8_t> buf(kPageSize, 0);
    for (PageId pid = 0; pid < 64; pid++) {
      PageView p(buf.data(), kPageSize);
      p.Format(pid, PageType::kLeaf, 0);
      p.payload()[0] = static_cast<uint8_t>(pid);
      disk_.WriteImageDirect(pid, buf.data());
    }
  }

  SimClock clock_;
  SimDisk disk_;
  BufferPool pool_;
};

class BufferPoolTransientReadTest : public BufferPoolFaultTest {
 protected:
  BufferPoolTransientReadTest() : BufferPoolFaultTest(0.5, 0.0) {}
};

TEST_F(BufferPoolTransientReadTest, RetriesWithBackoffUntilSuccess) {
  // At a 50% error rate most Gets succeed after in-pool retries; a rare
  // chain of independent triggers can still outlast the 4-attempt budget,
  // in which case the Get surfaces IOError (never a wrong page).
  uint32_t ok = 0, io_errors = 0;
  for (PageId pid = 0; pid < 32; pid++) {
    PageHandle h;
    const Status s = pool_.Get(pid, PageClass::kData, &h);
    if (s.ok()) {
      ok++;
      EXPECT_EQ(h.view().payload()[0], static_cast<uint8_t>(pid));
    } else {
      ASSERT_TRUE(s.IsIOError()) << "pid " << pid << ": " << s.ToString();
      io_errors++;
    }
  }
  EXPECT_GT(ok, 16u);  // deterministic for this seed; most reads make it
  EXPECT_GT(pool_.stats().io_retries, io_errors * 4);  // real retry traffic
  EXPECT_GT(pool_.stats().backoff_ms, 0.0);
  EXPECT_GT(disk_.injector().stats().read_errors, 0u);
}

TEST_F(BufferPoolTransientReadTest, FailedSpanRetriesTheWholeSpan) {
  // Four spans of 4 pids, each wanting its first and last page: every
  // attempt, failed or not, is one read of the whole span.
  uint64_t spans_read = 0;
  for (PageId first : {1, 11, 21, 31}) {
    pool_.Prefetch(std::vector<PageId>{first, first + 3}, PageClass::kData);
    EXPECT_EQ(pool_.IsResidentOrPending(first),
              pool_.IsResidentOrPending(first + 3));
    spans_read += pool_.IsResidentOrPending(first);
  }
  const SimDisk::Stats& ds = disk_.stats();
  EXPECT_GT(ds.read_errors, 0u);
  EXPECT_GT(spans_read, 0u);
  EXPECT_EQ(ds.read_ios, 4u + pool_.stats().io_retries);
  EXPECT_EQ(ds.batched_reads, ds.read_ios);
  EXPECT_EQ(ds.pages_read, 4u * spans_read);  // only successful attempts
  EXPECT_EQ(ds.gap_pages, 2u * spans_read);
  clock_.AdvanceMs(1000);
  for (PageId first : {1, 11, 21, 31}) {
    if (!pool_.IsResidentOrPending(first)) continue;
    for (PageId pid : {first, first + 3}) {
      PageHandle h;
      ASSERT_TRUE(pool_.Get(pid, PageClass::kData, &h).ok());
      EXPECT_EQ(h.view().payload()[0], pid);
    }
  }
}

class BufferPoolReadExhaustionTest : public BufferPoolFaultTest {
 protected:
  BufferPoolReadExhaustionTest() : BufferPoolFaultTest(1.0, 0.0) {}
};

TEST_F(BufferPoolReadExhaustionTest, ExhaustedRetriesSurfaceIOError) {
  // rate 1.0: every attempt fails, so the retry budget runs out.
  PageHandle h;
  EXPECT_TRUE(pool_.Get(3, PageClass::kData, &h).IsIOError());
  EXPECT_FALSE(pool_.IsResidentOrPending(3));  // no stuck frame
  EXPECT_EQ(pool_.stats().io_retries, 4u);     // the full budget
  EXPECT_GT(pool_.stats().backoff_ms, 0.0);
}

class BufferPoolWriteExhaustionTest : public BufferPoolFaultTest {
 protected:
  BufferPoolWriteExhaustionTest() : BufferPoolFaultTest(0.0, 1.0) {}
};

TEST_F(BufferPoolWriteExhaustionTest, FailedFlushLeavesPageDirty) {
  PageHandle h;
  ASSERT_TRUE(pool_.Get(4, PageClass::kData, &h).ok());
  h.view().payload()[1] = 0xCD;
  h.MarkDirty(50);
  h.Release();
  EXPECT_TRUE(pool_.FlushPage(4).IsIOError());
  EXPECT_EQ(pool_.dirty_pages(), 1u);  // still dirty: retryable later
  EXPECT_EQ(disk_.ImageData(4)[kPageHeaderSize + 1], 0u);  // image untouched
  // FlushAllDirty reports the same failure rather than losing the page.
  uint64_t flushed = 0;
  EXPECT_TRUE(pool_.FlushAllDirty(&flushed).IsIOError());
  EXPECT_EQ(flushed, 0u);
  EXPECT_EQ(pool_.dirty_pages(), 1u);
}

// ---------------------------------------------------------------------------
// PageTable: the open-addressed pid -> frame map under the pool. Exercised
// directly at the tiny (32-frame, `--smoke`) geometry where probe chains
// collide and wrap.
// ---------------------------------------------------------------------------

namespace {

/// Find `n` distinct pids that all hash to `target_bucket`.
std::vector<PageId> CollidingPids(const PageTable& t, size_t target_bucket,
                                  size_t n) {
  std::vector<PageId> out;
  for (PageId pid = 0; out.size() < n && pid < 1'000'000; pid++) {
    if (t.Bucket(pid) == target_bucket) out.push_back(pid);
  }
  return out;
}

}  // namespace

TEST(PageTableTest, InsertFindEraseBasics) {
  PageTable t(32);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.Find(1), nullptr);
  t.Put(1, 10);
  t.Put(2, 20);
  ASSERT_NE(t.Find(1), nullptr);
  EXPECT_EQ(*t.Find(1), 10u);
  EXPECT_EQ(*t.Find(2), 20u);
  t.Put(1, 11);  // overwrite
  EXPECT_EQ(*t.Find(1), 11u);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_TRUE(t.Erase(1));
  EXPECT_FALSE(t.Erase(1));
  EXPECT_EQ(t.Find(1), nullptr);
  EXPECT_EQ(*t.Find(2), 20u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(PageTableTest, CollidingKeysProbeAndEraseCorrectly) {
  PageTable t(32);  // 64 slots
  const std::vector<PageId> pids = CollidingPids(t, /*target_bucket=*/5, 8);
  ASSERT_EQ(pids.size(), 8u);
  for (uint32_t i = 0; i < pids.size(); i++) t.Put(pids[i], 100 + i);
  for (uint32_t i = 0; i < pids.size(); i++) {
    ASSERT_NE(t.Find(pids[i]), nullptr) << "pid " << pids[i];
    EXPECT_EQ(*t.Find(pids[i]), 100 + i);
  }
  // Erase from the middle of the chain; the backward shift must keep every
  // other colliding key reachable.
  EXPECT_TRUE(t.Erase(pids[3]));
  EXPECT_TRUE(t.Erase(pids[0]));
  EXPECT_EQ(t.Find(pids[3]), nullptr);
  EXPECT_EQ(t.Find(pids[0]), nullptr);
  for (uint32_t i : {1u, 2u, 4u, 5u, 6u, 7u}) {
    ASSERT_NE(t.Find(pids[i]), nullptr) << "lost pid " << pids[i];
    EXPECT_EQ(*t.Find(pids[i]), 100 + i);
  }
}

TEST(PageTableTest, ProbeChainsWrapAroundTheTableEnd) {
  PageTable t(32);  // 64 slots
  const size_t last = t.slot_count() - 1;
  // Enough keys homed at the LAST bucket that their chain must wrap to 0.
  const std::vector<PageId> pids = CollidingPids(t, last, 6);
  ASSERT_EQ(pids.size(), 6u);
  for (uint32_t i = 0; i < pids.size(); i++) t.Put(pids[i], i);
  for (uint32_t i = 0; i < pids.size(); i++) {
    ASSERT_NE(t.Find(pids[i]), nullptr);
    EXPECT_EQ(*t.Find(pids[i]), i);
  }
  // Erase across the wrap boundary, then reinsert.
  for (PageId pid : pids) EXPECT_TRUE(t.Erase(pid));
  EXPECT_EQ(t.size(), 0u);
  for (uint32_t i = 0; i < pids.size(); i++) t.Put(pids[i], 50 + i);
  for (uint32_t i = 0; i < pids.size(); i++) {
    ASSERT_NE(t.Find(pids[i]), nullptr);
    EXPECT_EQ(*t.Find(pids[i]), 50 + i);
  }
}

TEST(PageTableTest, EraseReinsertChurnAtFullLoad) {
  // The `--smoke` bench geometry: a 32-page pool, table permanently at its
  // maximum load factor while eviction churns the mapping.
  PageTable t(32);
  for (PageId pid = 0; pid < 32; pid++) t.Put(pid, pid);
  for (uint32_t round = 1; round <= 200; round++) {
    // Evict one pid, admit another (sliding window), like clock eviction.
    EXPECT_TRUE(t.Erase(round - 1));
    t.Put(31 + round, round);
    ASSERT_EQ(t.size(), 32u);
    EXPECT_EQ(t.Find(round - 1), nullptr);
    ASSERT_NE(t.Find(31 + round), nullptr);
    EXPECT_EQ(*t.Find(31 + round), round);
  }
  // Window is now [200, 232): every member findable, everything else gone.
  for (PageId pid = 200; pid < 232; pid++) {
    ASSERT_NE(t.Find(pid), nullptr) << "pid " << pid;
  }
  for (PageId pid = 0; pid < 200; pid++) {
    EXPECT_EQ(t.Find(pid), nullptr) << "pid " << pid;
  }
}

TEST(PageTableTest, MirrorsUnorderedMapUnderRandomChurn) {
  PageTable t(64);
  std::unordered_map<PageId, uint32_t> ref;
  uint32_t x = 123456789;  // xorshift
  for (int step = 0; step < 20'000; step++) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    const PageId pid = x % 509;  // prime: uneven bucket pressure
    if (ref.size() >= 64 || (ref.count(pid) != 0 && x % 3 == 0)) {
      EXPECT_EQ(t.Erase(pid), ref.erase(pid) > 0);
    } else {
      const uint32_t frame = x % 64;
      t.Put(pid, frame);
      ref[pid] = frame;
    }
    if (step % 97 == 0) {
      for (const auto& [p, f] : ref) {
        ASSERT_NE(t.Find(p), nullptr) << "pid " << p;
        ASSERT_EQ(*t.Find(p), f);
      }
    }
  }
  ASSERT_EQ(t.size(), ref.size());
}

TEST(PageTableTest, ClearEmptiesWithoutShrinking) {
  PageTable t(8);
  const size_t slots = t.slot_count();
  for (PageId pid = 0; pid < 8; pid++) t.Put(pid, pid);
  t.Clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.slot_count(), slots);
  for (PageId pid = 0; pid < 8; pid++) EXPECT_EQ(t.Find(pid), nullptr);
  t.Put(3, 33);
  EXPECT_EQ(*t.Find(3), 33u);
}

// Pool-level integration at the tiny geometry: heavy eviction churn in an
// 8-frame pool keeps the mapping exact (every resident page served from the
// right frame).
TEST_F(BufferPoolTest, TableStaysExactUnderEvictionChurn) {
  for (int round = 0; round < 400; round++) {
    const PageId pid = static_cast<PageId>((round * 13) % 64);
    PageHandle h;
    ASSERT_TRUE(pool_.Get(pid, PageClass::kData, &h).ok());
    EXPECT_EQ(h.view().payload()[0], static_cast<uint8_t>(pid));
  }
  EXPECT_EQ(pool_.resident_pages(), 8u);
  EXPECT_GT(pool_.stats().evictions, 300u);
}

}  // namespace
}  // namespace deutero
