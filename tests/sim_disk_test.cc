// Unit tests for the simulated clock and disk cost model, and for the
// deterministic media-fault injection (PR 7): transient failures, latency
// spikes, bit flips, and the torn-write crash contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "sim/clock.h"
#include "sim/fault_injector.h"
#include "sim/sim_disk.h"

namespace deutero {
namespace {

IoModelOptions TestIo() {
  IoModelOptions io;
  io.random_seek_ms = 5.0;
  io.transfer_ms_per_page = 0.1;
  io.sorted_seek_factor = 0.8;
  io.write_seek_ms = 2.0;
  io.io_channels = 1;
  return io;
}

// Completion-time helpers asserting the Status contract introduced with
// fault injection (the pre-fault tests below only schedule clean I/O).
double MustRead(SimDisk& disk, PageId pid, bool sorted) {
  double t = 0;
  EXPECT_TRUE(disk.ScheduleRead(pid, sorted, &t).ok());
  return t;
}

double MustReadRun(SimDisk& disk, PageId first, uint32_t count, bool sorted) {
  double t = 0;
  EXPECT_TRUE(disk.ScheduleReadRun(first, count, sorted, &t).ok());
  return t;
}

double MustWrite(SimDisk& disk, PageId pid, const void* data) {
  double t = 0;
  EXPECT_TRUE(disk.ScheduleWrite(pid, data, &t).ok());
  return t;
}

TEST(SimClockTest, AdvanceAndAdvanceTo) {
  SimClock c;
  EXPECT_DOUBLE_EQ(c.NowMs(), 0.0);
  c.AdvanceMs(5.0);
  EXPECT_DOUBLE_EQ(c.NowMs(), 5.0);
  EXPECT_DOUBLE_EQ(c.AdvanceToMs(3.0), 0.0);  // past: no-op
  EXPECT_DOUBLE_EQ(c.NowMs(), 5.0);
  EXPECT_DOUBLE_EQ(c.AdvanceToMs(9.0), 4.0);
  EXPECT_DOUBLE_EQ(c.NowMs(), 9.0);
  c.AdvanceUs(500);
  EXPECT_DOUBLE_EQ(c.NowMs(), 9.5);
  c.Reset();
  EXPECT_DOUBLE_EQ(c.NowMs(), 0.0);
}

TEST(SimClockTest, NegativeAdvanceIgnored) {
  SimClock c;
  c.AdvanceMs(-1.0);
  EXPECT_DOUBLE_EQ(c.NowMs(), 0.0);
}

TEST(SimDiskTest, SingleReadCost) {
  SimClock clock;
  SimDisk disk(&clock, 512, TestIo());
  disk.EnsurePages(10);
  EXPECT_DOUBLE_EQ(MustRead(disk, 3, /*sorted=*/false), 5.1);
  EXPECT_EQ(disk.stats().read_ios, 1u);
  EXPECT_EQ(disk.stats().pages_read, 1u);
}

TEST(SimDiskTest, SortedReadIsCheaper) {
  SimClock clock;
  SimDisk disk(&clock, 512, TestIo());
  disk.EnsurePages(10);
  EXPECT_DOUBLE_EQ(MustRead(disk, 3, /*sorted=*/true), 5.0 * 0.8 + 0.1);
}

TEST(SimDiskTest, BatchReadAmortizesSeek) {
  SimClock clock;
  SimDisk disk(&clock, 512, TestIo());
  disk.EnsurePages(20);
  EXPECT_DOUBLE_EQ(MustReadRun(disk, 4, 8, /*sorted=*/false), 5.0 + 8 * 0.1);
  EXPECT_EQ(disk.stats().read_ios, 1u);
  EXPECT_EQ(disk.stats().pages_read, 8u);
  EXPECT_EQ(disk.stats().batched_reads, 1u);
}

TEST(SimDiskTest, GapRuleReadsThroughWhileTransferBeatsTheSeek) {
  SimClock clock;
  SimDisk disk(&clock, 512, TestIo());
  // 39 gap pages (3.9 ms) beat a 4 ms sorted seek; 40 do not.
  EXPECT_EQ(disk.MaxReadThroughGap(), 39u);
  IoModelOptions slow = TestIo();
  slow.transfer_ms_per_page = 5.0;
  EXPECT_EQ(SimDisk(&clock, 512, slow).MaxReadThroughGap(), 0u);
  // The default model reads through every gap inside an 8-page run.
  EXPECT_GE(SimDisk(&clock, 512, IoModelOptions{}).MaxReadThroughGap(), 6u);
}

TEST(SimDiskTest, SpanChargesAndCountsItsGapPages) {
  SimClock clock;
  SimDisk disk(&clock, 512, TestIo());
  disk.EnsurePages(20);
  double t = 0;
  ASSERT_TRUE(disk.ScheduleReadRun(4, 8, /*sorted=*/true, &t,
                                   /*gap_pages=*/5)
                  .ok());
  EXPECT_DOUBLE_EQ(t, 5.0 * 0.8 + 8 * 0.1);  // gap pages cost transfer
  EXPECT_EQ(disk.stats().pages_read, 8u);
  EXPECT_EQ(disk.stats().gap_pages, 5u);
}

TEST(SimDiskTest, RequestsQueueOnOneChannel) {
  SimClock clock;
  SimDisk disk(&clock, 512, TestIo());
  disk.EnsurePages(10);
  EXPECT_DOUBLE_EQ(MustRead(disk, 1, false), 5.1);
  EXPECT_DOUBLE_EQ(MustRead(disk, 2, false), 10.2);  // waits for the first
}

TEST(SimDiskTest, MultipleChannelsOverlap) {
  SimClock clock;
  IoModelOptions io = TestIo();
  io.io_channels = 2;
  SimDisk disk(&clock, 512, io);
  disk.EnsurePages(10);
  EXPECT_DOUBLE_EQ(MustRead(disk, 1, false), 5.1);
  EXPECT_DOUBLE_EQ(MustRead(disk, 2, false), 5.1);  // second channel
  EXPECT_DOUBLE_EQ(MustRead(disk, 3, false), 10.2);
}

TEST(SimDiskTest, RequestStartsNoEarlierThanNow) {
  SimClock clock;
  SimDisk disk(&clock, 512, TestIo());
  disk.EnsurePages(4);
  clock.AdvanceMs(100.0);
  EXPECT_DOUBLE_EQ(MustRead(disk, 1, false), 105.1);
}

TEST(SimDiskTest, WriteUpdatesImageImmediately) {
  SimClock clock;
  SimDisk disk(&clock, 8, TestIo());
  disk.EnsurePages(2);
  const uint8_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  MustWrite(disk, 1, data);
  uint8_t out[8] = {};
  disk.ReadImage(1, out);
  EXPECT_EQ(0, memcmp(data, out, 8));
  EXPECT_EQ(disk.stats().write_ios, 1u);
}

TEST(SimDiskTest, EnsurePagesZeroFillsAndGrows) {
  SimClock clock;
  SimDisk disk(&clock, 16, TestIo());
  disk.EnsurePages(3);
  EXPECT_EQ(disk.num_pages(), 3u);
  uint8_t out[16];
  disk.ReadImage(2, out);
  for (uint8_t b : out) EXPECT_EQ(b, 0);
  disk.EnsurePages(2);  // shrink is a no-op
  EXPECT_EQ(disk.num_pages(), 3u);
}

TEST(SimDiskTest, ResetTimeClearsQueue) {
  SimClock clock;
  SimDisk disk(&clock, 16, TestIo());
  disk.EnsurePages(4);
  MustRead(disk, 0, false);
  EXPECT_GT(disk.IdleAtMs(), 0.0);
  clock.Reset();
  disk.ResetTime();
  EXPECT_DOUBLE_EQ(disk.IdleAtMs(), 0.0);
  EXPECT_DOUBLE_EQ(MustRead(disk, 1, false), 5.1);
}

TEST(SimDiskTest, SnapshotAndRestoreRoundTrip) {
  SimClock clock;
  SimDisk disk(&clock, 8, TestIo());
  disk.EnsurePages(2);
  const uint8_t data[8] = {9, 9, 9, 9, 9, 9, 9, 9};
  disk.WriteImageDirect(1, data);
  auto snap = disk.SnapshotImage();

  const uint8_t other[8] = {1, 1, 1, 1, 1, 1, 1, 1};
  disk.WriteImageDirect(1, other);
  disk.RestoreImage(snap);
  uint8_t out[8];
  disk.ReadImage(1, out);
  EXPECT_EQ(0, memcmp(data, out, 8));
}

TEST(SimDiskTest, SnapshotKeepsItsBytesAcrossEveryWritePath) {
  // A snapshot shares its pages with the device; no later write of the
  // device reaches it, whichever path the write takes.
  SimClock clock;
  IoModelOptions io = TestIo();
  io.faults.seed = 3;  // with rate 1.0 every scheduled write may tear
  io.faults.torn_write_rate = 1.0;
  io.faults.sector_bytes = 16;
  SimDisk disk(&clock, 64, io);
  disk.EnsurePages(6);
  for (PageId pid = 1; pid < 6; pid++) {
    const std::vector<uint8_t> img(64, static_cast<uint8_t>(pid));
    disk.WriteImageDirect(pid, img.data());
  }
  const std::vector<uint8_t> torn_over(64, 0x22);
  MustWrite(disk, 4, torn_over.data());  // a tear pending at the snapshot
  const DiskImage snap = disk.SnapshotImage();
  const auto holds = [&](const DiskImage& image, PageId pid, uint8_t fill) {
    const std::vector<uint8_t> want(64, fill);
    return std::memcmp(image.page(pid), want.data(), 64) == 0;
  };

  const std::vector<uint8_t> other(64, 0x77);
  MustWrite(disk, 1, other.data());
  disk.WriteImageDirect(2, other.data());
  disk.CorruptStableByteForTest(3, 5, 0xFF);
  disk.ApplyCrashTears();  // tears page 4 (and page 1's write) on the device
  disk.MutableImageForTest(5)[0] ^= 0x01;
  disk.EnsurePages(9);
  EXPECT_EQ(disk.num_pages(), 9u);
  ASSERT_EQ(snap.num_pages(), 6u);
  EXPECT_TRUE(holds(snap, 1, 1));
  EXPECT_TRUE(holds(snap, 2, 2));
  EXPECT_TRUE(holds(snap, 3, 3));
  EXPECT_TRUE(holds(snap, 4, 0x22));
  EXPECT_TRUE(holds(snap, 5, 5));
  EXPECT_FALSE(disk.SnapshotImage() == snap);

  // Two restores of one snapshot read the same bytes, whatever ran between.
  disk.RestoreImage(snap);
  EXPECT_EQ(disk.num_pages(), 6u);
  const DiskImage first = disk.SnapshotImage();
  MustWrite(disk, 2, other.data());
  disk.ApplyCrashTears();
  disk.RestoreImage(snap);
  EXPECT_TRUE(disk.SnapshotImage() == first);
  EXPECT_TRUE(first == snap);
  for (PageId pid = 1; pid < 6; pid++) {
    std::vector<uint8_t> out(64);
    disk.ReadImage(pid, out.data());
    EXPECT_EQ(0, std::memcmp(out.data(), snap.page(pid), 64)) << pid;
  }
}

TEST(SimDiskTest, WriteCopiesAPageOnlyWhileASnapshotHoldsIt) {
  SimClock clock;
  SimDisk disk(&clock, 8, TestIo());
  disk.EnsurePages(3);
  const uint8_t a[8] = {1, 1, 1, 1, 1, 1, 1, 1};
  const uint8_t b[8] = {2, 2, 2, 2, 2, 2, 2, 2};
  // No snapshot holds the page: every write lands in place.
  const uint8_t* page = disk.ImageData(1);
  disk.WriteImageDirect(1, a);
  MustWrite(disk, 1, b);
  EXPECT_EQ(disk.ImageData(1), page);
  {
    const DiskImage snap = disk.SnapshotImage();
    EXPECT_EQ(snap.page(1), page);  // shared, not copied
    MustWrite(disk, 1, a);          // the first write copies the page
    const uint8_t* copy = disk.ImageData(1);
    EXPECT_NE(copy, page);
    disk.WriteImageDirect(1, a);  // the copy is the device's own
    EXPECT_EQ(disk.ImageData(1), copy);
    EXPECT_EQ(disk.ImageData(2), snap.page(2));  // unwritten: still shared
    EXPECT_EQ(0, std::memcmp(snap.page(1), b, 8));
    EXPECT_EQ(0, std::memcmp(disk.ImageData(1), a, 8));
  }
  // Equality is by bytes, page by page, not by sharing.
  const DiskImage x = disk.SnapshotImage();
  disk.WriteImageDirect(2, a);
  const DiskImage y = disk.SnapshotImage();
  EXPECT_FALSE(x == y);
  disk.WriteImageDirect(2, std::vector<uint8_t>(8, 0).data());
  EXPECT_NE(disk.ImageData(2), x.page(2));
  EXPECT_TRUE(disk.SnapshotImage() == x);
}

TEST(SimDiskTest, ServiceTimeAccounting) {
  SimClock clock;
  SimDisk disk(&clock, 16, TestIo());
  disk.EnsurePages(8);
  MustRead(disk, 0, false);
  MustReadRun(disk, 1, 4, true);
  const double expected = 5.1 + (5.0 * 0.8 + 4 * 0.1);
  EXPECT_NEAR(disk.stats().read_service_ms, expected, 1e-9);
}

// ---- fault injection ----

TEST(FaultInjectorTest, SameSeedReplaysIdenticalDecisions) {
  FaultPlanOptions plan;
  plan.seed = 42;
  plan.read_error_rate = 0.3;
  plan.write_error_rate = 0.2;
  plan.latency_spike_rate = 0.1;
  plan.bit_flip_rate = 0.15;
  plan.torn_write_rate = 0.25;
  plan.sector_bytes = 64;
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 2000; i++) {
    ASSERT_EQ(a.NextReadFails(), b.NextReadFails());
    ASSERT_EQ(a.NextWriteFails(), b.NextWriteFails());
    ASSERT_DOUBLE_EQ(a.NextLatencyFactor(), b.NextLatencyFactor());
    uint32_t off_a = 0, off_b = 0;
    uint8_t mask_a = 0, mask_b = 0;
    ASSERT_EQ(a.NextBitFlip(512, &off_a, &mask_a),
              b.NextBitFlip(512, &off_b, &mask_b));
    ASSERT_EQ(off_a, off_b);
    ASSERT_EQ(mask_a, mask_b);
    uint32_t sec_a = 0, sec_b = 0;
    ASSERT_EQ(a.NextTornWrite(512, &sec_a), b.NextTornWrite(512, &sec_b));
    ASSERT_EQ(sec_a, sec_b);
  }
  EXPECT_EQ(a.stats().read_errors, b.stats().read_errors);
  EXPECT_GT(a.stats().read_errors, 0u);
  EXPECT_GT(a.stats().writes_torn, 0u);
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  FaultPlanOptions plan;
  plan.seed = 1;
  plan.read_error_rate = 0.5;
  FaultInjector a(plan);
  plan.seed = 2;
  FaultInjector b(plan);
  int diverged = 0;
  for (int i = 0; i < 200; i++) {
    if (a.NextReadFails() != b.NextReadFails()) diverged++;
  }
  EXPECT_GT(diverged, 0);
}

TEST(FaultInjectorTest, BurstsBoundedByPlan) {
  // Observed failure runs can chain independent triggers, so the bound is
  // measured on the FORCED part alone: trigger one failure, disarm the
  // plan (no re-seed), and count how many residual forced failures drain —
  // at most max_failure_burst - 1.
  int max_residual = 0;
  for (uint64_t seed = 1; seed <= 64; seed++) {
    FaultPlanOptions plan;
    plan.seed = seed;
    plan.read_error_rate = 1.0;
    plan.max_failure_burst = 3;
    FaultInjector inj(plan);
    ASSERT_TRUE(inj.NextReadFails());
    FaultPlanOptions quiet;  // all rates zero; pending burst still drains
    inj.set_plan(quiet);
    int residual = 0;
    while (inj.NextReadFails()) residual++;
    ASSERT_LE(residual, 2) << "seed " << seed;
    max_residual = std::max(max_residual, residual);
    for (int i = 0; i < 100; i++) ASSERT_FALSE(inj.NextReadFails());
  }
  EXPECT_EQ(max_residual, 2);  // the full burst length is actually reachable
}

TEST(FaultInjectorTest, SetPlanKeepsDecisionStream) {
  // Disarming mid-run must not re-seed: storms disarm mutation faults for
  // recovery and the stream simply continues fault-free.
  FaultPlanOptions plan;
  plan.seed = 11;
  plan.read_error_rate = 1.0;
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.NextReadFails());
  FaultPlanOptions quiet;  // all rates zero
  inj.set_plan(quiet);
  // A pending burst still drains deterministically; after that, no faults.
  int fails = 0;
  for (int i = 0; i < 100; i++) fails += inj.NextReadFails() ? 1 : 0;
  EXPECT_LT(fails, 100);
  EXPECT_FALSE(inj.enabled());
}

TEST(SimDiskFaultTest, TransientReadErrorChargesTimeAndKeepsImage) {
  SimClock clock;
  IoModelOptions io = TestIo();
  io.faults.seed = 5;
  io.faults.read_error_rate = 1.0;
  io.faults.max_failure_burst = 1;
  SimDisk disk(&clock, 8, io);
  disk.EnsurePages(2);
  double t = 0;
  const Status s = disk.ScheduleRead(1, false, &t);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_DOUBLE_EQ(t, 5.1);  // the arm moved; time is charged
  EXPECT_EQ(disk.stats().read_errors, 1u);
  EXPECT_EQ(disk.stats().pages_read, 0u);  // nothing transferred
}

TEST(SimDiskFaultTest, TransientWriteErrorLeavesImageUntouched) {
  SimClock clock;
  IoModelOptions io = TestIo();
  io.faults.seed = 5;
  io.faults.write_error_rate = 1.0;
  io.faults.max_failure_burst = 1;
  SimDisk disk(&clock, 8, io);
  disk.EnsurePages(2);
  const uint8_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  double t = 0;
  EXPECT_TRUE(disk.ScheduleWrite(1, data, &t).IsIOError());
  uint8_t out[8];
  disk.ReadImage(1, out);
  for (uint8_t b : out) EXPECT_EQ(b, 0);
  EXPECT_EQ(disk.stats().write_errors, 1u);
}

TEST(SimDiskFaultTest, LatencySpikeStretchesService) {
  SimClock clock;
  IoModelOptions io = TestIo();
  io.faults.seed = 5;
  io.faults.latency_spike_rate = 1.0;
  io.faults.latency_spike_factor = 10.0;
  SimDisk disk(&clock, 8, io);
  disk.EnsurePages(2);
  EXPECT_DOUBLE_EQ(MustRead(disk, 1, false), 51.0);
  EXPECT_EQ(disk.stats().latency_spikes, 1u);
}

TEST(SimDiskFaultTest, BitFlipCorruptsStableImageAfterAck) {
  SimClock clock;
  IoModelOptions io = TestIo();
  io.faults.seed = 9;
  io.faults.bit_flip_rate = 1.0;
  SimDisk disk(&clock, 64, io);
  disk.EnsurePages(2);
  std::vector<uint8_t> data(64, 0xAA);
  MustWrite(disk, 1, data.data());
  std::vector<uint8_t> out(64);
  disk.ReadImage(1, out.data());
  int bits_differing = 0;
  for (int i = 0; i < 64; i++) {
    uint8_t d = data[i] ^ out[i];
    while (d != 0) {
      bits_differing += d & 1;
      d >>= 1;
    }
  }
  EXPECT_EQ(bits_differing, 1);
  EXPECT_EQ(disk.stats().bits_flipped, 1u);
}

TEST(SimDiskFaultTest, PageZeroIsNeverCorrupted) {
  SimClock clock;
  IoModelOptions io = TestIo();
  io.faults.seed = 9;
  io.faults.bit_flip_rate = 1.0;
  io.faults.torn_write_rate = 1.0;
  io.faults.sector_bytes = 16;
  SimDisk disk(&clock, 64, io);
  disk.EnsurePages(2);
  std::vector<uint8_t> data(64, 0xAA);
  MustWrite(disk, 0, data.data());
  disk.ApplyCrashTears();
  std::vector<uint8_t> out(64);
  disk.ReadImage(0, out.data());
  EXPECT_EQ(0, memcmp(data.data(), out.data(), 64));
  EXPECT_EQ(disk.stats().bits_flipped, 0u);
  EXPECT_EQ(disk.pending_torn_writes(), 0u);
}

TEST(SimDiskFaultTest, TornWriteAppliedOnlyAtCrash) {
  SimClock clock;
  IoModelOptions io = TestIo();
  io.faults.seed = 3;  // with rate 1.0 every write is tracked in-flight
  io.faults.torn_write_rate = 1.0;
  io.faults.sector_bytes = 16;
  SimDisk disk(&clock, 64, io);
  disk.EnsurePages(2);
  std::vector<uint8_t> old_img(64, 0x11);
  disk.WriteImageDirect(1, old_img.data());
  std::vector<uint8_t> new_img(64, 0x22);
  MustWrite(disk, 1, new_img.data());
  EXPECT_EQ(disk.pending_torn_writes(), 1u);

  // Before the crash, readers see the acknowledged content in full.
  std::vector<uint8_t> out(64);
  disk.ReadImage(1, out.data());
  EXPECT_EQ(0, memcmp(new_img.data(), out.data(), 64));

  // The crash leaves a sector-granular prefix of the new content; every
  // byte is from one image or the other, never garbage.
  disk.ApplyCrashTears();
  EXPECT_EQ(disk.pending_torn_writes(), 0u);
  disk.ReadImage(1, out.data());
  for (int s = 0; s < 4; s++) {
    const uint8_t b = out[s * 16];
    ASSERT_TRUE(b == 0x11 || b == 0x22);
    for (int i = 1; i < 16; i++) ASSERT_EQ(out[s * 16 + i], b);
    if (s > 0) {  // prefix property: new sectors never follow old ones
      ASSERT_FALSE(out[(s - 1) * 16] == 0x11 && b == 0x22);
    }
  }
}

TEST(SimDiskFaultTest, DrainInFlightDestagesCleanly) {
  SimClock clock;
  IoModelOptions io = TestIo();
  io.faults.seed = 3;
  io.faults.torn_write_rate = 1.0;
  io.faults.sector_bytes = 16;
  SimDisk disk(&clock, 64, io);
  disk.EnsurePages(2);
  std::vector<uint8_t> new_img(64, 0x22);
  MustWrite(disk, 1, new_img.data());
  EXPECT_EQ(disk.pending_torn_writes(), 1u);
  disk.DrainInFlight();
  EXPECT_EQ(disk.pending_torn_writes(), 0u);
  disk.ApplyCrashTears();  // nothing left to tear
  std::vector<uint8_t> out(64);
  disk.ReadImage(1, out.data());
  EXPECT_EQ(0, memcmp(new_img.data(), out.data(), 64));
}

TEST(SimDiskFaultTest, RewriteSupersedesPendingTear) {
  SimClock clock;
  IoModelOptions io = TestIo();
  io.faults.seed = 3;
  io.faults.torn_write_rate = 1.0;
  io.faults.sector_bytes = 16;
  SimDisk disk(&clock, 64, io);
  disk.EnsurePages(2);
  std::vector<uint8_t> first(64, 0x11);
  std::vector<uint8_t> second(64, 0x22);
  MustWrite(disk, 1, first.data());
  MustWrite(disk, 1, second.data());
  EXPECT_EQ(disk.pending_torn_writes(), 1u);  // superseded, not stacked
  disk.ApplyCrashTears();
  std::vector<uint8_t> out(64);
  disk.ReadImage(1, out.data());
  // The tear composes the SECOND write over the first's acknowledged
  // content: every sector holds one of the two images.
  for (int s = 0; s < 4; s++) {
    ASSERT_TRUE(out[s * 16] == 0x11 || out[s * 16] == 0x22);
  }
}

TEST(SimDiskFaultTest, CorruptStableByteForTestFlipsBits) {
  SimClock clock;
  SimDisk disk(&clock, 16, TestIo());
  disk.EnsurePages(2);
  std::vector<uint8_t> img(16, 0x0F);
  disk.WriteImageDirect(1, img.data());
  disk.CorruptStableByteForTest(1, 3, 0xFF);
  uint8_t out[16];
  disk.ReadImage(1, out);
  EXPECT_EQ(out[3], 0xF0);
  EXPECT_EQ(out[2], 0x0F);
}

}  // namespace
}  // namespace deutero
