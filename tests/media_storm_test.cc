// Media-failure storm campaigns (PR 7): crash storms with torn writes,
// latent bit flips, transient I/O errors, and latency spikes armed during
// the workload epoch, then disarmed for recovery so every one of the five
// methods × recovery_threads {1, 2, 4} recovers the SAME damaged stable
// state — and must converge to byte-identical disk images, verified
// against one oracle carried across generations.
//
// Separate scenarios cover the repair ladder end to end:
//   * archive repair (checkpoint archive + pid-filtered logical redo)
//     exercised inline by the storm (every torn/flipped page crosses it),
//   * remote repair from a hot standby, both during a recovery retry and
//     on the normal-operation read path,
//   * graceful degradation to read-only when no repair path exists.
//
// Every campaign failure message carries the fault seed: a red run
// reproduces from the seed alone (the injector is the only randomness).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/replica.h"
#include "sim/sim_disk.h"
#include "storage/page.h"
#include "test_util.h"
#include "workload/driver.h"

namespace deutero {
namespace {

using testing_util::SmallOptions;

constexpr RecoveryMethod kMethods[] = {
    RecoveryMethod::kLog0, RecoveryMethod::kLog1, RecoveryMethod::kLog2,
    RecoveryMethod::kSql1, RecoveryMethod::kSql2};

EngineOptions StormOptions(uint64_t fault_seed) {
  EngineOptions o = SmallOptions();  // 1 KB pages
  o.num_rows = 1200;
  o.cache_pages = 96;
  o.lazy_writer_reference_cache_pages = 96;
  o.checkpoint_interval_updates = 150;
  o.media_archive = true;  // checkpoint archive feeds single-page repair
  // The injector is constructed from the engine's I/O model; rates start
  // at zero (bulk load runs clean) and the campaign arms them per
  // generation via set_plan, which keeps the seeded decision stream.
  o.io.faults.seed = fault_seed;
  return o;
}

FaultPlanOptions StormFaults() {
  FaultPlanOptions f;
  f.read_error_rate = 0.03;
  f.write_error_rate = 0.03;
  f.max_failure_burst = 2;  // < BufferPool::kIoRetryLimit: always recovers
  f.latency_spike_rate = 0.05;
  f.latency_spike_factor = 8.0;
  f.bit_flip_rate = 0.02;   // latent corruption of acknowledged writes
  f.torn_write_rate = 0.25; // in-flight writes tear at the crash
  f.sector_bytes = 128;     // 8 sectors per 1 KB page
  return f;
}

// One campaign: `generations` crash/recover cycles on a canonical engine,
// each crash image recovered side-by-side into 15 fresh engines (5 methods
// × 3 thread counts) that must all pass the oracle and destage to the
// byte-identical disk image.
void RunMediaStorm(uint64_t fault_seed, int generations) {
  SCOPED_TRACE("fault seed " + std::to_string(fault_seed));
  const EngineOptions o = StormOptions(fault_seed);
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadConfig wc;
  wc.seed = fault_seed * 31 + 7;
  wc.insert_fraction = 0.10;  // splits: SMO images in the repair tail
  wc.delete_fraction = 0.15;  // merges + tombstones
  wc.scan_fraction = 0.05;
  WorkloadDriver driver(e.get(), wc);
  FaultInjector& injector = e->dc().disk().injector();
  // Recovery resets the pool stats (RecoveryManager wants clean timing
  // counters), so the campaign totals are collected at each crash.
  uint64_t total_io_retries = 0;

  for (int gen = 0; gen < generations; gen++) {
    SCOPED_TRACE("generation " + std::to_string(gen));
    // Workload epoch under fire: transient errors retry inside the pool,
    // bit flips are caught by checksums and repaired from the archive,
    // torn writes accumulate as in-flight state until the crash.
    injector.set_plan(StormFaults());
    ASSERT_OK(driver.RunOps(150));
    ASSERT_OK(e->Checkpoint());  // refreshes the repair archive
    ASSERT_OK(driver.RunOps(150));
    ASSERT_OK(driver.RunOpsNoCommit(5));  // an uncommitted loser tail
    e->tc().ForceLog();
    driver.OnCrash();
    total_io_retries += e->dc().pool().stats().io_retries;
    e->SimulateCrash();  // applies the pending torn writes

    // Disarm mutation faults for recovery: the five methods read different
    // page sets in different orders, and divergent fault streams would
    // diverge the stable state they are all supposed to reconstruct.
    injector.set_plan(FaultPlanOptions{});

    Engine::StableSnapshot snap;
    ASSERT_OK(e->TakeStableSnapshot(&snap));

    std::vector<DiskImage> images;
    std::vector<std::string> labels;
    for (RecoveryMethod m : kMethods) {
      for (uint32_t threads : {1u, 2u, 4u}) {
        const std::string label = std::string(RecoveryMethodName(m)) +
                                  " threads=" + std::to_string(threads) +
                                  " fault seed " +
                                  std::to_string(fault_seed);
        SCOPED_TRACE(label);
        EngineOptions ot = o;
        ot.io.faults = FaultPlanOptions{};  // recovery runs fault-free
        ot.recovery_threads = threads;
        std::unique_ptr<Engine> et;
        ASSERT_OK(Engine::Open(ot, &et));
        et->SimulateCrash();
        ASSERT_OK(et->RestoreStableSnapshot(snap));
        RecoveryStats st;
        ASSERT_OK(et->Recover(m, &st));
        EXPECT_FALSE(et->degraded());

        ASSERT_OK(driver.AttachEngine(et.get()));
        uint64_t checked = 0;
        ASSERT_OK(driver.Verify(0, &checked));
        EXPECT_GT(checked, 0u);
        uint64_t seen = 0;
        ASSERT_OK(driver.VerifyScan(0, driver.fresh_key_bound() - 1, &seen));
        // CheckWellFormed reads every live page, so any page the recovery
        // pass did not touch crosses the checksum (and, if damaged, the
        // archive-repair) path here.
        uint64_t rows = 0;
        ASSERT_OK(et->dc().btree().CheckWellFormed(&rows));
        EXPECT_EQ(et->dc().btree().row_count(), rows);

        // Destage everything: the stable image now IS the recovered state.
        ASSERT_OK(et->dc().pool().FlushAllDirty());
        images.push_back(et->dc().disk().SnapshotImage());
        labels.push_back(label);
      }
    }
    for (size_t i = 1; i < images.size(); i++) {
      EXPECT_EQ(images[0], images[i])
          << labels[i] << " diverged from " << labels[0];
    }

    // The canonical engine recovers its own crash and the storm goes on.
    ASSERT_OK(e->RestoreStableSnapshot(snap));
    RecoveryStats st;
    ASSERT_OK(e->Recover(kMethods[gen % 5], &st));
    ASSERT_OK(driver.AttachEngine(e.get()));
  }

  // The campaign is only meaningful if the faults actually fired.
  const FaultInjector::Stats& fs = injector.stats();
  EXPECT_GT(fs.read_errors + fs.write_errors, 0u) << "no transient faults";
  EXPECT_GT(fs.bit_flips, 0u) << "no latent corruption";
  EXPECT_GT(fs.writes_torn, 0u) << "no torn writes";
  EXPECT_GT(total_io_retries, 0u) << "transient faults never retried";
  EXPECT_GT(e->repairer().stats().archive_captures, 0u);
}

TEST(MediaStormTest, TornWriteBitFlipCampaignSeed1) {
  RunMediaStorm(/*fault_seed=*/9001, /*generations=*/2);
}

TEST(MediaStormTest, TornWriteBitFlipCampaignSeed2) {
  RunMediaStorm(/*fault_seed=*/9002, /*generations=*/2);
}

TEST(MediaStormTest, TornWriteBitFlipCampaignSeed3) {
  RunMediaStorm(/*fault_seed=*/9003, /*generations=*/2);
}

// ---------------------------------------------------------------------------
// Remote repair: a hot standby rebuilds a leaf the archive cannot.
// ---------------------------------------------------------------------------

// Find the page of the first redoable data operation logged at or after
// `from`: recovery is guaranteed to visit it (redo or undo), so corrupting
// it makes the media failure surface DURING the recovery pass.
PageId FirstDataOpPidAfter(Engine* e, Lsn from) {
  for (auto it = e->wal().NewIterator(from, /*charge_io=*/false); it.Valid();
       it.Next()) {
    if (it.record().IsRedoableDataOp()) return it.record().pid;
  }
  return kInvalidPageId;
}

// Flip a payload bit of `pid`'s stable image; the image must carry a real
// checksum, or the corruption would go undetected by design.
void CorruptStablePage(Engine* e, PageId pid, uint32_t page_size) {
  ASSERT_NE(PageView(e->dc().disk().MutableImageForTest(pid), page_size)
                .checksum(),
            0u)
      << "page " << pid << " was never stamped: corruption undetectable";
  e->dc().disk().CorruptStableByteForTest(pid, kPageHeaderSize + 5, 0x20);
  ASSERT_FALSE(VerifyPageChecksum(e->dc().disk().ImageData(pid), page_size));
}

TEST(MediaRemoteRepairTest, RecoveryRetryRepairsFromStandbyEveryMethod) {
  EngineOptions o = StormOptions(/*fault_seed=*/0);
  o.media_archive = false;  // archive repair unavailable: standby or bust
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadConfig wc;
  wc.seed = 77;
  wc.delete_fraction = 0.10;
  WorkloadDriver driver(e.get(), wc);

  EngineOptions so = o;
  so.page_size = 2048;  // cross-geometry: rows, not pages, cross the wire
  so.cache_pages = 64;
  so.lazy_writer_reference_cache_pages = 64;
  std::unique_ptr<LogicalReplica> standby;
  ASSERT_OK(LogicalReplica::Open(so, &standby));
  ReplicationChannel channel;

  ASSERT_OK(driver.RunOps(200));
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver.RunOps(200));
  channel.Publish(*e);
  ASSERT_OK(standby->Pump(&channel));
  // More committed work the standby has NOT seen: FetchRows under-reports
  // and the repairer must replay these from the local log on top.
  ASSERT_OK(driver.RunOps(60));
  const Lsn tail_start = e->wal().next_lsn();
  ASSERT_OK(driver.RunOpsNoCommit(5));  // loser: undo must read its pages
  e->tc().ForceLog();
  driver.OnCrash();
  e->SimulateCrash();

  const PageId victim = FirstDataOpPidAfter(e.get(), tail_start);
  ASSERT_NE(victim, kInvalidPageId);
  CorruptStablePage(e.get(), victim, o.page_size);

  Engine::StableSnapshot snap;  // the corruption is part of the snapshot
  ASSERT_OK(e->TakeStableSnapshot(&snap));
  StandbyRepairSource source(standby.get());

  for (RecoveryMethod m : kMethods) {
    SCOPED_TRACE(RecoveryMethodName(m));
    ASSERT_OK(e->RestoreStableSnapshot(snap));
    e->SetRepairSource(&source);
    const uint64_t repairs_before = e->repairer().stats().remote_repairs;
    RecoveryStats st;
    ASSERT_OK(e->Recover(m, &st));
    EXPECT_FALSE(e->degraded());
    EXPECT_GT(e->repairer().stats().remote_repairs, repairs_before)
        << "recovery passed without ever hitting the corrupt page";
    uint64_t checked = 0;
    ASSERT_OK(driver.Verify(0, &checked));
    EXPECT_GT(checked, 0u);
    uint64_t rows = 0;
    ASSERT_OK(e->dc().btree().CheckWellFormed(&rows));
    e->SimulateCrash();
  }
}

TEST(MediaRemoteRepairTest, NormalOperationReadRepairsFromStandby) {
  EngineOptions o = StormOptions(/*fault_seed=*/0);
  o.media_archive = false;
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadConfig wc;
  wc.seed = 78;
  WorkloadDriver driver(e.get(), wc);

  std::unique_ptr<LogicalReplica> standby;
  ASSERT_OK(LogicalReplica::Open(o, &standby));
  ReplicationChannel channel;

  ASSERT_OK(driver.RunOps(300));
  channel.Publish(*e);
  ASSERT_OK(standby->Pump(&channel));
  ASSERT_OK(driver.RunOps(100));  // unreflected tail on top of the fetch

  // Destage and drop the cache so the victim's next read comes from the
  // (about to be corrupted) stable image.
  PageId victim = kInvalidPageId;
  ASSERT_OK(e->dc().FindLeaf(o.table_id, /*key=*/700, &victim));
  ASSERT_OK(e->dc().pool().FlushAllDirty());
  e->dc().pool().Reset();
  CorruptStablePage(e.get(), victim, o.page_size);

  StandbyRepairSource source(standby.get());
  e->SetRepairSource(&source);
  std::string value;
  ASSERT_OK(e->Read(o.table_id, 700, &value));  // corrupt -> repair -> retry
  EXPECT_EQ(value, driver.ExpectedValue(700));
  EXPECT_FALSE(e->degraded());
  EXPECT_EQ(e->repairer().stats().remote_repairs, 1u);
  EXPECT_GE(e->dc().pool().stats().checksum_failures, 1u);
  // The repair wrote the rebuilt image back: reads keep working (and the
  // whole tree is intact).
  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(0, &checked));
  uint64_t rows = 0;
  ASSERT_OK(e->dc().btree().CheckWellFormed(&rows));
}

// ---------------------------------------------------------------------------
// Graceful degradation: no archive, no standby — the engine stays up
// read-only instead of failing hard.
// ---------------------------------------------------------------------------

TEST(MediaDegradedTest, UnrepairableReadFlipsEngineReadOnly) {
  EngineOptions o = StormOptions(/*fault_seed=*/0);
  o.media_archive = false;
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadConfig wc;
  wc.seed = 79;
  WorkloadDriver driver(e.get(), wc);
  ASSERT_OK(driver.RunOps(200));

  PageId victim = kInvalidPageId;
  ASSERT_OK(e->dc().FindLeaf(o.table_id, /*key=*/50, &victim));
  PageId other = kInvalidPageId;
  ASSERT_OK(e->dc().FindLeaf(o.table_id, /*key=*/1150, &other));
  ASSERT_NE(victim, other);
  ASSERT_OK(e->dc().pool().FlushAllDirty());
  e->dc().pool().Reset();
  CorruptStablePage(e.get(), victim, o.page_size);

  std::string value;
  const Status s = e->Read(o.table_id, 50, &value);
  EXPECT_TRUE(s.IsDegraded()) << s.ToString();
  EXPECT_TRUE(e->degraded());
  // Writes are refused...
  Txn txn;
  EXPECT_TRUE(e->Begin(&txn).IsDegraded());
  EXPECT_TRUE(e->CreateTable(99, 16).IsDegraded());
  // ...but undamaged pages still serve reads (best-effort degraded mode).
  ASSERT_OK(e->Read(o.table_id, 1150, &value));
  EXPECT_EQ(value, driver.ExpectedValue(1150));
}

TEST(MediaDegradedTest, UnrepairableRecoveryOpensDegraded) {
  EngineOptions o = StormOptions(/*fault_seed=*/0);
  o.media_archive = false;
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadConfig wc;
  wc.seed = 80;
  WorkloadDriver driver(e.get(), wc);
  ASSERT_OK(driver.RunOps(200));
  ASSERT_OK(e->Checkpoint());
  const Lsn tail_start = e->wal().next_lsn();
  ASSERT_OK(driver.RunOpsNoCommit(5));
  e->tc().ForceLog();
  driver.OnCrash();
  e->SimulateCrash();

  const PageId victim = FirstDataOpPidAfter(e.get(), tail_start);
  ASSERT_NE(victim, kInvalidPageId);
  CorruptStablePage(e.get(), victim, o.page_size);

  RecoveryStats st;
  const Status s = e->Recover(RecoveryMethod::kSql1, &st);
  EXPECT_TRUE(s.IsDegraded()) << s.ToString();
  EXPECT_TRUE(e->degraded());
  // The engine is up for best-effort reads; writes stay refused.
  Txn txn;
  EXPECT_TRUE(e->Begin(&txn).IsDegraded());
  std::string value;
  EXPECT_OK(e->Read(o.table_id, 1150, &value));  // far from the damage
}

}  // namespace
}  // namespace deutero
