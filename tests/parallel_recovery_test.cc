// Partition-count equivalence sweeps for partitioned redo: for every
// recovery method and recovery_threads in {1, 2, 4, 8}, the same crash
// image must recover to byte-identical table content with the same
// loser-transaction outcome (DPT construction and undo are one pass at
// every partition count, around the partitioned redo); and redo's
// decision counters and ATT with 2 and 4 partitions must match the inline
// one-partition run exactly (partitions re-divide the work, they must not
// change any decision). The one-partition run itself is pinned by
// independent references: dpt_construction_test's hand-built logs, the
// redo and undo unit expectations, and the workload oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "recovery/analysis.h"
#include "recovery/pipeline_util.h"
#include "recovery/redo.h"
#include "recovery/stats.h"
#include "test_util.h"
#include "workload/driver.h"
#include "workload/scenario.h"

namespace deutero {
namespace {

using testing_util::SmallOptions;

/// Key + payload digest of the default table (byte-identical comparison).
std::string ContentDigest(Engine* e) {
  std::string digest;
  EXPECT_OK(e->dc().btree().ScanAll([&](Key k, Slice v) {
    digest.append(reinterpret_cast<const char*>(&k), sizeof(k));
    digest.append(v.data(), v.size());
  }));
  return digest;
}

/// The mixed crash workload of the integration/scenario suites: inserts,
/// deletes and scans riding on updates, two checkpoints, an uncommitted
/// tail for undo to roll back.
void BuildMixedCrashImage(Engine* e, WorkloadDriver* driver) {
  ASSERT_OK(driver->RunOps(400));
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver->RunOps(300));
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver->RunOps(300));
  ASSERT_OK(driver->RunOpsNoCommit(9));  // in-flight losers
  e->tc().ForceLog();
  driver->OnCrash();
  e->SimulateCrash();
}

WorkloadConfig MixedWorkload() {
  WorkloadConfig wc;
  wc.insert_fraction = 0.15;
  wc.delete_fraction = 0.10;
  wc.scan_fraction = 0.05;
  return wc;
}

class ParallelRecoveryTest : public ::testing::TestWithParam<RecoveryMethod> {
};

INSTANTIATE_TEST_SUITE_P(AllMethods, ParallelRecoveryTest,
                         ::testing::Values(RecoveryMethod::kLog0,
                                           RecoveryMethod::kLog1,
                                           RecoveryMethod::kLog2,
                                           RecoveryMethod::kSql1,
                                           RecoveryMethod::kSql2),
                         [](const auto& param_info) {
                           return RecoveryMethodName(param_info.param);
                         });

TEST_P(ParallelRecoveryTest, ThreadSweepIsByteIdenticalToSerial) {
  EngineOptions o = SmallOptions();
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadDriver driver(e.get(), MixedWorkload());
  BuildMixedCrashImage(e.get(), &driver);

  Engine::StableSnapshot snap;
  ASSERT_OK(e->TakeStableSnapshot(&snap));

  std::string serial_digest;
  uint64_t serial_txns_undone = 0;
  uint64_t serial_undo_ops = 0;
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    // Recover the SAME crash image with a fresh engine configured for
    // `threads` partition workers.
    EngineOptions ot = o;
    ot.recovery_threads = threads;
    std::unique_ptr<Engine> et;
    ASSERT_OK(Engine::Open(ot, &et));
    et->SimulateCrash();
    ASSERT_OK(et->RestoreStableSnapshot(snap));
    RecoveryStats st;
    ASSERT_OK(et->Recover(GetParam(), &st));
    EXPECT_EQ(st.redo_threads, threads) << "pipeline engagement mismatch";

    uint64_t rows = 0;
    ASSERT_OK(et->dc().btree().CheckWellFormed(&rows));

    const std::string digest = ContentDigest(et.get());
    if (threads == 1) {
      serial_digest = digest;
      serial_txns_undone = st.txns_undone;
      serial_undo_ops = st.undo_ops;
      EXPECT_GT(serial_digest.size(), 0u);
    } else {
      EXPECT_EQ(digest, serial_digest)
          << RecoveryMethodName(GetParam()) << " with " << threads
          << " threads diverged from serial";
      // Identical loser-transaction outcome: same losers rolled back with
      // the same number of compensated operations.
      EXPECT_EQ(st.txns_undone, serial_txns_undone);
      EXPECT_EQ(st.undo_ops, serial_undo_ops);
    }
  }
}

// Merge-churn thread sweep (delete-side SMOs in the redone window): same
// byte-identical guarantee, plus catalog num_rows parity — the clamped
// row-delta replay must reproduce the serial counter exactly, and with
// scan-complete accounting the counter must also equal the true row count.
TEST_P(ParallelRecoveryTest, MergeChurnRowDeltaReplayMatchesSerial) {
  EngineOptions o = SmallOptions();
  o.num_rows = 600;  // concentrated churn: leaves drain, merge SMOs fire
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadConfig wc;
  wc.delete_fraction = 0.55;
  wc.insert_fraction = 0.05;
  WorkloadDriver driver(e.get(), wc);
  ASSERT_OK(driver.RunOps(800));
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver.RunOps(700));
  ASSERT_OK(driver.RunOpsNoCommit(9));  // in-flight losers
  e->tc().ForceLog();
  driver.OnCrash();
  e->SimulateCrash();
  ASSERT_GT(e->wal().stats().by_type[static_cast<size_t>(
                LogRecordType::kSmoMerge)],
            0u)
      << "merge-churn workload produced no merge SMOs";

  Engine::StableSnapshot snap;
  ASSERT_OK(e->TakeStableSnapshot(&snap));

  std::string serial_digest;
  uint64_t serial_rows = 0;
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    EngineOptions ot = o;
    ot.recovery_threads = threads;
    std::unique_ptr<Engine> et;
    ASSERT_OK(Engine::Open(ot, &et));
    et->SimulateCrash();
    ASSERT_OK(et->RestoreStableSnapshot(snap));
    RecoveryStats st;
    ASSERT_OK(et->Recover(GetParam(), &st));

    uint64_t rows = 0;
    ASSERT_OK(et->dc().btree().CheckWellFormed(&rows));
    EXPECT_EQ(et->dc().btree().row_count(), rows)
        << "recovered counter drifted from the true row count at "
        << threads << " threads";
    const std::string digest = ContentDigest(et.get());
    if (threads == 1) {
      serial_digest = digest;
      serial_rows = et->dc().btree().row_count();
    } else {
      EXPECT_EQ(digest, serial_digest) << threads << " threads";
      EXPECT_EQ(et->dc().btree().row_count(), serial_rows)
          << "num_rows diverged at " << threads << " threads";
    }
  }
}

TEST_P(ParallelRecoveryTest, OracleVerifiesAfterParallelRecovery) {
  EngineOptions o = SmallOptions();
  o.recovery_threads = 4;
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadDriver driver(e.get(), MixedWorkload());
  BuildMixedCrashImage(e.get(), &driver);
  RecoveryStats st;
  ASSERT_OK(e->Recover(GetParam(), &st));
  EXPECT_EQ(st.redo_threads, 4u);
  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(0, &checked));
  EXPECT_GT(checked, 0u);
}

// Pass-level equivalence, logical family: every partition count must make
// exactly the one-partition run's decisions — same scan/examine/apply/skip
// counters, same memo hits, same ATT (loser set), same max txn id.
TEST(ParallelRedoPass, LogicalCountersAndAttMatchSerial) {
  EngineOptions o = SmallOptions();
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadDriver driver(e.get(), MixedWorkload());
  BuildMixedCrashImage(e.get(), &driver);
  Engine::StableSnapshot snap;
  ASSERT_OK(e->TakeStableSnapshot(&snap));
  const Lsn start = e->wal().master().bckpt_lsn;

  auto run_pass = [&](uint32_t threads, RedoResult* rr,
                      std::string* digest) {
    ASSERT_OK(e->RestoreStableSnapshot(snap));
    ASSERT_OK(e->dc().OpenDatabase());
    e->dc().Eosl(e->wal().stable_end() - 1);  // as Recover does
    e->dc().monitor().set_enabled(false);
    e->dc().pool().set_callbacks_enabled(false);
    DcRecoveryResult dcr;
    ASSERT_OK(RunDcRecovery(&e->wal(), &e->dc(), start, o.dpt_mode,
                            /*build_dpt=*/true, /*preload=*/false, &dcr));
    ASSERT_OK(RunLogicalRedo(&e->wal(), &e->dc(), start, true, &dcr.dpt,
                             dcr.last_delta_tc_lsn, /*prefetch=*/false, o,
                             threads, rr));
    *digest = ContentDigest(e.get());
    e->SimulateCrash();
  };

  RedoResult serial;
  std::string serial_digest;
  run_pass(1, &serial, &serial_digest);
  for (uint32_t threads : {2u, 4u}) {
    RedoResult par;
    std::string digest;
    run_pass(threads, &par, &digest);
    EXPECT_EQ(digest, serial_digest) << threads << " threads";
    EXPECT_EQ(par.records_scanned, serial.records_scanned);
    EXPECT_EQ(par.examined, serial.examined);
    EXPECT_EQ(par.applied, serial.applied);
    EXPECT_EQ(par.skipped_dpt, serial.skipped_dpt);
    EXPECT_EQ(par.skipped_rlsn, serial.skipped_rlsn);
    EXPECT_EQ(par.skipped_plsn, serial.skipped_plsn);
    EXPECT_EQ(par.tail_ops, serial.tail_ops);
    EXPECT_EQ(par.leaf_memo_hits, serial.leaf_memo_hits);
    EXPECT_EQ(par.max_txn_id, serial.max_txn_id);
    EXPECT_EQ(par.threads_used, threads);

    // Identical loser set with identical chain tails.
    std::vector<std::pair<TxnId, Lsn>> a(serial.att.begin(),
                                         serial.att.end());
    std::vector<std::pair<TxnId, Lsn>> b(par.att.begin(), par.att.end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "ATT diverged at " << threads << " threads";
  }
}

// Pass-level equivalence, SQL family — including SMO/DDL barriers inside
// the redone window (a table created after the checkpoint).
TEST(ParallelRedoPass, SqlCountersMatchSerialWithDdlInWindow) {
  EngineOptions o = SmallOptions();
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadDriver driver(e.get(), MixedWorkload());
  ASSERT_OK(driver.RunOps(300));
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver.RunOps(200));
  // DDL inside the redone window: its kCreateTable record forces the
  // parallel dispatcher through the barrier path.
  const TableId kSide = 7;
  ASSERT_OK(e->CreateTable(kSide, 16));
  {
    Table side;
    ASSERT_OK(e->OpenTable(kSide, &side));
    Txn t;
    ASSERT_OK(e->Begin(&t));
    for (Key k = 0; k < 40; k++) {
      ASSERT_OK(t.Insert(side, k, std::string(16, static_cast<char>('a' + (k % 26)))));
    }
    ASSERT_OK(t.Commit());
  }
  ASSERT_OK(driver.RunOps(200));
  driver.OnCrash();
  e->SimulateCrash();
  Engine::StableSnapshot snap;
  ASSERT_OK(e->TakeStableSnapshot(&snap));

  auto run_pass = [&](uint32_t threads, RedoResult* rr,
                      std::string* digest) {
    ASSERT_OK(e->RestoreStableSnapshot(snap));
    ASSERT_OK(e->dc().OpenDatabase());
    e->dc().Eosl(e->wal().stable_end() - 1);  // as Recover does
    e->dc().monitor().set_enabled(false);
    e->dc().pool().set_callbacks_enabled(false);
    const Lsn start = e->wal().master().bckpt_lsn;
    SqlAnalysisResult ar;
    ASSERT_OK(RunSqlAnalysis(&e->wal(), start, &ar));
    ASSERT_OK(RunSqlRedo(&e->wal(), &e->dc(), ar.redo_start_lsn, &ar.dpt,
                         /*prefetch=*/false, o, threads, rr));
    *digest = ContentDigest(e.get());
    BTree* side = e->dc().FindTable(kSide);
    ASSERT_NE(side, nullptr) << "DDL not replayed";
    ASSERT_OK(side->ScanAll([&](Key k, Slice v) {
      digest->append(reinterpret_cast<const char*>(&k), sizeof(k));
      digest->append(v.data(), v.size());
    }));
    e->SimulateCrash();
  };

  RedoResult serial;
  std::string serial_digest;
  run_pass(1, &serial, &serial_digest);
  for (uint32_t threads : {2u, 4u}) {
    RedoResult par;
    std::string digest;
    run_pass(threads, &par, &digest);
    EXPECT_EQ(digest, serial_digest) << threads << " threads";
    EXPECT_EQ(par.records_scanned, serial.records_scanned);
    EXPECT_EQ(par.examined, serial.examined);
    EXPECT_EQ(par.applied, serial.applied);
    EXPECT_EQ(par.skipped_dpt, serial.skipped_dpt);
    EXPECT_EQ(par.skipped_rlsn, serial.skipped_rlsn);
    EXPECT_EQ(par.skipped_plsn, serial.skipped_plsn);
    EXPECT_EQ(par.smo_redone, serial.smo_redone);
    EXPECT_GT(par.smo_barriers, 0u) << "DDL window must take barriers";
  }
}

// ---------------------------------------------------------------------------
// Multi-queue SimDisk (ISSUE 9): per-channel elevators change WHEN reads
// complete, never WHAT they return — same crash image, same recovered
// bytes, and the extra channels cannot make recovery slower.
// ---------------------------------------------------------------------------

TEST(MultiQueueSimDisk, ChannelsChangeTimingNotState) {
  EngineOptions o = SmallOptions();
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadDriver driver(e.get(), MixedWorkload());
  BuildMixedCrashImage(e.get(), &driver);
  Engine::StableSnapshot snap;
  ASSERT_OK(e->TakeStableSnapshot(&snap));

  std::string single_digest;
  uint64_t single_undone = 0;
  for (uint32_t threads : {1u, 4u}) {
    double single_ms = 0;
    for (uint32_t channels : {1u, 4u}) {
      EngineOptions oc = o;
      oc.recovery_threads = threads;
      oc.io.io_channels = channels;
      std::unique_ptr<Engine> ec;
      ASSERT_OK(Engine::Open(oc, &ec));
      ASSERT_EQ(ec->dc().disk().channels(), channels);
      ec->SimulateCrash();
      ASSERT_OK(ec->RestoreStableSnapshot(snap));
      RecoveryStats st;
      ASSERT_OK(ec->Recover(RecoveryMethod::kLog2, &st));
      const std::string digest = ContentDigest(ec.get());
      // The engine surfaces the phase breakdown of the run it just did.
      const EngineStats es = ec->Stats();
      EXPECT_GT(es.recovery_total_ms, 0.0);
      EXPECT_DOUBLE_EQ(es.recovery_total_ms, st.total_ms);
      EXPECT_NEAR(es.recovery_analysis_ms + es.recovery_redo_ms +
                      es.recovery_undo_ms,
                  st.total_ms, 1e-6);
      if (single_digest.empty()) {
        single_digest = digest;
        single_undone = st.txns_undone;
      } else {
        EXPECT_EQ(digest, single_digest)
            << "channel count changed recovered bytes";
        EXPECT_EQ(st.txns_undone, single_undone);
      }
      if (channels == 1) {
        single_ms = st.total_ms;
      } else {
        EXPECT_LE(st.total_ms, single_ms)
            << "more channels made recovery slower at " << threads
            << " recovery threads";
      }
    }
  }
}

// The partition map and DPT sharding invariants the pipeline relies on.
TEST(DptShards, PartitionAndUnionInvariants) {
  DirtyPageTable dpt;
  for (PageId pid = 1; pid <= 500; pid++) {
    dpt.AddExact(pid, /*rlsn=*/pid * 10, /*last_lsn=*/pid * 10 + 5);
  }
  for (uint32_t n : {2u, 4u, 7u}) {
    std::vector<DirtyPageTable> shards;
    BuildDptShards(dpt, n, &shards);
    ASSERT_EQ(shards.size(), n);
    size_t total = 0;
    for (uint32_t i = 0; i < n; i++) total += shards[i].size();
    EXPECT_EQ(total, dpt.size());
    for (PageId pid = 1; pid <= 500; pid++) {
      const uint32_t part = RedoPartitionOf(pid, n);
      for (uint32_t i = 0; i < n; i++) {
        const DirtyPageTable::Entry* e = shards[i].Find(pid);
        if (i == part) {
          ASSERT_NE(e, nullptr);
          EXPECT_EQ(e->rlsn, pid * 10);
          EXPECT_EQ(e->last_lsn, pid * 10 + 5);
        } else {
          EXPECT_EQ(e, nullptr);
        }
      }
    }
  }
}

}  // namespace
}  // namespace deutero
