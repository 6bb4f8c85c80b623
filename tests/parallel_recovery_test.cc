// Partition-count equivalence sweeps for the recovery pipelines — redo,
// analysis/DPT construction and undo: for every recovery method and
// recovery_threads in {1, 2, 4, 8}, the same crash image must recover to
// byte-identical table content with the same loser-transaction outcome;
// and the pass-level decision counters, tables (DPT/ATT/PF-list) and — for
// undo — the appended log SUFFIX with 2, 4 and 8 partitions must match the
// inline one-partition run exactly (partitions re-divide the work, they
// must not change any decision). The one-partition run itself is pinned
// by independent references: dpt_construction_test's hand-built logs, the
// redo and undo unit expectations, and the workload oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "recovery/analysis.h"
#include "recovery/pipeline_util.h"
#include "recovery/prefetch.h"
#include "recovery/redo.h"
#include "recovery/stats.h"
#include "recovery/undo.h"
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
    if (threads > 1) {
      // All three passes must use every partition — except Log0's
      // analysis, which builds no DPT and stays one partition by design.
      EXPECT_EQ(st.undo_threads, threads) << "undo pipeline not engaged";
      if (GetParam() != RecoveryMethod::kLog0) {
        EXPECT_EQ(st.analysis_threads, threads)
            << "analysis pipeline not engaged";
      }
    }

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
                            /*build_dpt=*/true, /*preload=*/false, 1, &dcr));
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
    ASSERT_OK(RunSqlAnalysis(&e->wal(), start, 1, &ar));
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
// Analysis-pass parity: the sharded DPT builds must reproduce the inline
// one-partition run's tables, orders and counters exactly — per-PID event
// order is preserved by the shard FIFOs and DPT operations on distinct
// PIDs commute, so nothing may differ.
// ---------------------------------------------------------------------------

std::vector<std::tuple<PageId, Lsn, Lsn, uint32_t>> DptEntries(
    const DirtyPageTable& dpt) {
  std::vector<std::tuple<PageId, Lsn, Lsn, uint32_t>> v;
  dpt.ForEach([&](PageId pid, const DirtyPageTable::Entry& e) {
    v.emplace_back(pid, e.rlsn, e.last_lsn, e.claim_seq);
  });
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<std::pair<TxnId, Lsn>> AttEntries(const ActiveTxnTable& att) {
  std::vector<std::pair<TxnId, Lsn>> v(att.begin(), att.end());
  std::sort(v.begin(), v.end());
  return v;
}

TEST(ParallelAnalysisPass, SqlTablesAndCountersMatchSerial) {
  EngineOptions o = SmallOptions();
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadDriver driver(e.get(), MixedWorkload());
  BuildMixedCrashImage(e.get(), &driver);
  const Lsn start = e->wal().master().bckpt_lsn;

  SqlAnalysisResult serial;
  ASSERT_OK(RunSqlAnalysis(&e->wal(), start, 1, &serial));
  ASSERT_GT(serial.dpt.size(), 0u);
  ASSERT_GT(serial.att.size(), 0u) << "no losers: the ATT parity is vacuous";

  for (uint32_t threads : {2u, 4u, 8u}) {
    SqlAnalysisResult par;
    ASSERT_OK(RunSqlAnalysis(&e->wal(), start, threads, &par));
    EXPECT_EQ(par.threads_used, threads);
    EXPECT_EQ(DptEntries(par.dpt), DptEntries(serial.dpt))
        << "DPT diverged at " << threads << " threads";
    EXPECT_EQ(AttEntries(par.att), AttEntries(serial.att))
        << "ATT diverged at " << threads << " threads";
    EXPECT_EQ(par.redo_start_lsn, serial.redo_start_lsn);
    EXPECT_EQ(par.max_txn_id, serial.max_txn_id);
    EXPECT_EQ(par.records_scanned, serial.records_scanned);
    EXPECT_EQ(par.log_pages, serial.log_pages);
    EXPECT_EQ(par.bw_records_seen, serial.bw_records_seen);
    EXPECT_EQ(par.delta_records_seen, serial.delta_records_seen);
    EXPECT_EQ(par.dpt_updates, serial.dpt_updates)
        << "the shards performed different DPT work than the inline scan";
    // The shards partition the one-partition run's work: their folded CPU
    // shares sum to exactly its total, and the critical path can only be a
    // part of it.
    EXPECT_DOUBLE_EQ(par.shard_cpu_us_total, serial.shard_cpu_us_total);
    EXPECT_LE(par.shard_cpu_us_max, serial.shard_cpu_us_max);
  }
}

// Under ARIES checkpointing the analysis seeds the DPT from the captured
// checkpoint image and redo_start_lsn reaches back to the oldest captured
// rLSN — the seed events must shard identically too.
TEST(ParallelAnalysisPass, SqlAriesCheckpointSeedsShardIdentically) {
  EngineOptions o = SmallOptions();
  o.checkpoint_scheme = CheckpointScheme::kAries;
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadDriver driver(e.get(), MixedWorkload());
  BuildMixedCrashImage(e.get(), &driver);
  const Lsn start = e->wal().master().bckpt_lsn;

  SqlAnalysisResult serial;
  ASSERT_OK(RunSqlAnalysis(&e->wal(), start, 1, &serial));
  ASSERT_LT(serial.redo_start_lsn, start)
      << "ARIES analysis did not reach back: no captured DPT to seed from";

  for (uint32_t threads : {2u, 4u, 8u}) {
    SqlAnalysisResult par;
    ASSERT_OK(RunSqlAnalysis(&e->wal(), start, threads, &par));
    EXPECT_EQ(DptEntries(par.dpt), DptEntries(serial.dpt)) << threads;
    EXPECT_EQ(AttEntries(par.att), AttEntries(serial.att)) << threads;
    EXPECT_EQ(par.redo_start_lsn, serial.redo_start_lsn) << threads;
    EXPECT_EQ(par.dpt_updates, serial.dpt_updates) << threads;
  }
}

TEST(ParallelAnalysisPass, DcPassMatchesSerialAcrossDptModes) {
  for (DptMode mode :
       {DptMode::kStandard, DptMode::kPerfect, DptMode::kReduced}) {
    EngineOptions o = SmallOptions();
    o.dpt_mode = mode;
    std::unique_ptr<Engine> e;
    ASSERT_OK(Engine::Open(o, &e));
    WorkloadDriver driver(e.get(), MixedWorkload());
    BuildMixedCrashImage(e.get(), &driver);
    Engine::StableSnapshot snap;
    ASSERT_OK(e->TakeStableSnapshot(&snap));
    const Lsn start = e->wal().master().bckpt_lsn;

    auto run_pass = [&](uint32_t threads, DcRecoveryResult* out,
                        std::string* digest) {
      ASSERT_OK(e->RestoreStableSnapshot(snap));
      ASSERT_OK(e->dc().OpenDatabase());
      e->dc().Eosl(e->wal().stable_end() - 1);  // as Recover does
      ASSERT_OK(RunDcRecovery(&e->wal(), &e->dc(), start, mode,
                              /*build_dpt=*/true, /*preload=*/false, threads,
                              out));
      *digest = ContentDigest(e.get());  // the pass redoes SMOs: state too
      e->SimulateCrash();
    };

    DcRecoveryResult serial;
    std::string serial_digest;
    run_pass(1, &serial, &serial_digest);
    ASSERT_GT(serial.dpt.size(), 0u);
    // The SMO replay filters by the final DPT: both of its decisions must
    // occur, or the parity below says nothing about the filter.
    ASSERT_GT(serial.smo_redone, 0u) << "no SMO image installed";
    ASSERT_GT(serial.smo_pages_skipped, 0u) << "no SMO image skipped";

    for (uint32_t threads : {2u, 4u, 8u}) {
      DcRecoveryResult par;
      std::string digest;
      run_pass(threads, &par, &digest);
      EXPECT_EQ(par.threads_used, threads);
      EXPECT_EQ(digest, serial_digest)
          << "SMO redo diverged, mode " << static_cast<int>(mode) << ", "
          << threads << " threads";
      EXPECT_EQ(DptEntries(par.dpt), DptEntries(serial.dpt))
          << "DPT diverged, mode " << static_cast<int>(mode) << ", "
          << threads << " threads";
      // EXACT order: the PF-list sorts the DPT by (rLSN, claim stamp), and
      // the stamps are global scan numbers the shard merge must keep.
      EXPECT_EQ(BuildPfList(par.dpt), BuildPfList(serial.dpt))
          << "PF-list order diverged, mode " << static_cast<int>(mode);
      EXPECT_EQ(par.last_delta_tc_lsn, serial.last_delta_tc_lsn);
      EXPECT_EQ(par.delta_records_seen, serial.delta_records_seen);
      EXPECT_EQ(par.smo_redone, serial.smo_redone);
      EXPECT_EQ(par.smo_pages_skipped, serial.smo_pages_skipped);
      EXPECT_EQ(par.records_scanned, serial.records_scanned);
      EXPECT_EQ(par.log_pages, serial.log_pages);
      EXPECT_EQ(par.dpt_updates, serial.dpt_updates);
      EXPECT_DOUBLE_EQ(par.shard_cpu_us_total, serial.shard_cpu_us_total);
      EXPECT_LE(par.shard_cpu_us_max, serial.shard_cpu_us_max);
    }
  }
}

// ---------------------------------------------------------------------------
// Undo-pass parity: the dispatcher appends every CLR and abort record in
// the same order for every partition count, so the undo log SUFFIX must be
// byte-identical — not merely equivalent — and the recovered state with it.
// ---------------------------------------------------------------------------

TEST(ParallelUndoPass, LogStreamAndStateMatchSerialByteForByte) {
  EngineOptions o = SmallOptions();
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadDriver driver(e.get(), MixedWorkload());
  ASSERT_OK(driver.RunOps(400));
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver.RunOps(400));
  // Fat manual losers over dedicated committed keys (far above anything
  // the driver touches; no other txn open, so no wait-die conflicts): many
  // updates each (the fan-out path — leaf restores across partitions) plus
  // an insert and a delete each (the structure-op barrier path), so the
  // partitioned pass exercises both deterministically.
  {
    Table table;
    ASSERT_OK(e->OpenDefaultTable(&table));
    const Key base = o.num_rows + 7000;
    const std::string v0(o.value_size, 's');
    const std::string v(o.value_size, 'u');
    {
      Txn setup;
      ASSERT_OK(e->Begin(&setup));
      for (uint32_t i = 0; i < 4; i++) {
        for (uint32_t j = 0; j <= 20; j++) {
          ASSERT_OK(setup.Insert(
              table, base + static_cast<Key>(i * 100 + j), v0));
        }
      }
      ASSERT_OK(setup.Commit());
    }
    Txn losers[4];
    for (uint32_t i = 0; i < 4; i++) {
      ASSERT_OK(e->Begin(&losers[i]));
      for (uint32_t j = 0; j < 20; j++) {
        ASSERT_OK(losers[i].Update(
            table, base + static_cast<Key>(i * 100 + j), v));
      }
      ASSERT_OK(losers[i].Insert(
          table, base + static_cast<Key>(1000 + i), v));
      ASSERT_OK(losers[i].Delete(
          table, base + static_cast<Key>(i * 100 + 20)));
    }
    e->tc().ForceLog();
    for (Txn& t : losers) t.Release();  // in flight at the crash
  }
  driver.OnCrash();
  e->SimulateCrash();
  Engine::StableSnapshot snap;
  ASSERT_OK(e->TakeStableSnapshot(&snap));
  const Lsn start = e->wal().master().bckpt_lsn;

  auto run_undo = [&](uint32_t threads, UndoResult* ur, std::string* digest,
                      std::string* log_suffix, Lsn* log_end) {
    ASSERT_OK(e->RestoreStableSnapshot(snap));
    ASSERT_OK(e->dc().OpenDatabase());
    e->dc().Eosl(e->wal().stable_end() - 1);  // as Recover does
    e->dc().monitor().set_enabled(false);
    e->dc().pool().set_callbacks_enabled(false);
    // Identical one-partition analysis + redo every time: only undo
    // differs.
    DcRecoveryResult dcr;
    ASSERT_OK(RunDcRecovery(&e->wal(), &e->dc(), start, o.dpt_mode,
                            /*build_dpt=*/true, /*preload=*/false, 1, &dcr));
    RedoResult rr;
    ASSERT_OK(RunLogicalRedo(&e->wal(), &e->dc(), start, true, &dcr.dpt,
                             dcr.last_delta_tc_lsn, /*prefetch=*/false, o, 1,
                             &rr));
    const Lsn undo_start = e->wal().next_lsn();
    ASSERT_OK(RunUndo(&e->wal(), &e->dc(), rr.att, threads, ur));
    // The CLRs are stable, as after Recover: the digest's reads may evict
    // the pages they dirtied.
    e->dc().Eosl(e->wal().stable_end());
    *digest = ContentDigest(e.get());
    *log_end = e->wal().next_lsn();
    const Slice suffix = e->wal().StableBytes(undo_start);
    log_suffix->assign(suffix.data(), suffix.size());
    e->SimulateCrash();
  };

  UndoResult serial;
  std::string serial_digest, serial_suffix;
  Lsn serial_end = kInvalidLsn;
  run_undo(1, &serial, &serial_digest, &serial_suffix, &serial_end);
  ASSERT_GT(serial.txns_undone, 0u);
  ASSERT_GT(serial.clrs_written, 0u);
  ASSERT_GT(serial_suffix.size(), 0u);

  for (uint32_t threads : {2u, 4u, 8u}) {
    UndoResult par;
    std::string digest, suffix;
    Lsn end = kInvalidLsn;
    run_undo(threads, &par, &digest, &suffix, &end);
    EXPECT_EQ(par.threads_used, threads);
    EXPECT_EQ(digest, serial_digest)
        << "recovered state diverged at " << threads << " threads";
    EXPECT_EQ(end, serial_end);
    EXPECT_EQ(suffix, serial_suffix)
        << "the undo log stream is not byte-identical at " << threads
        << " threads";
    EXPECT_EQ(par.txns_undone, serial.txns_undone);
    EXPECT_EQ(par.ops_undone, serial.ops_undone);
    EXPECT_EQ(par.clrs_written, serial.clrs_written);
  }
}

/// Crash recovery's undo reads its losers' paths ahead, and an undo can
/// change the tree under that read-ahead. Here the insert-undo of key 275
/// leaves leaf B (keys 270..296, drained to 6 rows while its left sibling
/// A was too full to take them) under the merge threshold, so B merges
/// into A and its page is freed, after the first read-ahead batch (8 keys
/// in a 64-frame pool) prefetched B for that key. The last batch reads
/// the paths of key 291, which now lives in A, and of key 5000, whose
/// delete-undo re-inserts into the full rightmost leaf: its split reuses
/// B's pid. UndoResult, the undo log suffix and the destaged bytes must
/// match at 1, 2 and 4 partitions.
TEST(ParallelUndoPass, ReadAheadSurvivesMergeThenSplitReuseAcrossPartitions) {
  EngineOptions o = SmallOptions();
  o.checkpoint_interval_updates = 1'000'000;  // explicit checkpoints only
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  Table table;
  ASSERT_OK(e->OpenDefaultTable(&table));
  const std::string v(o.value_size, 'u');
  auto commit_ops = [&](const std::function<Status(Txn*)>& ops) {
    Txn txn;
    ASSERT_OK(e->Begin(&txn));
    ASSERT_OK(ops(&txn));
    ASSERT_OK(txn.Commit());
  };
  // Bulk load puts 27 keys in each leaf: A holds 243..269, B 270..296, and
  // the rightmost leaf 4995..4999.
  commit_ops([&](Txn* t) -> Status {
    for (Key k = 270; k <= 290; k++) DEUTERO_RETURN_NOT_OK(t->Delete(table, k));
    for (Key k = 243; k <= 252; k++) DEUTERO_RETURN_NOT_OK(t->Delete(table, k));
    for (Key k = 5000; k < 5024; k++) {
      DEUTERO_RETURN_NOT_OK(t->Insert(table, k, v));  // rightmost leaf full
    }
    return Status::OK();
  });
  PageId leaf_a = kInvalidPageId;
  PageId leaf_b = kInvalidPageId;
  ASSERT_OK(e->dc().FindLeaf(o.table_id, 269, &leaf_a));
  ASSERT_OK(e->dc().FindLeaf(o.table_id, 291, &leaf_b));
  ASSERT_NE(leaf_a, leaf_b);
  ASSERT_OK(e->Checkpoint());
  {
    Txn loser;
    ASSERT_OK(e->Begin(&loser));
    ASSERT_OK(loser.Delete(table, 5000));
    commit_ops([&](Txn* t) { return t->Insert(table, 6000, v); });
    ASSERT_OK(loser.Update(table, 291, v));
    for (Key i = 0; i < 10; i++) {
      ASSERT_OK(loser.Update(table, 1000 + 300 * i, v));
    }
    ASSERT_OK(loser.Insert(table, 275, v));
    for (Key i = 0; i < 5; i++) {
      ASSERT_OK(loser.Update(table, 150 + 500 * i, v));
    }
    e->tc().ForceLog();
    loser.Release();  // in flight at the crash
  }
  ASSERT_EQ(e->dc().btree().stats().merges, 0u)
      << "B must still be a leaf of its own at the crash";
  e->SimulateCrash();
  Engine::StableSnapshot snap;
  ASSERT_OK(e->TakeStableSnapshot(&snap));
  const Lsn start = e->wal().master().bckpt_lsn;

  struct Outcome {
    UndoResult ur;
    std::string suffix;
    testing_util::StateImage state;
    PageId leaf_of_291 = kInvalidPageId;
    PageId leaf_of_6000 = kInvalidPageId;
  };
  auto run_undo = [&](uint32_t threads, Outcome* out) {
    std::unique_ptr<Engine> r;
    ASSERT_OK(Engine::Open(o, &r));
    r->SimulateCrash();
    ASSERT_OK(r->RestoreStableSnapshot(snap));
    DataComponent& dc = r->dc();
    ASSERT_OK(dc.OpenDatabase());
    dc.monitor().set_enabled(false);
    dc.pool().set_callbacks_enabled(false);
    dc.Eosl(r->wal().stable_end() - 1);
    SqlAnalysisResult ar;
    ASSERT_OK(RunSqlAnalysis(&r->wal(), start, 1, &ar));
    RedoResult rr;
    ASSERT_OK(RunSqlRedo(&r->wal(), &dc, ar.redo_start_lsn, &ar.dpt,
                         /*prefetch=*/false, o, 1, &rr));
    // A cold cache: the read-ahead, not redo, brings in every loser path.
    ASSERT_OK(dc.pool().FlushAllDirty());
    dc.pool().Reset();
    const uint64_t prefetched0 = dc.pool().stats().prefetch_issued;
    const uint64_t splits0 = dc.btree().stats().splits;
    const Lsn undo_start = r->wal().next_lsn();
    ASSERT_OK(RunUndo(&r->wal(), &dc, ar.att, threads, &out->ur));
    EXPECT_GT(dc.pool().stats().prefetch_issued, prefetched0);
    EXPECT_EQ(dc.btree().stats().merges, 1u) << threads << " partitions";
    EXPECT_GT(dc.btree().stats().splits, splits0) << threads << " partitions";
    const Slice suffix = r->wal().StableBytes(undo_start);
    out->suffix.assign(suffix.data(), suffix.size());
    ASSERT_OK(dc.FindLeaf(o.table_id, 291, &out->leaf_of_291));
    ASSERT_OK(dc.FindLeaf(o.table_id, 6000, &out->leaf_of_6000));
    dc.Eosl(r->wal().stable_end());  // the CLRs are stable, as after Recover
    out->state = testing_util::CaptureState(r.get());
  };

  Outcome inline_run;
  run_undo(1, &inline_run);
  EXPECT_EQ(inline_run.ur.ops_undone, 18u);
  EXPECT_EQ(inline_run.leaf_of_291, leaf_a) << "B must have merged into A";
  EXPECT_EQ(inline_run.leaf_of_6000, leaf_b)
      << "the split must reuse the merged-away leaf's pid";
  EXPECT_TRUE(inline_run.state.free_list.empty());
  for (uint32_t threads : {2u, 4u}) {
    Outcome par;
    run_undo(threads, &par);
    EXPECT_EQ(par.ur.threads_used, threads);
    EXPECT_EQ(par.ur.txns_undone, inline_run.ur.txns_undone);
    EXPECT_EQ(par.ur.ops_undone, inline_run.ur.ops_undone);
    EXPECT_EQ(par.ur.clrs_written, inline_run.ur.clrs_written);
    EXPECT_EQ(par.ur.records_read, inline_run.ur.records_read);
    EXPECT_TRUE(par.suffix == inline_run.suffix)
        << "the undo log stream is not byte-identical at " << threads
        << " partitions";
    EXPECT_EQ(par.leaf_of_291, inline_run.leaf_of_291);
    EXPECT_EQ(par.leaf_of_6000, inline_run.leaf_of_6000);
    testing_util::ExpectSameState(par.state, inline_run.state,
                                  std::to_string(threads) + " partitions");
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
