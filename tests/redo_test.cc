// Unit-level tests of the redo engines: Algorithm 1 (physiological with
// DPT), Algorithm 2 (basic logical), Algorithm 5 (DPT-assisted logical with
// the tail-mode boundary), skip-counter semantics, CLR replay and the
// SQL-side SMO skip.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/engine.h"
#include "recovery/analysis.h"
#include "recovery/redo.h"
#include "test_util.h"
#include "workload/driver.h"

namespace deutero {
namespace {

using testing_util::SmallOptions;

class RedoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(Engine::Open(SmallOptions(), &engine_));
    driver_ = std::make_unique<WorkloadDriver>(engine_.get(),
                                               WorkloadConfig{});
  }

  /// Run workload, checkpoint, more workload, crash; open the DC again so
  /// passes can run manually.
  void CrashAfter(uint64_t before_ckpt, uint64_t after_ckpt) {
    ASSERT_OK(driver_->RunOps(before_ckpt));
    ASSERT_OK(engine_->Checkpoint());
    ASSERT_OK(driver_->RunOps(after_ckpt));
    engine_->dc().monitor().ForceEmit();
    ASSERT_OK(driver_->RunOps(20));  // tail
    driver_->OnCrash();
    engine_->SimulateCrash();
    ASSERT_OK(engine_->dc().OpenDatabase());
    // Every surviving record is stable, as Recover republishes: a redone
    // page the pool evicts must pass the WAL rule without a log force.
    engine_->dc().Eosl(engine_->wal().stable_end() - 1);
    engine_->dc().monitor().set_enabled(false);
    engine_->dc().pool().set_callbacks_enabled(false);
  }

  Lsn Start() { return engine_->wal().master().bckpt_lsn; }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<WorkloadDriver> driver_;
};

TEST_F(RedoTest, BasicLogicalRedoExaminesEveryDataOp) {
  CrashAfter(200, 400);
  RedoResult out;
  ASSERT_OK(RunLogicalRedo(&engine_->wal(), &engine_->dc(), Start(),
                           /*use_dpt=*/false, nullptr, kInvalidLsn,
                           /*prefetch=*/false, engine_->options(), &out));
  EXPECT_EQ(out.examined, 420u);
  EXPECT_EQ(out.skipped_dpt, 0u);   // Algorithm 2 has no DPT test
  EXPECT_EQ(out.skipped_rlsn, 0u);
  EXPECT_EQ(out.tail_ops, 0u);      // tail mode is a DPT-mode concept
  EXPECT_EQ(out.examined,
            out.applied + out.skipped_plsn);  // every op got a pLSN test
}

TEST_F(RedoTest, DptRedoPartitionsOutcomesCompletely) {
  CrashAfter(200, 400);
  DcRecoveryResult dcr;
  ASSERT_OK(RunDcRecovery(&engine_->wal(), &engine_->dc(), Start(),
                          DptMode::kStandard, true, false, &dcr));
  RedoResult out;
  ASSERT_OK(RunLogicalRedo(&engine_->wal(), &engine_->dc(), Start(),
                           /*use_dpt=*/true, &dcr.dpt, dcr.last_delta_tc_lsn,
                           /*prefetch=*/false, engine_->options(), &out));
  EXPECT_EQ(out.examined, 420u);
  // Every examined op lands in exactly one bucket.
  EXPECT_EQ(out.examined, out.applied + out.skipped_plsn + out.skipped_dpt +
                              out.skipped_rlsn);
  EXPECT_GT(out.skipped_dpt, 0u);
  EXPECT_EQ(out.tail_ops, 20u);  // the 20 updates after the last Δ-record
}

TEST_F(RedoTest, TailModeBoundaryIsStrict) {
  CrashAfter(100, 200);
  DcRecoveryResult dcr;
  ASSERT_OK(RunDcRecovery(&engine_->wal(), &engine_->dc(), Start(),
                          DptMode::kStandard, true, false, &dcr));
  // Algorithm 5 line 5: DPT mode applies iff currLSN < lastΔLSN. Count the
  // ops on each side of the boundary directly from the log.
  uint64_t below = 0, at_or_above = 0;
  for (auto it = engine_->wal().NewIterator(Start(), false); it.Valid();
       it.Next()) {
    if (!it.record().IsRedoableDataOp()) continue;
    if (it.record().lsn < dcr.last_delta_tc_lsn) {
      below++;
    } else {
      at_or_above++;
    }
  }
  RedoResult out;
  ASSERT_OK(RunLogicalRedo(&engine_->wal(), &engine_->dc(), Start(), true,
                           &dcr.dpt, dcr.last_delta_tc_lsn, /*prefetch=*/false,
                           engine_->options(), &out));
  EXPECT_EQ(out.tail_ops, at_or_above);
  EXPECT_EQ(out.skipped_dpt + out.skipped_rlsn +
                (out.examined - out.tail_ops - out.skipped_dpt -
                 out.skipped_rlsn),
            below);
}

TEST_F(RedoTest, SqlRedoNeverTraversesTheIndex) {
  CrashAfter(200, 400);
  SqlAnalysisResult ar;
  ASSERT_OK(RunSqlAnalysis(&engine_->wal(), Start(), &ar));
  engine_->dc().pool().ResetStats();
  RedoResult out;
  ASSERT_OK(RunSqlRedo(&engine_->wal(), &engine_->dc(), Start(), &ar.dpt,
                       /*prefetch=*/false, engine_->options(), &out));
  // Physiological redo goes straight to the PID: zero index-class fetches.
  EXPECT_EQ(engine_->dc().pool().stats().index_fetches, 0u);
  EXPECT_GT(engine_->dc().pool().stats().data_fetches, 0u);
  EXPECT_EQ(out.examined,
            out.applied + out.skipped_plsn + out.skipped_dpt +
                out.skipped_rlsn);
}

TEST_F(RedoTest, LogicalAndSqlRedoApplyTheSameOperations) {
  CrashAfter(300, 500);
  Engine::StableSnapshot snap;
  ASSERT_OK(engine_->TakeStableSnapshot(&snap));

  DcRecoveryResult dcr;
  ASSERT_OK(RunDcRecovery(&engine_->wal(), &engine_->dc(), Start(),
                          DptMode::kStandard, true, false, &dcr));
  RedoResult logical;
  ASSERT_OK(RunLogicalRedo(&engine_->wal(), &engine_->dc(), Start(), true,
                           &dcr.dpt, dcr.last_delta_tc_lsn, /*prefetch=*/false,
                           engine_->options(), &logical));

  // Reset to the identical crash image and run the SQL pair.
  engine_->dc().pool().Reset();
  ASSERT_OK(engine_->RestoreStableSnapshot(snap));
  ASSERT_OK(engine_->dc().OpenDatabase());
  SqlAnalysisResult ar;
  ASSERT_OK(RunSqlAnalysis(&engine_->wal(), Start(), &ar));
  RedoResult sql;
  ASSERT_OK(RunSqlRedo(&engine_->wal(), &engine_->dc(), Start(), &ar.dpt,
                       false, engine_->options(), &sql));

  // "Repeating history": both families re-execute exactly the operations
  // whose effects were missing from stable storage.
  EXPECT_EQ(logical.applied, sql.applied);
  EXPECT_EQ(logical.examined, sql.examined);
}

TEST_F(RedoTest, RedoAfterRuntimeAbortReplaysClrs) {
  // A transaction aborts at runtime (CLRs + abort on the log), everything
  // is flushed, then the system crashes. Redo must replay the CLRs so the
  // rolled-back state is reconstructed; undo must NOT touch this txn.
  ASSERT_OK(driver_->RunOps(100));
  ASSERT_OK(engine_->Checkpoint());
  Table table;
  ASSERT_OK(engine_->OpenDefaultTable(&table));
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  const std::string val(engine_->options().value_size, 'Z');
  ASSERT_OK(t.Update(table, 11, val));
  ASSERT_OK(t.Update(table, 12, val));
  ASSERT_OK(t.Abort());

  driver_->OnCrash();
  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kSql1, &st));
  EXPECT_EQ(st.txns_undone, 0u);
  std::string v;
  ASSERT_OK(engine_->Read(11, &v));
  EXPECT_EQ(v, SynthesizeValueString(11, 0, engine_->options().value_size));
}

TEST_F(RedoTest, SqlSmoSkipViaDptStillYieldsWellFormedTree) {
  // Insert-heavy workload creates SMOs; after a checkpoint flushes
  // everything, a SQL redo from the next crash can skip those SMO records
  // entirely via the DPT.
  WorkloadConfig wc;
  wc.insert_fraction = 0.6;
  WorkloadDriver ins(engine_.get(), wc);
  ASSERT_OK(ins.RunOps(400));
  ASSERT_OK(engine_->Checkpoint());
  ASSERT_OK(ins.RunOps(100));
  ins.OnCrash();
  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kSql1, &st));
  uint64_t rows = 0;
  ASSERT_OK(engine_->dc().btree().CheckWellFormed(&rows));
  uint64_t checked = 0;
  ASSERT_OK(ins.Verify(0, &checked));
}

TEST_F(RedoTest, PrefetchDoesNotChangeRedoOutcomes) {
  CrashAfter(300, 600);
  Engine::StableSnapshot snap;
  ASSERT_OK(engine_->TakeStableSnapshot(&snap));

  DcRecoveryResult dcr;
  ASSERT_OK(RunDcRecovery(&engine_->wal(), &engine_->dc(), Start(),
                          DptMode::kStandard, true, true, &dcr));
  RedoResult with_pf;
  ASSERT_OK(RunLogicalRedo(&engine_->wal(), &engine_->dc(), Start(), true,
                           &dcr.dpt, dcr.last_delta_tc_lsn, /*prefetch=*/true,
                           engine_->options(), &with_pf));

  engine_->dc().pool().Reset();
  ASSERT_OK(engine_->RestoreStableSnapshot(snap));
  ASSERT_OK(engine_->dc().OpenDatabase());
  DcRecoveryResult dcr2;
  ASSERT_OK(RunDcRecovery(&engine_->wal(), &engine_->dc(), Start(),
                          DptMode::kStandard, true, false, &dcr2));
  RedoResult without_pf;
  ASSERT_OK(RunLogicalRedo(&engine_->wal(), &engine_->dc(), Start(), true,
                           &dcr2.dpt, dcr2.last_delta_tc_lsn,
                           /*prefetch=*/false, engine_->options(),
                           &without_pf));

  EXPECT_EQ(with_pf.applied, without_pf.applied);
  EXPECT_EQ(with_pf.skipped_dpt, without_pf.skipped_dpt);
  EXPECT_EQ(with_pf.skipped_rlsn, without_pf.skipped_rlsn);
  EXPECT_EQ(with_pf.skipped_plsn, without_pf.skipped_plsn);
}

}  // namespace
}  // namespace deutero
