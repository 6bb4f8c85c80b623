// Undo-pass tests: multi-loser interleaving, CLR chains, crash-during-undo
// (partial undo followed by a second recovery), losers of every shape, and
// the read-ahead of the losers' paths under the tree changes undo makes.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/engine.h"
#include "recovery/analysis.h"
#include "recovery/redo.h"
#include "recovery/undo.h"
#include "test_util.h"
#include "workload/driver.h"

namespace deutero {
namespace {

using testing_util::SmallOptions;

class UndoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(Engine::Open(SmallOptions(), &engine_));
    ASSERT_OK(engine_->OpenDefaultTable(&table_));
  }

  std::string Val(Key k, uint32_t version) {
    return SynthesizeValueString(k, version, engine_->options().value_size);
  }

  std::unique_ptr<Engine> engine_;
  Table table_;
};

TEST_F(UndoTest, MultipleLosersAllRolledBack) {
  Txn a, b, c;
  ASSERT_OK(engine_->Begin(&a));
  ASSERT_OK(engine_->Begin(&b));
  ASSERT_OK(engine_->Begin(&c));
  // Interleaved updates across three losers on disjoint keys.
  ASSERT_OK(a.Update(table_, 10, Val(10, 1)));
  ASSERT_OK(b.Update(table_, 20, Val(20, 1)));
  ASSERT_OK(c.Update(table_, 30, Val(30, 1)));
  ASSERT_OK(a.Update(table_, 11, Val(11, 1)));
  ASSERT_OK(b.Update(table_, 21, Val(21, 1)));
  engine_->tc().ForceLog();

  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kLog1, &st));
  EXPECT_EQ(st.txns_undone, 3u);
  EXPECT_EQ(st.undo_ops, 5u);
  for (Key k : {10, 11, 20, 21, 30}) {
    std::string v;
    ASSERT_OK(engine_->Read(k, &v));
    EXPECT_EQ(v, Val(k, 0)) << k;
  }
}

TEST_F(UndoTest, LoserWithOnlyBeginRecordIsHarmless) {
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  engine_->tc().ForceLog();
  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kSql1, &st));
  EXPECT_EQ(st.txns_undone, 1u);
  EXPECT_EQ(st.undo_ops, 0u);
}

TEST_F(UndoTest, CommittedAndLoserOnSameKeySequence) {
  // Committed txn sets version 1; the loser overwrites with version 2 but
  // never commits: undo must restore version 1, not version 0.
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  ASSERT_OK(t.Update(table_, 42, Val(42, 1)));
  ASSERT_OK(t.Commit());
  Txn loser;
  ASSERT_OK(engine_->Begin(&loser));
  ASSERT_OK(loser.Update(table_, 42, Val(42, 2)));
  engine_->tc().ForceLog();

  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kLog2, &st));
  std::string v;
  ASSERT_OK(engine_->Read(42, &v));
  EXPECT_EQ(v, Val(42, 1));
}

TEST_F(UndoTest, CrashDuringUndoThenFullRecovery) {
  // Build a crash image with a 9-op loser.
  WorkloadDriver driver(engine_.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(200));
  ASSERT_OK(engine_->Checkpoint());
  ASSERT_OK(driver.RunOpsNoCommit(9));
  engine_->tc().ForceLog();
  driver.OnCrash();
  engine_->SimulateCrash();

  // Manual recovery: analysis + redo, then undo that "crashes" after 4 ops.
  ASSERT_OK(engine_->dc().OpenDatabase());
  engine_->dc().monitor().set_enabled(false);
  engine_->dc().pool().set_callbacks_enabled(false);
  const Lsn start = engine_->wal().master().bckpt_lsn;
  SqlAnalysisResult ar;
  ASSERT_OK(RunSqlAnalysis(&engine_->wal(), start, &ar));
  RedoResult rr;
  ASSERT_OK(RunSqlRedo(&engine_->wal(), &engine_->dc(), start, &ar.dpt,
                       false, engine_->options(), &rr));
  UndoResult ur;
  ASSERT_OK(RunUndo(&engine_->wal(), &engine_->dc(), ar.att, &ur,
                    UndoKind::kRecovery, /*max_ops_for_test=*/4));
  EXPECT_EQ(ur.ops_undone, 4u);

  // Second crash, then a COMPLETE recovery. The partial undo's CLRs are on
  // the log; the remaining 5 ops must be undone exactly once.
  engine_->dc().monitor().set_enabled(true);
  engine_->dc().pool().set_callbacks_enabled(true);
  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kSql1, &st));
  EXPECT_EQ(st.txns_undone, 1u);
  EXPECT_EQ(st.undo_ops, 5u);  // CLR undo_next skipped the undone prefix

  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(0, &checked));
  EXPECT_GT(checked, 0u);
}

TEST_F(UndoTest, CrashAfterAReadAheadBatchRecoversTheSameBytesEverywhere) {
  WorkloadDriver driver(engine_.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(200));
  ASSERT_OK(engine_->Checkpoint());
  // A 20-op loser of updates, deletes and inserts. A 64-frame pool reads
  // 8 keys ahead a batch, so an undo stopped after 12 ops has consumed one
  // batch and read the next.
  std::map<Key, std::string> before;  // "" = absent
  {
    Txn loser;
    ASSERT_OK(engine_->Begin(&loser));
    for (Key i = 0; i < 20; i++) {
      const Key k = i < 16 ? 7 + 311 * i : 5000 + 3 * i;
      std::string v;
      if (i < 16) ASSERT_OK(engine_->Read(k, &v));
      before[k] = v;
      if (i < 12) {
        ASSERT_OK(loser.Update(table_, k, Val(k, 9)));
      } else if (i < 16) {
        ASSERT_OK(loser.Delete(table_, k));
      } else {
        ASSERT_OK(loser.Insert(table_, k, Val(k, 9)));
      }
    }
    engine_->tc().ForceLog();
    loser.Release();  // in flight at the crash
  }
  driver.OnCrash();
  engine_->SimulateCrash();

  // Analysis and redo, then an undo that "crashes" after 12 ops.
  ASSERT_OK(engine_->dc().OpenDatabase());
  engine_->dc().monitor().set_enabled(false);
  engine_->dc().pool().set_callbacks_enabled(false);
  const Lsn start = engine_->wal().master().bckpt_lsn;
  SqlAnalysisResult ar;
  ASSERT_OK(RunSqlAnalysis(&engine_->wal(), start, &ar));
  RedoResult rr;
  ASSERT_OK(RunSqlRedo(&engine_->wal(), &engine_->dc(), start, &ar.dpt,
                       false, engine_->options(), &rr));
  const uint64_t prefetched = engine_->dc().pool().stats().prefetch_issued;
  UndoResult ur;
  ASSERT_OK(RunUndo(&engine_->wal(), &engine_->dc(), ar.att, &ur,
                    UndoKind::kRecovery, /*max_ops_for_test=*/12));
  EXPECT_EQ(ur.ops_undone, 12u);
  EXPECT_GT(engine_->dc().pool().stats().prefetch_issued, prefetched)
      << "the undo read its losers' paths ahead";
  engine_->dc().monitor().set_enabled(true);
  engine_->dc().pool().set_callbacks_enabled(true);
  engine_->SimulateCrash();
  Engine::StableSnapshot snap;
  ASSERT_OK(engine_->TakeStableSnapshot(&snap));

  // Every method, at recovery_threads one and four, recovers the same
  // bytes as Log0 at one.
  testing_util::StateImage log0_state;
  for (uint32_t threads : {1u, 4u}) {
    for (RecoveryMethod m :
         {RecoveryMethod::kLog0, RecoveryMethod::kLog1, RecoveryMethod::kLog2,
          RecoveryMethod::kSql1, RecoveryMethod::kSql2}) {
      const std::string name =
          std::string(RecoveryMethodName(m)) + "/t" + std::to_string(threads);
      EngineOptions o = engine_->options();
      o.recovery_threads = threads;
      std::unique_ptr<Engine> r;
      ASSERT_OK(Engine::Open(o, &r));
      r->SimulateCrash();
      ASSERT_OK(r->RestoreStableSnapshot(snap));
      RecoveryStats st;
      ASSERT_OK(r->Recover(m, &st));
      EXPECT_EQ(st.txns_undone, 1u) << name;
      EXPECT_EQ(st.undo_ops, 8u) << name;  // the CLRs skip the undone 12
      for (const auto& [k, v] : before) {
        std::string got;
        const Status rs = r->Read(k, &got);
        if (v.empty()) {
          EXPECT_TRUE(rs.IsNotFound()) << name << " key " << k;
        } else {
          ASSERT_OK(rs);
          EXPECT_EQ(got, v) << name << " key " << k;
        }
      }
      ASSERT_OK(driver.AttachEngine(r.get()));
      uint64_t checked = 0;
      ASSERT_OK(driver.Verify(0, &checked));
      EXPECT_GT(checked, 0u);
      const testing_util::StateImage state =
          testing_util::CaptureState(r.get());
      if (m == RecoveryMethod::kLog0 && threads == 1) {
        log0_state = state;
      } else {
        testing_util::ExpectSameState(state, log0_state, name);
      }
    }
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
/// B's pid.
TEST_F(UndoTest, ReadAheadSurvivesMergeThenSplitReuse) {
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

  DataComponent& dc = e->dc();
  ASSERT_OK(dc.OpenDatabase());
  dc.monitor().set_enabled(false);
  dc.pool().set_callbacks_enabled(false);
  dc.Eosl(e->wal().stable_end() - 1);
  SqlAnalysisResult ar;
  ASSERT_OK(RunSqlAnalysis(&e->wal(), e->wal().master().bckpt_lsn, &ar));
  RedoResult rr;
  ASSERT_OK(RunSqlRedo(&e->wal(), &dc, ar.redo_start_lsn, &ar.dpt,
                       /*prefetch=*/false, o, &rr));
  // A cold cache: the read-ahead, not redo, brings in every loser path.
  ASSERT_OK(dc.pool().FlushAllDirty());
  dc.pool().Reset();
  const uint64_t prefetched0 = dc.pool().stats().prefetch_issued;
  const uint64_t splits0 = dc.btree().stats().splits;
  UndoResult ur;
  ASSERT_OK(RunUndo(&e->wal(), &dc, ar.att, &ur));
  EXPECT_EQ(ur.ops_undone, 18u);
  EXPECT_GT(dc.pool().stats().prefetch_issued, prefetched0);
  EXPECT_EQ(dc.btree().stats().merges, 1u);
  EXPECT_GT(dc.btree().stats().splits, splits0);
  PageId leaf_of_291 = kInvalidPageId;
  PageId leaf_of_6000 = kInvalidPageId;
  ASSERT_OK(dc.FindLeaf(o.table_id, 291, &leaf_of_291));
  ASSERT_OK(dc.FindLeaf(o.table_id, 6000, &leaf_of_6000));
  EXPECT_EQ(leaf_of_291, leaf_a) << "B must have merged into A";
  EXPECT_EQ(leaf_of_6000, leaf_b)
      << "the split must reuse the merged-away leaf's pid";
  dc.Eosl(e->wal().stable_end());  // the CLRs are stable, as after Recover
  EXPECT_TRUE(testing_util::CaptureState(e.get()).free_list.empty());
}

TEST_F(UndoTest, UndoOfInsertsDeletesRows) {
  const Key fresh = engine_->options().num_rows + 1;
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  ASSERT_OK(t.Insert(table_, fresh, Val(fresh, 1)));
  ASSERT_OK(t.Insert(table_, fresh + 1, Val(fresh + 1, 1)));
  engine_->tc().ForceLog();
  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kLog1, &st));
  std::string v;
  EXPECT_TRUE(engine_->Read(fresh, &v).IsNotFound());
  EXPECT_TRUE(engine_->Read(fresh + 1, &v).IsNotFound());
  uint64_t rows = 0;
  ASSERT_OK(engine_->dc().btree().CheckWellFormed(&rows));
  EXPECT_EQ(rows, engine_->options().num_rows);
}

TEST_F(UndoTest, MixedLoserInsertAndUpdate) {
  const Key fresh = engine_->options().num_rows + 5;
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  ASSERT_OK(t.Update(table_, 7, Val(7, 1)));
  ASSERT_OK(t.Insert(table_, fresh, Val(fresh, 1)));
  ASSERT_OK(t.Update(table_, fresh, Val(fresh, 2)));
  engine_->tc().ForceLog();
  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kLog2, &st));
  EXPECT_EQ(st.undo_ops, 3u);
  std::string v;
  ASSERT_OK(engine_->Read(7, &v));
  EXPECT_EQ(v, Val(7, 0));
  EXPECT_TRUE(engine_->Read(fresh, &v).IsNotFound());
}

// Undo applies the inverse write, not a blanket CLR upsert: undoing an
// update or an insert of a key its leaf lacks is NotFound, never a silent
// insert.
TEST_F(UndoTest, UndoOfAMissingKeyIsNotFound) {
  const Key missing = engine_->options().num_rows + 50;
  const LogRecordType types[] = {LogRecordType::kUpdate,
                                 LogRecordType::kInsert};
  Txn losers[2];
  for (int i = 0; i < 2; i++) {
    ASSERT_OK(engine_->Begin(&losers[i]));
    // Logged but never applied: the key stays absent from its leaf.
    Lsn lsn = kInvalidLsn;
    ASSERT_OK(engine_->tc().LogReplayOp(
        losers[i].id(), types[i], table_.id(), missing, Val(missing, 0),
        Val(missing, 1), kInvalidPageId, &lsn));
    ActiveTxnTable att;
    att[losers[i].id()] = lsn;
    UndoResult ur;
    EXPECT_TRUE(
        RunUndo(&engine_->wal(), &engine_->dc(), att, &ur).IsNotFound())
        << LogRecordTypeName(types[i]);
  }
  std::string v;
  EXPECT_TRUE(engine_->Read(missing, &v).IsNotFound());
  engine_->SimulateCrash();  // the losers cannot roll back: drop them
}

TEST_F(UndoTest, UndoPassTimingIsRecorded) {
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  for (Key k = 0; k < 20; k++) {
    ASSERT_OK(t.Update(table_, k * 37, Val(k * 37, 1)));
  }
  engine_->tc().ForceLog();
  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kLog1, &st));
  EXPECT_EQ(st.undo_ops, 20u);
  EXPECT_GT(st.undo.ms, 0.0);
  EXPECT_GE(st.total_ms, st.undo.ms);
}

}  // namespace
}  // namespace deutero
