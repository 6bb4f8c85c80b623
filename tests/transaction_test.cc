// TC-level tests: transaction lifecycle, runtime rollback with CLRs, the
// checkpoint protocol (bCkpt/RSSP/eCkpt/master), EOSL and the WAL rule.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/value_codec.h"
#include "core/engine.h"
#include "recovery/undo.h"
#include "test_util.h"
#include "wal/log_record.h"

namespace deutero {
namespace {

using testing_util::SmallOptions;

class TransactionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(Engine::Open(SmallOptions(), &engine_));
    ASSERT_OK(engine_->OpenDefaultTable(&table_));
  }

  std::string Val(Key k, uint32_t version) {
    return SynthesizeValueString(k, version, engine_->options().value_size);
  }

  std::vector<LogRecordType> StableRecordTypes() {
    std::vector<LogRecordType> out;
    for (auto it = engine_->wal().NewIterator(kFirstLsn, false); it.Valid();
         it.Next()) {
      out.push_back(it.record().type);
    }
    return out;
  }

  std::unique_ptr<Engine> engine_;
  Table table_;
};

TEST_F(TransactionTest, CommitMakesUpdateVisibleAndDurable) {
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  ASSERT_OK(t.Update(table_, 5, Val(5, 1)));
  ASSERT_OK(t.Commit());
  std::string v;
  ASSERT_OK(engine_->Read(5, &v));
  EXPECT_EQ(v, Val(5, 1));
  // The commit record is on the stable log (group commit).
  bool saw_commit = false;
  for (LogRecordType type : StableRecordTypes()) {
    if (type == LogRecordType::kTxnCommit) saw_commit = true;
  }
  EXPECT_TRUE(saw_commit);
}

TEST_F(TransactionTest, AbortRestoresBeforeImages) {
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  ASSERT_OK(t.Update(table_, 5, Val(5, 1)));
  ASSERT_OK(t.Update(table_, 6, Val(6, 1)));
  ASSERT_OK(t.Abort());
  std::string v;
  ASSERT_OK(engine_->Read(5, &v));
  EXPECT_EQ(v, Val(5, 0));  // bulk-load value restored
  ASSERT_OK(engine_->Read(6, &v));
  EXPECT_EQ(v, Val(6, 0));
  EXPECT_EQ(engine_->tc().stats().aborted, 1u);
}

TEST_F(TransactionTest, AbortWritesClrChainWithUndoNext) {
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  ASSERT_OK(t.Update(table_, 5, Val(5, 1)));
  ASSERT_OK(t.Update(table_, 6, Val(6, 1)));
  ASSERT_OK(t.Abort());
  int clrs = 0;
  bool abort_seen = false;
  for (auto it = engine_->wal().NewIterator(kFirstLsn, false); it.Valid();
       it.Next()) {
    if (it.record().type == LogRecordType::kClr) {
      clrs++;
      EXPECT_NE(it.record().undo_next_lsn, kInvalidLsn);
    }
    if (it.record().type == LogRecordType::kTxnAbort) abort_seen = true;
  }
  EXPECT_EQ(clrs, 2);
  EXPECT_TRUE(abort_seen);
}

TEST_F(TransactionTest, AbortOfInsertDeletesRecord) {
  Txn t;
  const Key fresh = engine_->options().num_rows + 10;
  ASSERT_OK(engine_->Begin(&t));
  ASSERT_OK(t.Insert(table_, fresh, Val(fresh, 1)));
  std::string v;
  ASSERT_OK(engine_->Read(fresh, &v));  // visible pre-abort (no isolation)
  ASSERT_OK(t.Abort());
  EXPECT_TRUE(engine_->Read(fresh, &v).IsNotFound());
}

TEST_F(TransactionTest, UpdateOfUnknownKeyFails) {
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  EXPECT_TRUE(
      t.Update(table_, engine_->options().num_rows + 999, Val(1, 1))
          .IsNotFound());
  ASSERT_OK(t.Abort());
}

TEST_F(TransactionTest, ConflictingUpdateIsBusy) {
  Txn a, b;
  ASSERT_OK(engine_->Begin(&a));
  ASSERT_OK(engine_->Begin(&b));
  ASSERT_OK(a.Update(table_, 5, Val(5, 1)));
  EXPECT_TRUE(b.Update(table_, 5, Val(5, 2)).IsBusy());
  ASSERT_OK(a.Commit());
  ASSERT_OK(b.Update(table_, 5, Val(5, 2)));
  ASSERT_OK(b.Commit());
  std::string v;
  ASSERT_OK(engine_->Read(5, &v));
  EXPECT_EQ(v, Val(5, 2));
}

TEST_F(TransactionTest, OperationsOnUnknownTxnFail) {
  // A handle that outlived a crash and a recovery names a transaction the
  // engine no longer knows (recovery rolled it back).
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kLog1, &st));
  ASSERT_TRUE(t.active());
  EXPECT_TRUE(t.Update(table_, 1, Val(1, 1)).IsInvalidArgument());
  EXPECT_TRUE(t.Commit().IsInvalidArgument());
  EXPECT_TRUE(t.Abort().IsInvalidArgument());
}

TEST_F(TransactionTest, CheckpointWritesProtocolRecordsInOrder) {
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  ASSERT_OK(t.Update(table_, 5, Val(5, 1)));
  ASSERT_OK(t.Commit());
  ASSERT_OK(engine_->Checkpoint());

  // Find the LAST bCkpt..eCkpt window and check the RSSP ack sits between.
  Lsn bckpt = 0, ack = 0, eckpt = 0;
  for (auto it = engine_->wal().NewIterator(kFirstLsn, false); it.Valid();
       it.Next()) {
    switch (it.record().type) {
      case LogRecordType::kBeginCheckpoint:
        bckpt = it.lsn();
        break;
      case LogRecordType::kRsspAck:
        ack = it.lsn();
        EXPECT_EQ(it.record().bckpt_lsn, bckpt);
        break;
      case LogRecordType::kEndCheckpoint:
        eckpt = it.lsn();
        EXPECT_EQ(it.record().bckpt_lsn, bckpt);
        break;
      default:
        break;
    }
  }
  EXPECT_LT(bckpt, ack);
  EXPECT_LT(ack, eckpt);
  EXPECT_EQ(engine_->wal().master().bckpt_lsn, bckpt);
  EXPECT_EQ(engine_->wal().master().eckpt_lsn, eckpt);
}

TEST_F(TransactionTest, CheckpointFlushesPreBckptDirt) {
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  for (Key k = 0; k < 30; k++) ASSERT_OK(t.Update(table_, k * 50, Val(k * 50, 1)));
  ASSERT_OK(t.Commit());
  uint64_t flushed = 0;
  ASSERT_OK(engine_->Checkpoint(&flushed));
  EXPECT_GT(flushed, 0u);
  EXPECT_EQ(engine_->dc().pool().dirty_pages(), 0u);
}

TEST_F(TransactionTest, EoslAdvancesWithCommits) {
  const Lsn before = engine_->dc().elsn();
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  ASSERT_OK(t.Update(table_, 5, Val(5, 1)));
  ASSERT_OK(t.Commit());
  EXPECT_GT(engine_->dc().elsn(), before);
  EXPECT_EQ(engine_->dc().elsn(), engine_->wal().stable_end());
}

// Named regression: the TC publishes the end of the stable log (the first
// offset not yet stable) as the eLSN, and the pool wrote a page whose
// pLSN equalled it without forcing the log. A record appended right after
// a force starts exactly there, so its page reached the device ahead of
// its record, and a crash left an uncommitted update no recovery could
// undo.
TEST_F(TransactionTest, WalRuleForcesARecordThatStartsAtTheStableEnd) {
  Txn loser;
  ASSERT_OK(engine_->Begin(&loser));
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  ASSERT_OK(t.Update(table_, 10, Val(10, 1)));
  ASSERT_OK(t.Commit());  // forces the log
  const Lsn record = engine_->wal().next_lsn();
  ASSERT_EQ(record, engine_->wal().stable_end());
  ASSERT_OK(loser.Update(table_, 4000, Val(4000, 7)));
  ASSERT_OK(engine_->dc().pool().FlushAllDirty());
  EXPECT_GT(engine_->wal().stable_end(), record)
      << "a page reached the device ahead of its log record";
  engine_->SimulateCrash();
  loser.Release();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kLog0, &st));
  std::string v;
  ASSERT_OK(engine_->Read(4000, &v));
  EXPECT_EQ(v, Val(4000, 0));
}

// Named regression: the undo pass forces the log itself, and publishes no
// eLSN (the caller's TC does). When a write of a CLR-dirtied page came
// first, the pool's WAL-force hook found the CLR stable and returned
// without publishing the stable end either. The DC's eLSN then lagged the
// log, and that write tripped the pool's WAL-rule assert in Debug builds.
// Engine::TxnAbort runs this pass and then publishes, so the test writes
// the leaf between the two, as recovery's undo pass and a remote page
// repair's log force can leave it.
TEST_F(TransactionTest, WriteAfterAnUndoPassForcePublishesTheStableEnd) {
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  ASSERT_OK(t.Update(table_, 5, Val(5, 1)));
  ActiveTxnTable loser;
  ASSERT_OK(engine_->tc().LastLsn(t.id(), &loser[t.id()]));
  UndoResult ur;
  ASSERT_OK(RunUndo(&engine_->wal(), &engine_->dc(), loser, /*threads=*/1,
                    &ur, UndoKind::kRollback));
  ASSERT_LT(engine_->dc().elsn(), engine_->wal().stable_end());
  PageId leaf = kInvalidPageId;
  ASSERT_OK(engine_->dc().FindLeaf(table_.id(), 5, &leaf));
  EXPECT_OK(engine_->dc().pool().FlushPage(leaf));  // before any commit
  EXPECT_EQ(engine_->dc().elsn(), engine_->wal().stable_end());
  ASSERT_OK(engine_->tc().FinishAbort(t.id()));
  t.Release();
}

TEST_F(TransactionTest, CrashDuringCheckpointKeepsOldRedoScanStart) {
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  ASSERT_OK(t.Update(table_, 5, Val(5, 1)));
  ASSERT_OK(t.Commit());
  ASSERT_OK(engine_->Checkpoint());
  const Lsn old_bckpt = engine_->wal().master().bckpt_lsn;

  // An incomplete checkpoint (crash between bCkpt and eCkpt) must not move
  // the redo scan start point (§3.2: penultimate checkpointing).
  CrashPoints cp;
  cp.after_rssp = true;
  engine_->tc().set_crash_points(cp);
  Txn t2;
  ASSERT_OK(engine_->Begin(&t2));
  ASSERT_OK(t2.Update(table_, 6, Val(6, 1)));
  ASSERT_OK(t2.Commit());
  EXPECT_TRUE(engine_->Checkpoint().IsAborted());
  EXPECT_EQ(engine_->wal().master().bckpt_lsn, old_bckpt);

  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kLog1, &st));
  std::string v;
  ASSERT_OK(engine_->Read(6, &v));
  EXPECT_EQ(v, Val(6, 1));
}

TEST_F(TransactionTest, CrashAfterBeginCheckpointRecovers) {
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  ASSERT_OK(t.Update(table_, 7, Val(7, 1)));
  ASSERT_OK(t.Commit());
  CrashPoints cp;
  cp.after_begin_checkpoint = true;
  engine_->tc().set_crash_points(cp);
  EXPECT_TRUE(engine_->Checkpoint().IsAborted());
  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kSql1, &st));
  std::string v;
  ASSERT_OK(engine_->Read(7, &v));
  EXPECT_EQ(v, Val(7, 1));
}

TEST_F(TransactionTest, TxnIdsResumePastCrash) {
  Txn t1;
  ASSERT_OK(engine_->Begin(&t1));
  const TxnId first = t1.id();
  ASSERT_OK(t1.Update(table_, 5, Val(5, 1)));
  ASSERT_OK(t1.Commit());
  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kLog1, &st));
  Txn t2;
  ASSERT_OK(engine_->Begin(&t2));
  EXPECT_GT(t2.id(), first);
  ASSERT_OK(t2.Abort());
}

}  // namespace
}  // namespace deutero
