// Checkpoint-scheme tests: the ATT capture that protects idle losers, and
// the ARIES (§3.1) vs penultimate (§3.2) checkpoint schemes.
#include <gtest/gtest.h>

#include <memory>

#include "core/engine.h"
#include "test_util.h"
#include "workload/driver.h"

namespace deutero {
namespace {

using testing_util::SmallOptions;

std::string V(const Engine& e, Key k, uint32_t version) {
  return SynthesizeValueString(k, version, e.options().value_size);
}

class IdleLoserTest : public ::testing::TestWithParam<RecoveryMethod> {};

INSTANTIATE_TEST_SUITE_P(AllMethods, IdleLoserTest,
                         ::testing::Values(RecoveryMethod::kLog0,
                                           RecoveryMethod::kLog1,
                                           RecoveryMethod::kLog2,
                                           RecoveryMethod::kSql1,
                                           RecoveryMethod::kSql2),
                         [](const auto& param_info) {
                           return RecoveryMethodName(param_info.param);
                         });

// A transaction whose records all precede the final checkpoint and that
// stays idle until the crash must still be undone: the checkpoint record's
// captured ATT is the only thing that can name it.
TEST_P(IdleLoserTest, LoserIdleAcrossCheckpointIsUndone) {
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(SmallOptions(), &e));
  Table table;
  ASSERT_OK(e->OpenDefaultTable(&table));
  Txn loser;
  ASSERT_OK(e->Begin(&loser));
  ASSERT_OK(loser.Update(table, 7, V(*e, 7, 1)));
  e->tc().ForceLog();
  ASSERT_OK(e->Checkpoint());  // loser is idle across this checkpoint
  // Unrelated committed work after the checkpoint.
  Txn t;
  ASSERT_OK(e->Begin(&t));
  ASSERT_OK(t.Update(table, 8, V(*e, 8, 1)));
  ASSERT_OK(t.Commit());

  e->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(e->Recover(GetParam(), &st));
  EXPECT_EQ(st.txns_undone, 1u);
  std::string v;
  ASSERT_OK(e->Read(7, &v));
  EXPECT_EQ(v, V(*e, 7, 0)) << "idle loser survived recovery";
  ASSERT_OK(e->Read(8, &v));
  EXPECT_EQ(v, V(*e, 8, 1));
}

TEST_P(IdleLoserTest, LoserIdleAcrossTwoCheckpointsIsUndone) {
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(SmallOptions(), &e));
  Table table;
  ASSERT_OK(e->OpenDefaultTable(&table));
  Txn loser;
  ASSERT_OK(e->Begin(&loser));
  ASSERT_OK(loser.Update(table, 9, V(*e, 9, 1)));
  e->tc().ForceLog();
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(e->Checkpoint());
  e->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(e->Recover(GetParam(), &st));
  EXPECT_EQ(st.txns_undone, 1u);
  std::string v;
  ASSERT_OK(e->Read(9, &v));
  EXPECT_EQ(v, V(*e, 9, 0));
}

class AriesSchemeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineOptions o = SmallOptions();
    o.checkpoint_scheme = CheckpointScheme::kAries;
    ASSERT_OK(Engine::Open(o, &engine_));
  }
  std::unique_ptr<Engine> engine_;
};

TEST_F(AriesSchemeTest, CheckpointFlushesNothing) {
  WorkloadDriver driver(engine_.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(200));
  const uint64_t dirty_before = engine_->dc().pool().dirty_pages();
  ASSERT_GT(dirty_before, 0u);
  uint64_t flushed = 0;
  ASSERT_OK(engine_->Checkpoint(&flushed));
  EXPECT_EQ(flushed, 0u);  // fuzzy checkpoint: no flush burst
  EXPECT_EQ(engine_->dc().pool().dirty_pages(), dirty_before);
}

TEST_F(AriesSchemeTest, CheckpointRecordCarriesDpt) {
  WorkloadDriver driver(engine_.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(200));
  ASSERT_OK(engine_->Checkpoint());
  LogRecord rec;
  ASSERT_OK(
      engine_->wal().ReadRecordAt(engine_->wal().master().bckpt_lsn, &rec));
  ASSERT_EQ(rec.type, LogRecordType::kBeginCheckpoint);
  EXPECT_EQ(rec.ckpt_dpt_pids.size(), rec.ckpt_dpt_rlsns.size());
  EXPECT_GT(rec.ckpt_dpt_pids.size(), 0u);
}

TEST_F(AriesSchemeTest, SqlRecoveryReachesBackPastTheCheckpoint) {
  // Dirty a page well before the checkpoint and never flush it: redo must
  // start at its first-dirty LSN, which precedes the checkpoint record.
  WorkloadDriver driver(engine_.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(300));
  ASSERT_OK(engine_->Checkpoint());
  ASSERT_OK(driver.RunOps(100));
  driver.OnCrash();
  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kSql1, &st));
  // The redo pass scanned more records than sit after the checkpoint.
  EXPECT_GT(st.redo.records, st.analysis.records);
  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(0, &checked));
  EXPECT_GT(checked, 0u);
}

TEST_F(AriesSchemeTest, BothSqlMethodsRecoverCorrectly) {
  WorkloadDriver driver(engine_.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(400));
  ASSERT_OK(engine_->Checkpoint());
  ASSERT_OK(driver.RunOps(300));
  ASSERT_OK(driver.RunOpsNoCommit(5));
  engine_->tc().ForceLog();
  driver.OnCrash();
  engine_->SimulateCrash();

  Engine::StableSnapshot snap;
  ASSERT_OK(engine_->TakeStableSnapshot(&snap));
  for (RecoveryMethod m : {RecoveryMethod::kSql1, RecoveryMethod::kSql2}) {
    ASSERT_OK(engine_->RestoreStableSnapshot(snap));
    RecoveryStats st;
    ASSERT_OK(engine_->Recover(m, &st));
    EXPECT_GE(st.txns_undone, 1u);
    uint64_t checked = 0;
    ASSERT_OK(driver.Verify(0, &checked));
    engine_->SimulateCrash();
  }
}

TEST_F(AriesSchemeTest, LogicalRecoveryIsRejected) {
  WorkloadDriver driver(engine_.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(100));
  driver.OnCrash();
  engine_->SimulateCrash();
  RecoveryStats st;
  EXPECT_TRUE(
      engine_->Recover(RecoveryMethod::kLog1, &st).IsInvalidArgument());
  // SQL recovery still brings the engine back.
  ASSERT_OK(engine_->Recover(RecoveryMethod::kSql1, &st));
}

TEST(CheckpointSchemeComparison, AriesCheckpointsCheaperButRedoLonger) {
  auto run = [](CheckpointScheme scheme, uint64_t* ckpt_flushes,
                double* redo_ms) {
    EngineOptions o = SmallOptions();
    o.checkpoint_scheme = scheme;
    std::unique_ptr<Engine> e;
    ASSERT_OK(Engine::Open(o, &e));
    WorkloadDriver driver(e.get(), WorkloadConfig{});
    ASSERT_OK(driver.RunOps(300));
    const uint64_t flushes_before = e->dc().pool().stats().checkpoint_flushes;
    ASSERT_OK(e->Checkpoint());
    *ckpt_flushes = e->dc().pool().stats().checkpoint_flushes - flushes_before;
    ASSERT_OK(driver.RunOps(300));
    driver.OnCrash();
    e->SimulateCrash();
    RecoveryStats st;
    ASSERT_OK(e->Recover(RecoveryMethod::kSql1, &st));
    *redo_ms = st.redo.ms;
    uint64_t checked = 0;
    ASSERT_OK(driver.Verify(0, &checked));
  };
  uint64_t pen_flushes = 0, aries_flushes = 0;
  double pen_redo = 0, aries_redo = 0;
  run(CheckpointScheme::kPenultimate, &pen_flushes, &pen_redo);
  run(CheckpointScheme::kAries, &aries_flushes, &aries_redo);
  EXPECT_GT(pen_flushes, 0u);
  EXPECT_EQ(aries_flushes, 0u);
  // No flush burst at the checkpoint => more pages still need redo.
  EXPECT_GT(aries_redo, pen_redo);
}

}  // namespace
}  // namespace deutero
