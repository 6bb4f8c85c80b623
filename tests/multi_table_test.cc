// Multi-table tests: logged DDL (kCreateTable), per-table routing, crash
// recovery of tables created after the last checkpoint, and replication of
// DDL + per-table operations.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/replica.h"
#include "test_util.h"
#include "workload/driver.h"

namespace deutero {
namespace {

using testing_util::SmallOptions;

constexpr TableId kOrders = 2;
constexpr TableId kItems = 3;

class MultiTableTest : public ::testing::TestWithParam<RecoveryMethod> {
 protected:
  void SetUp() override {
    ASSERT_OK(Engine::Open(SmallOptions(), &engine_));
  }

  std::string Val(Key k, uint32_t version, uint32_t size) {
    return SynthesizeValueString(k, version, size);
  }

  Table Open(TableId id) {
    Table t;
    EXPECT_OK(engine_->OpenTable(id, &t));
    return t;
  }

  std::unique_ptr<Engine> engine_;
};

INSTANTIATE_TEST_SUITE_P(AllMethods, MultiTableTest,
                         ::testing::Values(RecoveryMethod::kLog0,
                                           RecoveryMethod::kLog1,
                                           RecoveryMethod::kLog2,
                                           RecoveryMethod::kSql1,
                                           RecoveryMethod::kSql2),
                         [](const auto& param_info) {
                           return RecoveryMethodName(param_info.param);
                         });

TEST_F(MultiTableTest, CreateInsertReadAcrossTables) {
  ASSERT_OK(engine_->CreateTable(kOrders, 40));
  ASSERT_OK(engine_->CreateTable(kItems, 12));
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  ASSERT_OK(t.Insert(Open(kOrders), 1, Val(1, 1, 40)));
  ASSERT_OK(t.Insert(Open(kItems), 1, Val(1, 2, 12)));
  ASSERT_OK(t.Commit());

  std::string v;
  ASSERT_OK(engine_->Read(kOrders, 1, &v));
  EXPECT_EQ(v, Val(1, 1, 40));
  ASSERT_OK(engine_->Read(kItems, 1, &v));
  EXPECT_EQ(v, Val(1, 2, 12));
  // Same key, different tables: fully independent rows.
  EXPECT_NE(v, Val(1, 1, 40));
  // The default table is untouched.
  ASSERT_OK(engine_->Read(1, &v));
  EXPECT_EQ(v, Val(1, 0, engine_->options().value_size));
}

TEST_F(MultiTableTest, DuplicateCreateRejected) {
  ASSERT_OK(engine_->CreateTable(kOrders, 40));
  EXPECT_TRUE(engine_->CreateTable(kOrders, 40).IsInvalidArgument());
  EXPECT_TRUE(
      engine_->CreateTable(engine_->options().table_id, 26)
          .IsInvalidArgument());
}

TEST_F(MultiTableTest, OpsOnUnknownTableFail) {
  Table unknown;
  EXPECT_TRUE(engine_->OpenTable(99, &unknown).IsNotFound());
  // A handle whose table's DDL never reached the stable log names an
  // unknown table once a crash has dropped it.
  ASSERT_OK(engine_->CreateTable(99, 26));
  ASSERT_OK(engine_->OpenTable(99, &unknown));
  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kLog1, &st));
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  EXPECT_TRUE(t.Insert(unknown, 1, Val(1, 1, 26)).IsNotFound());
  std::string v;
  EXPECT_TRUE(engine_->Read(99, 1, &v).IsNotFound());
  ASSERT_OK(t.Abort());
}

TEST_F(MultiTableTest, WrongValueSizeRejected) {
  ASSERT_OK(engine_->CreateTable(kOrders, 40));
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  EXPECT_TRUE(t.Insert(Open(kOrders), 1, Val(1, 1, 26)).IsInvalidArgument());
  ASSERT_OK(t.Abort());
}

TEST_F(MultiTableTest, BadCreateParamsRejected) {
  EXPECT_TRUE(engine_->CreateTable(kOrders, 0).IsInvalidArgument());
  EXPECT_TRUE(
      engine_->CreateTable(kOrders, engine_->options().page_size)
          .IsInvalidArgument());
}

/// The catalog's table entries must fit the meta page: on 1 KB pages that
/// is 40 tables, not Catalog::kMaxTables, and one more is refused instead
/// of overrunning the page when the catalog is next persisted.
TEST_F(MultiTableTest, CreateTableRefusesEntriesPastTheMetaPage) {
  const size_t fit = Catalog::MaxTables(engine_->options().page_size);
  ASSERT_LT(fit, Catalog::kMaxTables);
  for (TableId id = 2; id <= fit; id++) {
    ASSERT_OK(engine_->CreateTable(id, 12));
  }
  EXPECT_TRUE(engine_->CreateTable(static_cast<TableId>(fit + 1), 12)
                  .IsInvalidArgument());
  ASSERT_OK(engine_->Checkpoint());
  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kLog1, &st));
  EXPECT_EQ(engine_->dc().catalog().tables().size(), fit);
}

TEST_P(MultiTableTest, TableCreatedAfterCheckpointSurvivesCrash) {
  ASSERT_OK(engine_->Checkpoint());
  // DDL + data strictly after the checkpoint: only the log knows them.
  ASSERT_OK(engine_->CreateTable(kOrders, 40));
  const Table orders = Open(kOrders);
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  for (Key k = 0; k < 50; k++) {
    ASSERT_OK(t.Insert(orders, k, Val(k, 1, 40)));
  }
  ASSERT_OK(t.Commit());

  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(GetParam(), &st));

  std::string v;
  for (Key k = 0; k < 50; k++) {
    ASSERT_OK(engine_->Read(kOrders, k, &v));
    EXPECT_EQ(v, Val(k, 1, 40));
  }
  uint64_t rows = 0;
  ASSERT_OK(engine_->dc().FindTable(kOrders)->CheckWellFormed(&rows));
  EXPECT_EQ(rows, 50u);
}

TEST_P(MultiTableTest, MixedTableWorkloadRecovers) {
  ASSERT_OK(engine_->CreateTable(kOrders, 40));
  ASSERT_OK(engine_->Checkpoint());
  const Table orders = Open(kOrders);

  // Interleave default-table updates (driver) with second-table activity.
  WorkloadDriver driver(engine_.get(), WorkloadConfig{});
  for (int round = 0; round < 10; round++) {
    ASSERT_OK(driver.RunOps(30));
    Txn t;
    ASSERT_OK(engine_->Begin(&t));
    for (Key k = 0; k < 5; k++) {
      const Key key = round * 5 + k;
      ASSERT_OK(t.Insert(orders, key, Val(key, 7, 40)));
    }
    ASSERT_OK(t.Commit());
    if (round == 5) ASSERT_OK(engine_->Checkpoint());
  }
  // A loser touching BOTH tables right before the crash.
  Txn loser;
  ASSERT_OK(engine_->Begin(&loser));
  ASSERT_OK(loser.Update(Open(engine_->options().table_id), 3,
                         Val(3, 99, 26)));
  ASSERT_OK(loser.Update(orders, 3, Val(3, 99, 40)));
  engine_->tc().ForceLog();

  driver.OnCrash();
  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(GetParam(), &st));
  EXPECT_GE(st.txns_undone, 1u);

  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(0, &checked));
  std::string v;
  for (Key k = 0; k < 50; k++) {
    ASSERT_OK(engine_->Read(kOrders, k, &v));
    EXPECT_EQ(v, Val(k, 7, 40)) << "loser leaked into table 2 at key " << k;
  }
}

TEST_F(MultiTableTest, CatalogPersistsAcrossCheckpointedCrash) {
  ASSERT_OK(engine_->CreateTable(kOrders, 40));
  ASSERT_OK(engine_->Checkpoint());
  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kLog1, &st));
  EXPECT_NE(engine_->dc().FindTable(kOrders), nullptr);
  EXPECT_EQ(engine_->dc().catalog().tables().size(), 2u);
}

TEST_F(MultiTableTest, DdlReplicatesToDifferentGeometry) {
  EngineOptions ropts = SmallOptions();
  ropts.page_size = 4096;
  std::unique_ptr<LogicalReplica> replica;
  ASSERT_OK(LogicalReplica::Open(ropts, &replica));

  ASSERT_OK(engine_->CreateTable(kOrders, 40));
  const Table orders = Open(kOrders);
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  for (Key k = 0; k < 30; k++) {
    ASSERT_OK(t.Insert(orders, k, Val(k, 1, 40)));
  }
  ASSERT_OK(t.Commit());

  ReplicationChannel channel;
  channel.Publish(*engine_);
  ASSERT_OK(replica->Pump(&channel));
  ASSERT_NE(replica->engine().dc().FindTable(kOrders), nullptr);
  std::string v;
  for (Key k = 0; k < 30; k++) {
    ASSERT_OK(replica->engine().Read(kOrders, k, &v));
    EXPECT_EQ(v, Val(k, 1, 40));
  }
}

TEST_F(MultiTableTest, SmosInSecondTableRecover) {
  ASSERT_OK(engine_->CreateTable(kItems, 12));
  ASSERT_OK(engine_->Checkpoint());
  const Table items = Open(kItems);
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  // Enough inserts to split the second table's root several times
  // (1 KB pages, 12-byte values: ~49 rows per leaf).
  for (Key k = 0; k < 400; k++) {
    ASSERT_OK(t.Insert(items, k, Val(k, 1, 12)));
    if (k % 50 == 49) {
      ASSERT_OK(t.Commit());
      ASSERT_OK(engine_->Begin(&t));
    }
  }
  ASSERT_OK(t.Commit());
  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kLog2, &st));
  uint64_t rows = 0;
  ASSERT_OK(engine_->dc().FindTable(kItems)->CheckWellFormed(&rows));
  EXPECT_EQ(rows, 400u);
  EXPECT_GT(engine_->dc().FindTable(kItems)->height(), 1u);
}

}  // namespace
}  // namespace deutero
