// Workload driver and oracle tests: version accounting, commit/abort/crash
// interactions with the oracle, distributions, and verification sensitivity.
#include <gtest/gtest.h>

#include <memory>

#include "common/crc32.h"
#include "core/engine.h"
#include "test_util.h"
#include "workload/driver.h"

namespace deutero {
namespace {

using testing_util::SmallOptions;

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_OK(Engine::Open(SmallOptions(), &engine_)); }
  std::unique_ptr<Engine> engine_;
};

TEST_F(WorkloadTest, RunOpsCommitsWholeTransactions) {
  WorkloadDriver driver(engine_.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(100));
  EXPECT_EQ(driver.ops_done(), 100u);
  EXPECT_EQ(driver.txns_committed(), 10u);  // 10 updates per txn
  EXPECT_TRUE(engine_->tc().active_txns().empty());
}

TEST_F(WorkloadTest, ExpectedValueTracksCommittedVersionsOnly) {
  WorkloadDriver driver(engine_.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(50));
  // Every key the oracle knows about reads back as expected.
  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(0, &checked));
  EXPECT_GE(checked, driver.committed_versions().size());
}

TEST_F(WorkloadTest, NeverUpdatedKeyExpectsVersionZero) {
  WorkloadDriver driver(engine_.get(), WorkloadConfig{});
  const std::string expected = driver.ExpectedValue(4999);
  EXPECT_EQ(expected, SynthesizeValueString(
                          4999, 0, engine_->options().value_size));
}

TEST_F(WorkloadTest, CrashDropsPendingExpectations) {
  WorkloadDriver driver(engine_.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(50));
  ASSERT_OK(driver.RunOpsNoCommit(5));
  driver.OnCrash();
  engine_->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(engine_->Recover(RecoveryMethod::kLog1, &st));
  // The oracle never admitted the uncommitted 5 ops: verify passes.
  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(0, &checked));
}

TEST_F(WorkloadTest, CommitOpenAdmitsPendingToOracle) {
  WorkloadDriver driver(engine_.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOpsNoCommit(5));
  ASSERT_OK(driver.CommitOpen());
  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(0, &checked));
  EXPECT_GE(driver.committed_versions().size(), 1u);
}

TEST_F(WorkloadTest, VerifyDetectsCorruption) {
  WorkloadDriver driver(engine_.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(50));
  // Corrupt one committed row behind the oracle's back.
  const Key victim = driver.committed_versions().begin()->first;
  Table table;
  ASSERT_OK(engine_->OpenDefaultTable(&table));
  Txn t;
  ASSERT_OK(engine_->Begin(&t));
  ASSERT_OK(
      t.Update(table, victim, std::string(engine_->options().value_size, '!')));
  ASSERT_OK(t.Commit());
  uint64_t checked = 0;
  EXPECT_TRUE(driver.Verify(0, &checked).IsCorruption());
}

TEST_F(WorkloadTest, ZipfianWorkloadRunsAndVerifies) {
  WorkloadConfig wc;
  wc.distribution = WorkloadConfig::Distribution::kZipfian;
  wc.zipf_theta = 0.9;
  WorkloadDriver driver(engine_.get(), wc);
  ASSERT_OK(driver.RunOps(500));
  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(0, &checked));
  // Skew: far fewer distinct keys than operations.
  EXPECT_LT(driver.committed_versions().size(), 400u);
}

TEST_F(WorkloadTest, ZipfianLocalityShrinksDpt) {
  // Paper App. B: "The better the page locality of the workload, the fewer
  // unique pages appear in update log records, and hence the smaller the
  // DPT size." Compare uniform vs zipfian DPTs for the same op count.
  auto run = [&](WorkloadConfig wc) {
    std::unique_ptr<Engine> e;
    EXPECT_TRUE(Engine::Open(SmallOptions(), &e).ok());
    WorkloadDriver driver(e.get(), wc);
    EXPECT_TRUE(driver.RunOps(300).ok());
    EXPECT_TRUE(e->Checkpoint().ok());
    EXPECT_TRUE(driver.RunOps(600).ok());
    e->dc().monitor().ForceEmit();
    driver.OnCrash();
    e->SimulateCrash();
    RecoveryStats st;
    EXPECT_TRUE(e->Recover(RecoveryMethod::kLog1, &st).ok());
    return st.dpt_size;
  };
  WorkloadConfig uniform;
  WorkloadConfig zipf;
  zipf.distribution = WorkloadConfig::Distribution::kZipfian;
  zipf.zipf_theta = 0.99;
  EXPECT_LT(run(zipf), run(uniform));
}

TEST_F(WorkloadTest, ReadsDiluteTheDirtyCache) {
  // Paper App. B: "Reads dilute the cache 'update density', meaning that
  // fewer pages are dirty at any time."
  auto dirty_after = [&](double read_fraction) {
    EngineOptions o = SmallOptions();
    o.lazy_writer_base_fraction = 0;  // isolate workload-driven dirtiness
    std::unique_ptr<Engine> e;
    EXPECT_TRUE(Engine::Open(o, &e).ok());
    WorkloadConfig wc;
    wc.read_fraction = read_fraction;
    WorkloadDriver driver(e.get(), wc);
    EXPECT_TRUE(driver.RunOps(600).ok());
    return e->dc().pool().dirty_pages();
  };
  EXPECT_LT(dirty_after(0.8), dirty_after(0.0));
}

TEST_F(WorkloadTest, ReadOnlyWorkloadDirtiesNothing) {
  WorkloadConfig wc;
  wc.read_fraction = 1.0;
  WorkloadDriver driver(engine_.get(), wc);
  const uint64_t dirty_before = engine_->dc().pool().dirty_pages();
  ASSERT_OK(driver.RunOps(200));
  EXPECT_EQ(engine_->dc().pool().dirty_pages(), dirty_before);
  EXPECT_EQ(driver.committed_versions().size(), 0u);
}

TEST_F(WorkloadTest, InsertWorkloadGrowsTable) {
  WorkloadConfig wc;
  wc.insert_fraction = 1.0;
  WorkloadDriver driver(engine_.get(), wc);
  ASSERT_OK(driver.RunOps(200));
  uint64_t rows = 0;
  ASSERT_OK(engine_->dc().btree().CheckWellFormed(&rows));
  EXPECT_EQ(rows, engine_->options().num_rows + 200);
}

TEST_F(WorkloadTest, DriverDeterministicForSeed) {
  auto digest = [&](uint64_t seed) {
    std::unique_ptr<Engine> e;
    EXPECT_TRUE(Engine::Open(SmallOptions(), &e).ok());
    WorkloadConfig wc;
    wc.seed = seed;
    WorkloadDriver driver(e.get(), wc);
    EXPECT_TRUE(driver.RunOps(200).ok());
    // The stable log's bytes, not a count of them: two seeds can append
    // the same number of bytes when neither emits a flush-driven record.
    const Slice log = e->wal().StableBytes(kFirstLsn);
    EXPECT_GT(log.size(), 0u);
    return Crc32c(log.data(), log.size());
  };
  EXPECT_EQ(digest(5), digest(5));
  EXPECT_NE(digest(5), digest(6));
}

}  // namespace
}  // namespace deutero
