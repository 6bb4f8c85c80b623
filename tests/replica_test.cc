// Logical log shipping tests (paper §1.1): a replica with a DIFFERENT page
// geometry applies the primary's logical records and converges to identical
// logical content.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/replica.h"
#include "test_util.h"
#include "workload/driver.h"

namespace deutero {
namespace {

using testing_util::SmallOptions;

// Every scenario runs on both apply paths: one partition applying inline
// on the dispatcher, and a four-worker crew.
class ReplicaTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override {
    primary_opts_ = SmallOptions();           // 1 KB pages
    replica_opts_ = SmallOptions();
    replica_opts_.page_size = 4096;           // different physical geometry
    replica_opts_.cache_pages = 32;
    replica_opts_.recovery_threads = GetParam();
    ASSERT_OK(Engine::Open(primary_opts_, &primary_));
    ASSERT_OK(LogicalReplica::Open(replica_opts_, &replica_));
  }

  /// Publish the primary's stable log and pump the standby to catch-up.
  void Ship() {
    channel_.Publish(*primary_);
    ASSERT_OK(replica_->Pump(&channel_));
  }

  void ExpectConverged() {
    // Full logical comparison through both engines' scan paths.
    std::vector<std::pair<Key, std::string>> a, b;
    ASSERT_OK(primary_->dc().btree().ScanAll(
        [&](Key k, Slice v) { a.emplace_back(k, v.ToString()); }));
    ASSERT_OK(replica_->engine().dc().btree().ScanAll(
        [&](Key k, Slice v) { b.emplace_back(k, v.ToString()); }));
    EXPECT_EQ(a, b);
  }

  EngineOptions primary_opts_;
  EngineOptions replica_opts_;
  std::unique_ptr<Engine> primary_;
  std::unique_ptr<LogicalReplica> replica_;
  ReplicationChannel channel_;
};

INSTANTIATE_TEST_SUITE_P(Threads, ReplicaTest, ::testing::Values(1u, 4u),
                         [](const auto& param_info) {
                           return "threads" +
                                  std::to_string(param_info.param);
                         });

TEST_P(ReplicaTest, CommittedTransactionsReplicate) {
  WorkloadDriver driver(primary_.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(300));
  Ship();
  EXPECT_EQ(replica_->txns_applied(), driver.txns_committed());
  ExpectConverged();
}

TEST_P(ReplicaTest, IncrementalSyncResumesCleanly) {
  WorkloadDriver driver(primary_.get(), WorkloadConfig{});
  for (int round = 0; round < 5; round++) {
    ASSERT_OK(driver.RunOps(100));
    Ship();
  }
  ExpectConverged();
}

TEST_P(ReplicaTest, AbortedTransactionsAreNotApplied) {
  TxnId t;
  ASSERT_OK(primary_->Begin(&t));
  ASSERT_OK(primary_->Update(
      t, 7, SynthesizeValueString(7, 1, primary_opts_.value_size)));
  ASSERT_OK(primary_->Abort(t));
  Ship();
  EXPECT_EQ(replica_->txns_applied(), 0u);
  std::string v;
  ASSERT_OK(replica_->SnapshotRead(primary_opts_.table_id, 7, &v));
  EXPECT_EQ(v, SynthesizeValueString(7, 0, primary_opts_.value_size));
}

TEST_P(ReplicaTest, UncommittedTailStaysBuffered) {
  TxnId t;
  ASSERT_OK(primary_->Begin(&t));
  ASSERT_OK(primary_->Update(
      t, 9, SynthesizeValueString(9, 1, primary_opts_.value_size)));
  primary_->tc().ForceLog();
  Ship();
  EXPECT_EQ(replica_->ops_applied(), 0u);
  // Commit arrives in the next batch; the buffered ops apply then.
  ASSERT_OK(primary_->Commit(t));
  Ship();
  EXPECT_EQ(replica_->ops_applied(), 1u);
  ExpectConverged();
}

TEST_P(ReplicaTest, InsertsReplicateAcrossGeometries) {
  WorkloadConfig wc;
  wc.insert_fraction = 0.4;
  WorkloadDriver driver(primary_.get(), wc);
  ASSERT_OK(driver.RunOps(400));
  Ship();
  ExpectConverged();
  uint64_t rows = 0;
  ASSERT_OK(replica_->engine().dc().btree().CheckWellFormed(&rows));
}

TEST_P(ReplicaTest, ReplicaSurvivesItsOwnCrash) {
  WorkloadDriver driver(primary_.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(200));
  Ship();
  // The replica is a full engine: crash it and recover logically.
  replica_->CrashStandby();
  RecoveryStats st;
  ASSERT_OK(replica_->RecoverStandby(RecoveryMethod::kLog2, &st));
  ExpectConverged();
}

// A standby whose cache is smaller than its table, crashed after each of
// four pumps of 400 ops and recovered by the SQL methods (Algorithm 3's
// BW-record prune) at two and four partitions, with the lazy writer off
// so every write is a pool-miss eviction. Such an eviction can write a
// page while an op the dispatcher routed to it is still queued; if the
// monitor's FW-LSN could cover that op's record, the next BW-record would
// prune the page from the recovery DPT and the op would be lost. The race
// depends on thread timing, so the matrix is wide: 2 methods x 2
// partition counts x 8 seeds x 3 caches.
TEST(StandbyCachePressureTest, CrashAfterEveryPumpLosesNoCommittedUpdate) {
  std::string diverged;
  for (RecoveryMethod method : {RecoveryMethod::kSql1, RecoveryMethod::kSql2}) {
    for (uint32_t threads : {2u, 4u}) {
      for (uint64_t seed = 1; seed <= 8; seed++) {
        for (uint32_t cache : {16u, 32u, 64u}) {
          std::unique_ptr<Engine> primary;
          ASSERT_OK(Engine::Open(SmallOptions(), &primary));
          EngineOptions so = SmallOptions();
          so.page_size = 2048;
          so.cache_pages = cache;
          so.lazy_writer_base_fraction = 0;
          so.checkpoint_interval_updates = 1u << 30;  // no standby checkpoint
          so.recovery_threads = threads;
          std::unique_ptr<LogicalReplica> standby;
          ASSERT_OK(LogicalReplica::Open(so, &standby));
          WorkloadConfig wc;
          wc.seed = seed;
          WorkloadDriver driver(primary.get(), wc);
          ReplicationChannel channel;
          for (int round = 0; round < 4; round++) {
            ASSERT_OK(driver.RunOps(400));
            channel.Publish(*primary);
            ASSERT_OK(standby->Pump(&channel));
            standby->CrashStandby();
            ASSERT_OK(standby->RecoverStandby(method));
          }
          std::vector<std::pair<Key, std::string>> a, b;
          ASSERT_OK(primary->dc().btree().ScanAll(
              [&](Key k, Slice v) { a.emplace_back(k, v.ToString()); }));
          ASSERT_OK(standby->engine().dc().btree().ScanAll(
              [&](Key k, Slice v) { b.emplace_back(k, v.ToString()); }));
          if (a != b) {
            diverged += std::string(" ") + RecoveryMethodName(method) +
                        "/t" + std::to_string(threads) + "/seed" +
                        std::to_string(seed) + "/cache" +
                        std::to_string(cache);
          }
        }
      }
    }
  }
  EXPECT_EQ(diverged, "") << "standby lost committed updates in these cells";
}

// ---- hot-standby surface: channel, pump, lag, gating, failover ----

TEST(ReplicationChannelTest, PublishPullBoundsAndStats) {
  std::unique_ptr<Engine> primary;
  ASSERT_OK(Engine::Open(SmallOptions(), &primary));
  WorkloadDriver driver(primary.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(100));

  ReplicationChannel channel;
  EXPECT_EQ(channel.published_end(), kFirstLsn);  // only the LSN-0 pad
  channel.Publish(*primary);
  const Lsn end1 = channel.published_end();
  EXPECT_GT(end1, kFirstLsn);
  EXPECT_EQ(channel.published_txns(), primary->tc().stats().committed);

  // Re-publishing with no new stable bytes is a no-op on the byte stream.
  channel.Publish(*primary);
  EXPECT_EQ(channel.published_end(), end1);

  // Pulls are bounded, byte-exact against the primary's own stable log,
  // and return 0 once the puller is caught up.
  std::string chunk;
  Lsn at = kFirstLsn;
  size_t pulled_total = 0;
  while (true) {
    const size_t n = channel.Pull(at, 512, &chunk);
    if (n == 0) break;
    EXPECT_LE(n, 512u);
    const Slice stable = primary->wal().StableBytes(at);
    ASSERT_GE(stable.size(), n);
    EXPECT_EQ(std::string(stable.data(), n), chunk);
    at += n;
    pulled_total += n;
  }
  EXPECT_EQ(at, end1);
  EXPECT_EQ(channel.Pull(end1, 512, &chunk), 0u);

  // Published bytes survive a primary crash — the channel is stable media.
  primary->SimulateCrash();
  channel.Publish(*primary);
  EXPECT_GE(channel.published_end(), end1);

  const ReplicationChannel::Stats cs = channel.stats();
  EXPECT_EQ(cs.published_end, channel.published_end());
  EXPECT_EQ(cs.publishes, 3u);
  EXPECT_GT(cs.chunks_pulled, 1u);
  EXPECT_EQ(cs.bytes_pulled, pulled_total);
}

// Delete-heavy churn plus a contiguous range delete: the primary runs its
// own merges (1 KB leaves), the 4 KB standby must run ITS OWN delete-side
// SMOs locally — and both sides end with zero empty leaves and identical
// exact row counts.
TEST_P(ReplicaTest, DeleteHeavyMergeChurnConvergesCrossGeometry) {
  ReplicationChannel channel;
  WorkloadConfig wc;
  wc.insert_fraction = 0.15;
  wc.delete_fraction = 0.35;
  WorkloadDriver driver(primary_.get(), wc);
  for (int round = 0; round < 4; round++) {
    ASSERT_OK(driver.RunOps(150));
    channel.Publish(*primary_);
    ASSERT_OK(replica_->Pump(&channel, 4096));
  }

  // Drain whole key ranges so leaves empty out on BOTH geometries (a 4 KB
  // leaf holds ~4x more rows than a 1 KB one). The driver may already have
  // deleted some of these keys — only NotFound is acceptable then.
  Table table;
  ASSERT_OK(primary_->OpenDefaultTable(&table));
  for (Key lo = 500; lo < 2500; lo += 50) {
    Txn txn;
    ASSERT_OK(primary_->Begin(&txn));
    for (Key k = lo; k < lo + 50; k++) {
      const Status s = txn.Delete(table, k);
      ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    }
    ASSERT_OK(txn.Commit());
  }
  channel.Publish(*primary_);
  ASSERT_OK(replica_->Pump(&channel, 4096));

  ExpectConverged();
  uint64_t scan_rows = 0;
  ASSERT_OK(primary_->dc().btree().ScanAll([&](Key, Slice) { scan_rows++; }));
  const struct {
    Engine* engine;
    const char* who;
  } sides[2] = {{primary_.get(), "primary"}, {&replica_->engine(), "standby"}};
  for (const auto& side : sides) {
    SCOPED_TRACE(side.who);
    BTree& tree = side.engine->dc().btree();
    EXPECT_EQ(tree.row_count(), scan_rows);
    uint64_t wf_rows = 0;
    ASSERT_OK(tree.CheckWellFormed(&wf_rows));
    EXPECT_EQ(wf_rows, scan_rows);
    uint64_t empty = 0;
    ASSERT_OK(tree.CountEmptyLeaves(&empty));
    EXPECT_EQ(empty, 0u);
  }
  EXPECT_GT(replica_->stats().standby_merges, 0u)
      << "the standby never exercised its local delete-side SMO path";
}

TEST_P(ReplicaTest, PumpChunkProgressAndLagStats) {
  ReplicationChannel channel;
  WorkloadDriver driver(primary_.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(200));
  channel.Publish(*primary_);

  // Mid-catch-up the standby reports real lag...
  bool progressed = false;
  ASSERT_OK(replica_->PumpChunk(&channel, 512, &progressed));
  EXPECT_TRUE(progressed);
  const ReplicationStats mid = replica_->stats();
  EXPECT_EQ(mid.published_end, channel.published_end());
  EXPECT_GT(mid.lsn_lag, 0u);
  EXPECT_GT(mid.txn_lag, 0u);

  // ...and at catch-up both lags collapse to zero, the applied boundary
  // sits exactly at the published end, and progress goes quiet.
  while (progressed) {
    ASSERT_OK(replica_->PumpChunk(&channel, 512, &progressed));
  }
  const ReplicationStats done = replica_->stats();
  EXPECT_EQ(done.applied_boundary, channel.published_end());
  EXPECT_EQ(done.shipped_end, channel.published_end());
  EXPECT_EQ(done.lsn_lag, 0u);
  EXPECT_EQ(done.txn_lag, 0u);
  EXPECT_EQ(done.txns_applied, driver.txns_committed());
  EXPECT_GT(done.chunks_shipped, 1u);
  EXPECT_GT(done.bytes_shipped, 0u);
  ExpectConverged();
}

TEST_P(ReplicaTest, SnapshotReadsGateAtShipBoundary) {
  ReplicationChannel channel;
  const TableId table = primary_opts_.table_id;
  const std::string v0 = SynthesizeValueString(5, 0, primary_opts_.value_size);
  const std::string v1 = SynthesizeValueString(5, 1, primary_opts_.value_size);

  channel.Publish(*primary_);
  ASSERT_OK(replica_->Pump(&channel));
  const Lsn boundary0 = replica_->read_boundary();

  TxnId t;
  ASSERT_OK(primary_->Begin(&t));
  ASSERT_OK(primary_->Update(t, 5, v1));
  ASSERT_OK(primary_->Commit(t));
  channel.Publish(*primary_);

  // Published but not pumped: the read gate still sits at the old
  // boundary, so the committed update is invisible to standby readers.
  std::string got;
  ASSERT_OK(replica_->SnapshotRead(table, 5, &got));
  EXPECT_EQ(got, v0);
  EXPECT_EQ(replica_->read_boundary(), boundary0);

  ASSERT_OK(replica_->Pump(&channel));
  ASSERT_OK(replica_->SnapshotRead(table, 5, &got));
  EXPECT_EQ(got, v1);
  EXPECT_GT(replica_->read_boundary(), boundary0);
  EXPECT_EQ(replica_->read_boundary(), channel.published_end());
}

TEST_P(ReplicaTest, PromoteAtCleanBoundaryAcceptsWrites) {
  ReplicationChannel channel;
  WorkloadDriver driver(primary_.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(150));
  channel.Publish(*primary_);
  ASSERT_OK(replica_->Pump(&channel));

  // A standby refuses external writes...
  TxnId t;
  EXPECT_FALSE(replica_->engine().Begin(&t).ok());
  EXPECT_FALSE(replica_->promoted());

  ASSERT_OK(replica_->Promote(RecoveryMethod::kLog2));
  EXPECT_TRUE(replica_->promoted());
  ExpectConverged();

  // ...and a promoted one leads: it takes writes and ships a complete WAL
  // of its own to the next generation's standby.
  const std::string v =
      SynthesizeValueString(11, 9, primary_opts_.value_size);
  ASSERT_OK(replica_->engine().Begin(&t));
  ASSERT_OK(replica_->engine().Update(t, 11, v));
  ASSERT_OK(replica_->engine().Commit(t));
  std::string got;
  ASSERT_OK(replica_->engine().Read(11, &got));
  EXPECT_EQ(got, v);

  // Pumping a promoted standby is a refused operation, not a crash.
  bool progressed = false;
  EXPECT_FALSE(replica_->PumpChunk(&channel, 512, &progressed).ok());
}

TEST_P(ReplicaTest, StandbyCrashMidChunkResumesFromCursor) {
  ReplicationChannel channel;
  WorkloadDriver driver(primary_.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(200));
  channel.Publish(*primary_);

  // Die mid-chunk: a few ops into the apply, with the current replay
  // transaction open. Further pumps are refused until crash + recover.
  replica_->InjectApplyStopForTest(7);
  ASSERT_OK(replica_->Pump(&channel));
  bool progressed = false;
  EXPECT_FALSE(replica_->PumpChunk(&channel, 512, &progressed).ok());

  replica_->CrashStandby();
  ASSERT_OK(replica_->RecoverStandby(RecoveryMethod::kLog1));

  // The durable cursor says where to resume; nothing is double-applied
  // and nothing is lost. New primary work after the standby outage ships
  // and applies too.
  ASSERT_OK(driver.RunOps(100));
  channel.Publish(*primary_);
  ASSERT_OK(replica_->Pump(&channel));
  ExpectConverged();
  EXPECT_EQ(replica_->stats().applied_boundary, channel.published_end());
}

}  // namespace
}  // namespace deutero
