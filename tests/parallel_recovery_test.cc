// recovery_threads sweeps: no recovery pass reads the option, so for every
// recovery method and recovery_threads in {1, 2, 4, 8} the same crash
// image must recover to byte-identical table content with the same
// loser-transaction outcome and row counts. The recovery itself is pinned
// by independent references: dpt_construction_test's hand-built logs, the
// redo and undo unit expectations, and the workload oracle.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/engine.h"
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
    // Recover the SAME crash image with a fresh engine opened at
    // `threads`.
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
  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(0, &checked));
  EXPECT_GT(checked, 0u);
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

}  // namespace
}  // namespace deutero
