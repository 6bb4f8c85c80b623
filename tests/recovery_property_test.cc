// Property-based recovery tests:
//  * Correctness under randomized crash points and workloads, for every
//    method (parameterized sweep).
//  * DPT safety (§3): the constructed DPT contains every page that truly
//    needs redo, and every rLSN is a sound lower bound.
//  * Method equivalence: all five methods produce byte-identical table
//    content from the same crash image.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "recovery/analysis.h"
#include "storage/page.h"
#include "test_util.h"
#include "workload/driver.h"
#include "workload/experiment.h"

namespace deutero {
namespace {

using testing_util::SmallOptions;

// ---------------------------------------------------------------------------
// Recovery passes are self-quiescing: driving one directly (as these tests
// do) with the dirty monitor and pool callbacks still enabled must not let
// redo-time MarkDirty emit Δ/BW records into the log being scanned — that
// would both corrupt the recovery log and invalidate the scan's zero-copy
// views mid-record.
// ---------------------------------------------------------------------------

TEST(RecoveryPassQuiescenceTest, DcPassWithLiveMonitorAppendsNothing) {
  EngineOptions o = SmallOptions();
  o.seed = 7;
  o.delta_dirty_capacity = 2;  // hair-trigger Δ emission
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadConfig wc;
  wc.insert_fraction = 0.5;  // force SMOs so the DC pass redoes page images
  WorkloadDriver driver(e.get(), wc);
  ASSERT_OK(driver.RunOps(300));
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver.RunOps(300));
  driver.OnCrash();
  e->SimulateCrash();

  ASSERT_OK(e->dc().OpenDatabase());
  ASSERT_TRUE(e->dc().monitor().enabled());  // deliberately NOT disabled
  ASSERT_TRUE(e->dc().pool().callbacks_enabled());
  const Lsn log_end_before = e->wal().next_lsn();
  DcRecoveryResult dcr;
  ASSERT_OK(RunDcRecovery(&e->wal(), &e->dc(), e->wal().master().bckpt_lsn,
                          o.dpt_mode, /*build_dpt=*/true, /*preload=*/false,
                          1, &dcr));
  EXPECT_GT(dcr.smo_redone, 0u) << "workload produced no SMOs to redo";
  EXPECT_EQ(e->wal().next_lsn(), log_end_before)
      << "the DC pass appended to the log it was scanning";
  // The guard restores the caller's instrumentation state.
  EXPECT_TRUE(e->dc().monitor().enabled());
  EXPECT_TRUE(e->dc().pool().callbacks_enabled());
}

// ---------------------------------------------------------------------------
// Randomized crash-point sweep: (seed, method) matrix.
// ---------------------------------------------------------------------------

class CrashPointSweep
    : public ::testing::TestWithParam<std::tuple<int, RecoveryMethod>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrashPointSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(RecoveryMethod::kLog0,
                                         RecoveryMethod::kLog1,
                                         RecoveryMethod::kLog2,
                                         RecoveryMethod::kSql1,
                                         RecoveryMethod::kSql2)),
    [](const auto& param_info) {
      return std::string("seed") + std::to_string(std::get<0>(param_info.param)) +
             "_" + RecoveryMethodName(std::get<1>(param_info.param));
    });

TEST_P(CrashPointSweep, RandomizedCrashRecoversCommittedState) {
  const int seed = std::get<0>(GetParam());
  const RecoveryMethod method = std::get<1>(GetParam());

  EngineOptions o = SmallOptions();
  o.seed = seed;
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadConfig wc;
  wc.seed = seed * 101;
  wc.insert_fraction = seed % 2 == 0 ? 0.15 : 0.0;  // half the seeds do SMOs
  wc.delete_fraction = seed % 2 == 1 ? 0.10 : 0.0;  // the others do deletes
  wc.scan_fraction = 0.05;                          // everyone scans a bit
  WorkloadDriver driver(e.get(), wc);

  Random rng(seed * 7919);
  // Random activity with random checkpoints, then a random crash point.
  const int phases = 2 + static_cast<int>(rng.Uniform(3));
  for (int p = 0; p < phases; p++) {
    ASSERT_OK(driver.RunOps(100 + rng.Uniform(400)));
    if (rng.Bernoulli(0.7)) ASSERT_OK(e->Checkpoint());
  }
  if (rng.Bernoulli(0.5)) {
    ASSERT_OK(driver.RunOpsNoCommit(1 + rng.Uniform(9)));
    e->tc().ForceLog();
  }

  driver.OnCrash();
  e->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(e->Recover(method, &st));

  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(0, &checked));
  EXPECT_GT(checked, 0u);
  uint64_t rows = 0;
  ASSERT_OK(e->dc().btree().CheckWellFormed(&rows));
}

// ---------------------------------------------------------------------------
// Delete-heavy sweep: 50% deletes over long horizons so leaf merges (and
// their recovery paths — CLR upserts into merged-away leaves, fence memos
// over a merged tree, sibling-chain scans) are exercised at every thread
// count. Each (seed, method) cell recovers the same crash image at
// recovery_threads 1, 2, 4 and 8 and must satisfy the oracle each time.
// ---------------------------------------------------------------------------

class DeleteHeavySweep
    : public ::testing::TestWithParam<std::tuple<int, RecoveryMethod>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeleteHeavySweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(RecoveryMethod::kLog0,
                                         RecoveryMethod::kLog1,
                                         RecoveryMethod::kLog2,
                                         RecoveryMethod::kSql1,
                                         RecoveryMethod::kSql2)),
    [](const auto& param_info) {
      return std::string("seed") +
             std::to_string(std::get<0>(param_info.param)) + "_" +
             RecoveryMethodName(std::get<1>(param_info.param));
    });

TEST_P(DeleteHeavySweep, HalfDeleteChurnRecoversAtEveryThreadCount) {
  const int seed = std::get<0>(GetParam());
  const RecoveryMethod method = std::get<1>(GetParam());

  EngineOptions o = SmallOptions();
  o.num_rows = 600;  // churn dense enough to drain (and merge) leaves
  o.seed = seed;
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadConfig wc;
  wc.seed = seed * 577;
  wc.delete_fraction = 0.55;
  wc.insert_fraction = 0.05;
  wc.scan_fraction = 0.05;
  WorkloadDriver driver(e.get(), wc);

  Random rng(seed * 6151);
  for (int p = 0; p < 3; p++) {
    ASSERT_OK(driver.RunOps(800 + rng.Uniform(600)));
    if (rng.Bernoulli(0.7)) ASSERT_OK(e->Checkpoint());
  }
  ASSERT_OK(driver.RunOpsNoCommit(1 + rng.Uniform(9)));
  e->tc().ForceLog();
  driver.OnCrash();
  e->SimulateCrash();
  ASSERT_GT(e->wal().stats().by_type[static_cast<size_t>(
                LogRecordType::kSmoMerge)],
            0u)
      << "the churn produced no merge SMOs: the sweep is vacuous";

  Engine::StableSnapshot snap;
  ASSERT_OK(e->TakeStableSnapshot(&snap));

  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    EngineOptions ot = o;
    ot.recovery_threads = threads;
    std::unique_ptr<Engine> et;
    ASSERT_OK(Engine::Open(ot, &et));
    et->SimulateCrash();
    ASSERT_OK(et->RestoreStableSnapshot(snap));
    RecoveryStats st;
    ASSERT_OK(et->Recover(method, &st));

    // Point the driver's oracle at the recovered engine.
    ASSERT_OK(driver.AttachEngine(et.get()));
    uint64_t checked = 0;
    ASSERT_OK(driver.Verify(0, &checked));
    EXPECT_GT(checked, 0u);
    uint64_t rows = 0;
    ASSERT_OK(et->dc().btree().CheckWellFormed(&rows));
    EXPECT_EQ(et->dc().btree().row_count(), rows) << threads << " threads";
    // The scan surface over the churned space must agree with the oracle
    // too (sibling-chain correctness after merges).
    uint64_t seen = 0;
    ASSERT_OK(driver.VerifyScan(0, o.num_rows - 1, &seen));
  }
}

// ---------------------------------------------------------------------------
// DPT safety property.
// ---------------------------------------------------------------------------

struct DptSafetyCase {
  DptMode mode;
  const char* name;
};

class DptSafetyTest : public ::testing::TestWithParam<DptMode> {};

INSTANTIATE_TEST_SUITE_P(Modes, DptSafetyTest,
                         ::testing::Values(DptMode::kStandard,
                                           DptMode::kPerfect,
                                           DptMode::kReduced),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case DptMode::kStandard:
                               return "Standard";
                             case DptMode::kPerfect:
                               return "Perfect";
                             case DptMode::kReduced:
                               return "Reduced";
                           }
                           return "?";
                         });

// After a crash, replay ground truth from the log: a page truly needs redo
// iff some data operation targeted it (by its logged PID) with
// LSN > the page's stable pLSN. Every such page within the Δ-covered prefix
// must appear in the logical DPT with rlsn <= that LSN.
TEST_P(DptSafetyTest, DptCoversEveryPageNeedingRedo) {
  EngineOptions o = SmallOptions();
  o.dpt_mode = GetParam();
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadDriver driver(e.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(400));
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver.RunOps(500));
  e->dc().monitor().ForceEmit();
  ASSERT_OK(driver.RunOps(50));  // tail
  driver.OnCrash();
  e->SimulateCrash();

  // Build the logical DPT exactly as Log1 recovery would.
  ASSERT_OK(e->dc().OpenDatabase());
  const Lsn start = e->wal().master().bckpt_lsn;
  DcRecoveryResult dcr;
  ASSERT_OK(RunDcRecovery(&e->wal(), &e->dc(), start, o.dpt_mode,
                          /*build_dpt=*/true, /*preload=*/false, 1, &dcr));
  ASSERT_GT(dcr.dpt.size(), 0u);
  ASSERT_NE(dcr.last_delta_tc_lsn, kInvalidLsn);

  // Ground truth from the stable log + stable page images.
  uint64_t covered = 0;
  for (auto it = e->wal().NewIterator(start, false); it.Valid(); it.Next()) {
    const LogRecordView& rec = it.record();
    if (!rec.IsRedoableDataOp()) continue;
    if (rec.lsn >= dcr.last_delta_tc_lsn) continue;  // tail: DPT not liable
    std::vector<uint8_t> img(o.page_size);
    e->dc().disk().ReadImage(rec.pid, img.data());
    const Lsn plsn = PageView(img.data(), o.page_size).plsn();
    if (plsn >= rec.lsn) continue;  // effects already stable: no redo needed
    const DirtyPageTable::Entry* entry = dcr.dpt.Find(rec.pid);
    ASSERT_NE(entry, nullptr)
        << "page " << rec.pid << " needs redo of lsn " << rec.lsn
        << " but is missing from the DPT (plsn " << plsn << ")";
    EXPECT_LE(entry->rlsn, rec.lsn)
        << "rLSN not conservative for page " << rec.pid;
    covered++;
  }
  EXPECT_GT(covered, 0u);
}

// The SQL DPT obeys the same safety property (Algorithm 3).
TEST(SqlDptSafety, DptCoversEveryPageNeedingRedo) {
  EngineOptions o = SmallOptions();
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadDriver driver(e.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(400));
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver.RunOps(500));
  driver.OnCrash();
  e->SimulateCrash();

  ASSERT_OK(e->dc().OpenDatabase());
  const Lsn start = e->wal().master().bckpt_lsn;
  SqlAnalysisResult ar;
  ASSERT_OK(RunSqlAnalysis(&e->wal(), start, 1, &ar));

  uint64_t covered = 0;
  for (auto it = e->wal().NewIterator(start, false); it.Valid(); it.Next()) {
    const LogRecordView& rec = it.record();
    if (!rec.IsRedoableDataOp()) continue;
    std::vector<uint8_t> img(o.page_size);
    e->dc().disk().ReadImage(rec.pid, img.data());
    const Lsn plsn = PageView(img.data(), o.page_size).plsn();
    if (plsn >= rec.lsn) continue;
    const DirtyPageTable::Entry* entry = ar.dpt.Find(rec.pid);
    ASSERT_NE(entry, nullptr) << "page " << rec.pid;
    EXPECT_LE(entry->rlsn, rec.lsn);
    covered++;
  }
  EXPECT_GT(covered, 0u);
}

// ---------------------------------------------------------------------------
// Cross-method equivalence.
// ---------------------------------------------------------------------------

TEST(MethodEquivalence, AllMethodsYieldIdenticalTableContent) {
  SideBySideConfig cfg;
  cfg.engine = SmallOptions();
  cfg.scenario.checkpoints = 2;
  cfg.scenario.uncommitted_tail_ops = 7;
  cfg.verify = false;  // we compare contents across methods instead

  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(cfg.engine, &e));
  WorkloadDriver driver(e.get(), cfg.workload);
  ScenarioOutcome so;
  ASSERT_OK(RunCrashScenario(e.get(), &driver, cfg.scenario, &so));
  Engine::StableSnapshot snap;
  ASSERT_OK(e->TakeStableSnapshot(&snap));

  std::vector<std::string> contents;
  for (RecoveryMethod m : cfg.methods) {
    ASSERT_OK(e->RestoreStableSnapshot(snap));
    RecoveryStats st;
    ASSERT_OK(e->Recover(m, &st));
    std::string digest;
    ASSERT_OK(e->dc().btree().ScanAll([&](Key k, Slice v) {
      digest.append(reinterpret_cast<const char*>(&k), sizeof(k));
      digest.append(v.data(), v.size());
    }));
    contents.push_back(std::move(digest));
    e->SimulateCrash();
  }
  for (size_t i = 1; i < contents.size(); i++) {
    EXPECT_EQ(contents[0], contents[i])
        << "method " << RecoveryMethodName(cfg.methods[i])
        << " diverged from " << RecoveryMethodName(cfg.methods[0]);
  }
}

// The new-surface equivalence demanded by the Delete/Scan/WriteBatch
// redesign: a crash image containing committed deletes, committed batches,
// and an uncommitted loser full of deletes (undo must re-insert) recovers
// to byte-identical B-tree content — and identical Scan results — under
// every method.
TEST(MethodEquivalence, DeleteScanBatchRecoverIdenticallyEverywhere) {
  EngineOptions o = SmallOptions();
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  Table table;
  ASSERT_OK(e->OpenDefaultTable(&table));
  WorkloadConfig wc;
  wc.insert_fraction = 0.10;
  wc.delete_fraction = 0.15;
  wc.scan_fraction = 0.05;
  WorkloadDriver driver(e.get(), wc);

  // Dedicated keys for the manual batch/loser ops, far above anything the
  // driver's oracle tracks (its fresh inserts start at num_rows).
  const uint32_t vs = o.value_size;
  const Key base = o.num_rows + 6000;
  {
    Txn setup;
    ASSERT_OK(e->Begin(&setup));
    for (Key k = base; k <= base + 12; k++) {
      ASSERT_OK(setup.Insert(table, k, SynthesizeValueString(k, 1, vs)));
    }
    ASSERT_OK(setup.Commit());
  }

  ASSERT_OK(driver.RunOps(400));
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver.RunOps(400));

  // A committed WriteBatch after the checkpoint (inside the redone window).
  WriteBatch batch;
  batch.Update(base, SynthesizeValueString(base, 77, vs));
  batch.Delete(base + 1);
  batch.Insert(base + 20, SynthesizeValueString(base + 20, 1, vs));
  ASSERT_OK(e->Apply(table, batch));

  // An uncommitted loser whose log reaches stable storage: deletes and an
  // update, so undo must re-insert and restore across every method.
  Txn loser;
  ASSERT_OK(e->Begin(&loser));
  ASSERT_OK(loser.Delete(table, base + 10));
  ASSERT_OK(loser.Delete(table, base + 11));
  ASSERT_OK(loser.Update(table, base + 12,
                         SynthesizeValueString(base + 12, 88, vs)));
  e->tc().ForceLog();
  loser.Release();
  driver.OnCrash();
  e->SimulateCrash();

  Engine::StableSnapshot snap;
  ASSERT_OK(e->TakeStableSnapshot(&snap));

  const RecoveryMethod methods[] = {RecoveryMethod::kLog0,
                                    RecoveryMethod::kLog1,
                                    RecoveryMethod::kLog2,
                                    RecoveryMethod::kSql1,
                                    RecoveryMethod::kSql2};
  std::vector<std::string> contents;
  std::vector<std::string> scans;
  for (RecoveryMethod m : methods) {
    ASSERT_OK(e->RestoreStableSnapshot(snap));
    RecoveryStats st;
    ASSERT_OK(e->Recover(m, &st));
    uint64_t checked = 0;
    ASSERT_OK(driver.Verify(0, &checked));  // oracle agrees per method
    std::string digest;
    ASSERT_OK(e->dc().btree().ScanAll([&](Key k, Slice v) {
      digest.append(reinterpret_cast<const char*>(&k), sizeof(k));
      digest.append(v.data(), v.size());
    }));
    contents.push_back(std::move(digest));
    // The Scan surface must agree too (cursor over a key range).
    std::string scan_digest;
    ScanCursor c;
    ASSERT_OK(table.Scan(0, 100, &c));
    while (c.Valid()) {
      const Key k = c.key();
      scan_digest.append(reinterpret_cast<const char*>(&k), sizeof(k));
      scan_digest.append(c.value().data(), c.value().size());
      ASSERT_OK(c.Next());
    }
    scans.push_back(std::move(scan_digest));
    uint64_t rows = 0;
    ASSERT_OK(e->dc().btree().CheckWellFormed(&rows));
    e->SimulateCrash();
  }
  for (size_t i = 1; i < contents.size(); i++) {
    EXPECT_EQ(contents[0], contents[i])
        << RecoveryMethodName(methods[i]) << " table content diverged";
    EXPECT_EQ(scans[0], scans[i])
        << RecoveryMethodName(methods[i]) << " scan results diverged";
  }
  // The batch's effects are durable; the loser's were rolled back.
  {
    ASSERT_OK(e->RestoreStableSnapshot(snap));
    RecoveryStats st;
    ASSERT_OK(e->Recover(RecoveryMethod::kLog2, &st));
  }
  std::string v;
  ASSERT_OK(table.Read(base, &v));
  EXPECT_EQ(v, SynthesizeValueString(base, 77, vs));
  EXPECT_TRUE(table.Read(base + 1, &v).IsNotFound());
  ASSERT_OK(table.Read(base + 20, &v));
  ASSERT_OK(table.Read(base + 10, &v));  // undo re-inserted
  ASSERT_OK(table.Read(base + 12, &v));
  EXPECT_EQ(v, SynthesizeValueString(base + 12, 1, vs));
}

// The FindLeaf memo is an optimization, not a semantics change: redo with
// and without it produces byte-identical content, and the memo absorbs the
// bulk of the traversals.
TEST(LeafMemoEquivalence, MemoOnAndOffProduceIdenticalContent) {
  std::string digests[2];
  uint64_t hits[2] = {0, 0};
  for (int memo = 0; memo < 2; memo++) {
    EngineOptions o = SmallOptions();
    o.redo_leaf_memo = memo == 1;
    std::unique_ptr<Engine> e;
    ASSERT_OK(Engine::Open(o, &e));
    WorkloadConfig wc;
    wc.insert_fraction = 0.1;
    wc.delete_fraction = 0.1;
    WorkloadDriver driver(e.get(), wc);
    ASSERT_OK(driver.RunOps(300));
    ASSERT_OK(e->Checkpoint());
    ASSERT_OK(driver.RunOps(500));
    driver.OnCrash();
    e->SimulateCrash();
    RecoveryStats st;
    ASSERT_OK(e->Recover(RecoveryMethod::kLog1, &st));
    hits[memo] = st.redo_leaf_memo_hits;
    uint64_t checked = 0;
    ASSERT_OK(driver.Verify(0, &checked));
    ASSERT_OK(e->dc().btree().ScanAll([&](Key k, Slice v) {
      digests[memo].append(reinterpret_cast<const char*>(&k), sizeof(k));
      digests[memo].append(v.data(), v.size());
    }));
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(hits[0], 0u);
  EXPECT_GT(hits[1], 0u);
}

// Determinism: the same seed produces the same recovery timings and stats.
TEST(Determinism, IdenticalSeedsGiveIdenticalRuns) {
  auto run = [] {
    SideBySideConfig cfg;
    cfg.engine = SmallOptions();
    cfg.scenario.checkpoints = 2;
    cfg.verify = false;
    SideBySideResult r;
    EXPECT_TRUE(RunSideBySide(cfg, &r).ok());
    return r;
  };
  const SideBySideResult a = run();
  const SideBySideResult b = run();
  ASSERT_EQ(a.methods.size(), b.methods.size());
  for (size_t i = 0; i < a.methods.size(); i++) {
    EXPECT_DOUBLE_EQ(a.methods[i].stats.total_ms, b.methods[i].stats.total_ms);
    EXPECT_EQ(a.methods[i].stats.data_page_fetches,
              b.methods[i].stats.data_page_fetches);
    EXPECT_EQ(a.methods[i].stats.dpt_size, b.methods[i].stats.dpt_size);
  }
}

}  // namespace
}  // namespace deutero
