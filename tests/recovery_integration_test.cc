// End-to-end crash/recovery tests: every method recovers the same committed
// state; losers are rolled back; recovery is idempotent; the five methods
// agree on the resulting database.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "recovery/stats.h"
#include "storage/page.h"
#include "test_util.h"
#include "workload/driver.h"
#include "workload/experiment.h"
#include "workload/scenario.h"

namespace deutero {
namespace {

using testing_util::MediumOptions;
using testing_util::SmallOptions;

class RecoveryIntegrationTest
    : public ::testing::TestWithParam<RecoveryMethod> {};

INSTANTIATE_TEST_SUITE_P(AllMethods, RecoveryIntegrationTest,
                         ::testing::Values(RecoveryMethod::kLog0,
                                           RecoveryMethod::kLog1,
                                           RecoveryMethod::kLog2,
                                           RecoveryMethod::kSql1,
                                           RecoveryMethod::kSql2),
                         [](const auto& param_info) {
                           return RecoveryMethodName(param_info.param);
                         });

TEST_P(RecoveryIntegrationTest, CommittedUpdatesSurviveCrash) {
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(SmallOptions(), &e));
  WorkloadDriver driver(e.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(500));
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver.RunOps(700));

  driver.OnCrash();
  e->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(e->Recover(GetParam(), &st));

  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(0, &checked));
  EXPECT_GT(checked, 0u);

  uint64_t rows = 0;
  ASSERT_OK(e->dc().btree().CheckWellFormed(&rows));
  EXPECT_EQ(rows, SmallOptions().num_rows);
}

TEST_P(RecoveryIntegrationTest, UncommittedTailIsRolledBack) {
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(SmallOptions(), &e));
  WorkloadDriver driver(e.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(400));
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver.RunOps(200));
  // A loser: updates logged and forced, but never committed.
  ASSERT_OK(driver.RunOpsNoCommit(7));
  e->tc().ForceLog();

  driver.OnCrash();
  e->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(e->Recover(GetParam(), &st));
  EXPECT_GE(st.txns_undone, 1u);
  EXPECT_GE(st.undo_ops, 7u);

  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(0, &checked));
  EXPECT_GT(checked, 0u);
}

TEST_P(RecoveryIntegrationTest, RecoveryIsIdempotent) {
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(SmallOptions(), &e));
  WorkloadDriver driver(e.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(300));
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver.RunOps(300));
  ASSERT_OK(driver.RunOpsNoCommit(5));
  e->tc().ForceLog();

  driver.OnCrash();
  e->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(e->Recover(GetParam(), &st));

  // Crash again immediately after recovery, recover again.
  e->SimulateCrash();
  ASSERT_OK(e->Recover(GetParam(), &st));

  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(0, &checked));
  EXPECT_GT(checked, 0u);
}

TEST_P(RecoveryIntegrationTest, CrashWithoutAnyCheckpointRecovers) {
  EngineOptions o = SmallOptions();
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadDriver driver(e.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(150));  // only the open-time checkpoint exists

  driver.OnCrash();
  e->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(e->Recover(GetParam(), &st));
  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(0, &checked));
  EXPECT_GT(checked, 0u);
}

TEST_P(RecoveryIntegrationTest, InsertWorkloadWithSmosRecovers) {
  EngineOptions o = SmallOptions();
  o.num_rows = 2000;
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadConfig wc;
  wc.insert_fraction = 0.5;  // lots of page splits
  WorkloadDriver driver(e.get(), wc);
  ASSERT_OK(driver.RunOps(600));
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver.RunOps(900));

  driver.OnCrash();
  e->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(e->Recover(GetParam(), &st));

  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(0, &checked));
  uint64_t rows = 0;
  ASSERT_OK(e->dc().btree().CheckWellFormed(&rows));
}

/// Named regression: the crash reset the DC's eLSN and recovery only
/// republished it at the end, so every redo-dirtied page evicted from a
/// small cache failed the WAL-rule check in BufferPool::FlushFrame (an
/// assert in Debug builds) though its pLSN was on the stable log. With no
/// loser to undo, recovery appends nothing, so it must force the log for
/// no page write at all.
TEST_P(RecoveryIntegrationTest, RedoEvictionsNeedNoLogForce) {
  // Forward: a cache holding every leaf and no lazy writer, so the crash
  // loses updates on most leaves.
  EngineOptions o = SmallOptions();
  o.cache_pages = 256;
  o.lazy_writer_base_fraction = 0;
  o.checkpoint_interval_updates = 1'000'000;  // one checkpoint, one window
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadDriver driver(e.get(), WorkloadConfig{});
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver.RunOps(1500));  // whole transactions: no loser
  driver.OnCrash();
  e->SimulateCrash();
  Engine::StableSnapshot snap;
  ASSERT_OK(e->TakeStableSnapshot(&snap));

  // Recovery: a cache far smaller than the set of pages redo dirties.
  EngineOptions small = o;
  small.cache_pages = 32;
  std::unique_ptr<Engine> r;
  ASSERT_OK(Engine::Open(small, &r));
  r->SimulateCrash();
  ASSERT_OK(r->RestoreStableSnapshot(snap));
  RecoveryStats st;
  ASSERT_OK(r->Recover(GetParam(), &st));
  ASSERT_EQ(st.txns_undone, 0u);
  ASSERT_GT(st.pages_flushed, 0u) << "redo never evicted a dirty page";
  EXPECT_EQ(r->dc().pool().stats().wal_forces, 0u);
  ASSERT_OK(driver.AttachEngine(r.get()));
  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(0, &checked));
  EXPECT_GT(checked, 0u);
}

/// Named regression: RecoveryStats::undo reported {ms, 0, 0} although undo
/// reads the log by backchain, one charged log page per record, so every
/// per-pass log-page total silently left undo out.
TEST_P(RecoveryIntegrationTest, UndoReportsTheLogItReads) {
  for (uint32_t threads : {1u, 4u}) {
    EngineOptions o = SmallOptions();
    o.recovery_threads = threads;
    std::unique_ptr<Engine> e;
    ASSERT_OK(Engine::Open(o, &e));
    WorkloadDriver driver(e.get(), WorkloadConfig{});
    ASSERT_OK(driver.RunOps(300));
    ASSERT_OK(e->Checkpoint());
    ASSERT_OK(driver.RunOps(100));
    ASSERT_OK(driver.RunOpsNoCommit(7));  // a loser
    e->tc().ForceLog();
    driver.OnCrash();
    e->SimulateCrash();

    RecoveryStats st;
    ASSERT_OK(e->Recover(GetParam(), &st));
    ASSERT_GE(st.txns_undone, 1u);
    EXPECT_GT(st.undo.records, 0u) << threads << " threads";
    EXPECT_EQ(st.undo.log_pages, st.undo.records) << threads << " threads";
    EXPECT_GE(st.undo.records, st.undo_ops) << threads << " threads";
  }
}

/// A runtime rollback runs recovery's undo pass at one partition, and that
/// pass must leave the caller's dirty monitor on. Here the rollback's CLR
/// re-dirties a leaf the checkpoint had cleaned, and a later Δ-record
/// takes the CLR out of the log tail: only the Δ-record's DirtySet can
/// bring the leaf into Log1's and Log2's DPT, so that redo replays the CLR.
TEST_P(RecoveryIntegrationTest, RuntimeRollbackOfAFlushedPageSurvivesACrash) {
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(SmallOptions(), &e));
  const uint32_t vsize = e->options().value_size;
  Table table;
  ASSERT_OK(e->OpenDefaultTable(&table));
  Txn loser;
  ASSERT_OK(e->Begin(&loser));
  ASSERT_OK(loser.Update(table, 42, SynthesizeValueString(42, 1, vsize)));
  ASSERT_OK(e->Checkpoint());  // writes key 42's leaf with version 1
  ASSERT_OK(loser.Abort());    // the CLR re-dirties the clean leaf
  Txn t;
  ASSERT_OK(e->Begin(&t));
  ASSERT_OK(t.Update(table, 4000, SynthesizeValueString(4000, 1, vsize)));
  ASSERT_OK(t.Commit());
  e->dc().monitor().ForceEmit();  // a Δ-record after the CLR
  e->tc().ForceLog();
  e->SimulateCrash();

  RecoveryStats st;
  ASSERT_OK(e->Recover(GetParam(), &st));
  EXPECT_EQ(st.txns_undone, 0u);
  std::string v;
  ASSERT_OK(e->Read(42, &v));
  EXPECT_EQ(v, SynthesizeValueString(42, 0, vsize))
      << "the rolled-back update came back";
  ASSERT_OK(e->Read(4000, &v));
  EXPECT_EQ(v, SynthesizeValueString(4000, 1, vsize));
}

/// A rollback cut short by a media failure leaves its transaction a loser
/// chained from the last CLR the rollback wrote. A checkpoint captures that
/// chain tail, so the next recovery neither compensates the undone insert a
/// second time (its row is gone; deleting it again fails) nor skips the
/// update the rollback could not reach.
TEST_P(RecoveryIntegrationTest, FailedRollbackStaysARecoverableLoser) {
  EngineOptions o = SmallOptions();
  o.media_archive = false;  // a corrupt page cannot be rebuilt in place
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  const Key fresh = o.num_rows + 1;
  Table table;
  ASSERT_OK(e->OpenDefaultTable(&table));
  Txn loser;
  ASSERT_OK(e->Begin(&loser));
  ASSERT_OK(loser.Update(table, 42, SynthesizeValueString(42, 1, o.value_size)));
  ASSERT_OK(loser.Insert(table, fresh,
                         SynthesizeValueString(fresh, 1, o.value_size)));

  // Key 42's leaf is read back from a corrupt image: the rollback undoes
  // the insert, then fails on the update.
  PageId victim = kInvalidPageId;
  ASSERT_OK(e->dc().FindLeaf(o.table_id, 42, &victim));
  ASSERT_OK(e->dc().pool().FlushAllDirty());
  e->dc().pool().Reset();
  const uint8_t* image = e->dc().disk().ImageData(victim);
  const std::vector<uint8_t> good(image, image + o.page_size);
  e->dc().disk().CorruptStableByteForTest(victim, kPageHeaderSize + 5, 0x20);
  EXPECT_TRUE(loser.Abort().IsCorruption());

  e->dc().disk().WriteImageDirect(victim, good.data());
  ASSERT_OK(e->Checkpoint());
  e->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(e->Recover(GetParam(), &st));
  EXPECT_EQ(st.txns_undone, 1u);
  EXPECT_EQ(st.undo_ops, 1u);
  std::string v;
  ASSERT_OK(e->Read(42, &v));
  EXPECT_EQ(v, SynthesizeValueString(42, 0, o.value_size));
  EXPECT_TRUE(e->Read(fresh, &v).IsNotFound());
}

/// One crash image whose redo window dirties a contiguous pid range of
/// leaves, recovered by all five methods: every method's device reads are
/// exactly its pool fetches, the three methods without a prefetcher read
/// one page per I/O, and Sql2's prefetcher reads pid-contiguous DPT pages
/// together. The window dirties even-ranked leaves first, then odd ones, so
/// no two pages a prefetcher picks in one pump are neighbours: only DPT
/// runs can batch them.
TEST(RecoverySideBySide, DeviceReadsMatchFetchesAndPrefetchBatchesDptRuns) {
  EngineOptions o = SmallOptions();
  o.cache_pages = 512;  // every dirtied leaf stays cached until the crash
  o.lazy_writer_base_fraction = 0;
  o.checkpoint_interval_updates = 1'000'000;  // one checkpoint, one window
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  ASSERT_OK(e->Checkpoint());

  // Bulk load allocates leaves in key order: one key per leaf over the
  // first 1,500 keys names a contiguous pid range.
  std::map<PageId, Key> key_of_leaf;
  for (Key k = 0; k < 1500; k++) {
    PageId pid = kInvalidPageId;
    ASSERT_OK(e->dc().FindLeaf(o.table_id, k, &pid));
    key_of_leaf.emplace(pid, k);
  }
  ASSERT_EQ(key_of_leaf.rbegin()->first - key_of_leaf.begin()->first + 1,
            key_of_leaf.size());
  std::vector<Key> order;
  for (int parity : {0, 1}) {
    int rank = 0;
    for (const auto& [pid, key] : key_of_leaf) {
      if (rank++ % 2 == parity) order.push_back(key);
    }
  }
  Table table;
  ASSERT_OK(e->OpenDefaultTable(&table));
  const std::string value(o.value_size, 'r');
  for (size_t i = 0; i < order.size(); i += o.updates_per_txn) {
    Txn txn;
    ASSERT_OK(e->Begin(&txn));
    for (size_t j = i; j < std::min(order.size(), i + o.updates_per_txn);
         j++) {
      ASSERT_OK(txn.Update(table, order[j], value));
    }
    ASSERT_OK(txn.Commit());
  }
  e->SimulateCrash();
  Engine::StableSnapshot snap;
  ASSERT_OK(e->TakeStableSnapshot(&snap));

  for (RecoveryMethod m :
       {RecoveryMethod::kLog0, RecoveryMethod::kLog1, RecoveryMethod::kLog2,
        RecoveryMethod::kSql1, RecoveryMethod::kSql2}) {
    const char* name = RecoveryMethodName(m);
    std::unique_ptr<Engine> r;
    ASSERT_OK(Engine::Open(o, &r));
    r->SimulateCrash();
    ASSERT_OK(r->RestoreStableSnapshot(snap));
    RecoveryStats st;
    ASSERT_OK(r->Recover(m, &st));
    EXPECT_GE(st.redo_applied, key_of_leaf.size()) << name;
    EXPECT_EQ(st.read_pages, st.data_page_fetches + st.index_page_fetches)
        << name;
    if (m == RecoveryMethod::kSql2) {
      EXPECT_LT(st.read_ios, st.read_pages) << name;
    } else if (m != RecoveryMethod::kLog2) {
      EXPECT_EQ(st.read_ios, st.read_pages) << name;  // demand reads only
    }
    std::string got;
    ASSERT_OK(r->Read(order.back(), &got));
    EXPECT_EQ(got, value) << name;
  }
}

/// Named regression: App. A.2's PF-list lists each page at its first
/// DirtySet mention, but redo claims a page at its final rLSN. Here every
/// leaf is dirtied, then flushed and re-dirtied in reverse order: each
/// flush raises the leaf's rLSN to its Δ-record's FW-LSN, so redo claims
/// the leaves in reverse. In first-mention order Log2's claim-paced window
/// filled with the pages redo needed last, and redo demand-read about half
/// of the DPT. In claim order every DPT page is read ahead; the only demand
/// reads left are index pages and the tail-of-log pages outside the DPT.
TEST(RecoverySideBySide, Log2PrefetchesRedirtiedDptPages) {
  EngineOptions o = SmallOptions();
  o.cache_pages = 512;              // every leaf stays cached until the crash
  o.lazy_writer_base_fraction = 0;  // no flushes but the ones below
  o.checkpoint_interval_updates = 1'000'000;  // one checkpoint, one window
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  ASSERT_OK(e->Checkpoint());

  std::map<PageId, Key> key_of_leaf;
  for (Key k = 0; k < o.num_rows; k++) {
    PageId pid = kInvalidPageId;
    ASSERT_OK(e->dc().FindLeaf(o.table_id, k, &pid));
    key_of_leaf.emplace(pid, k);
  }
  std::vector<std::pair<PageId, Key>> leaves(key_of_leaf.begin(),
                                             key_of_leaf.end());
  Table table;
  ASSERT_OK(e->OpenDefaultTable(&table));
  const std::string first(o.value_size, 'a');
  const std::string second(o.value_size, 'b');
  for (size_t i = 0; i < leaves.size(); i += o.updates_per_txn) {
    Txn txn;
    ASSERT_OK(e->Begin(&txn));
    for (size_t j = i; j < std::min(leaves.size(), i + o.updates_per_txn);
         j++) {
      ASSERT_OK(txn.Update(table, leaves[j].second, first));
    }
    ASSERT_OK(txn.Commit());
  }
  std::reverse(leaves.begin(), leaves.end());
  for (size_t i = 0; i < leaves.size(); i += o.updates_per_txn) {
    Txn txn;
    ASSERT_OK(e->Begin(&txn));
    for (size_t j = i; j < std::min(leaves.size(), i + o.updates_per_txn);
         j++) {
      ASSERT_OK(e->dc().pool().FlushPage(leaves[j].first));
      ASSERT_OK(txn.Update(table, leaves[j].second, second));
    }
    ASSERT_OK(txn.Commit());
  }
  e->SimulateCrash();

  RecoveryStats st;
  ASSERT_OK(e->Recover(RecoveryMethod::kLog2, &st));
  ASSERT_GT(st.dpt_size, leaves.size() / 2);
  EXPECT_LE(st.demand_reads, st.redo_tail_ops + st.index_page_fetches)
      << "DPT " << st.dpt_size << ", prefetched " << st.prefetch_issued;
  for (const auto& [pid, key] : leaves) {
    std::string got;
    ASSERT_OK(e->Read(key, &got));
    EXPECT_EQ(got, second) << "key " << key;
  }
}

TEST(RecoverySideBySide, AllMethodsProduceIdenticalState) {
  SideBySideConfig cfg;
  cfg.engine = SmallOptions();
  cfg.scenario.checkpoints = 3;
  cfg.scenario.tail_updates = 10;
  cfg.scenario.uncommitted_tail_ops = 5;
  cfg.verify_sample = 0;  // verify every updated key
  SideBySideResult result;
  ASSERT_OK(RunSideBySide(cfg, &result));
  ASSERT_EQ(result.methods.size(), 5u);
  for (const MethodOutcome& m : result.methods) {
    EXPECT_TRUE(m.verified) << RecoveryMethodName(m.method);
    EXPECT_GT(m.keys_checked, 0u) << RecoveryMethodName(m.method);
  }
}

TEST(RecoverySideBySide, OptimizedMethodsFetchNoMoreThanBasic) {
  SideBySideConfig cfg;
  cfg.engine = MediumOptions();
  cfg.scenario.checkpoints = 3;
  SideBySideResult result;
  ASSERT_OK(RunSideBySide(cfg, &result));

  const RecoveryStats* log0 = nullptr;
  const RecoveryStats* log1 = nullptr;
  const RecoveryStats* sql1 = nullptr;
  for (const MethodOutcome& m : result.methods) {
    if (m.method == RecoveryMethod::kLog0) log0 = &m.stats;
    if (m.method == RecoveryMethod::kLog1) log1 = &m.stats;
    if (m.method == RecoveryMethod::kSql1) sql1 = &m.stats;
  }
  ASSERT_NE(log0, nullptr);
  ASSERT_NE(log1, nullptr);
  ASSERT_NE(sql1, nullptr);

  // The DPT prunes fetches (paper §5.3): Log1 must fetch strictly fewer
  // data pages than Log0, and be faster.
  EXPECT_LT(log1->data_page_fetches, log0->data_page_fetches);
  EXPECT_LT(log1->redo.ms, log0->redo.ms);
  // Log1 issues (approximately) the same data-page requests as SQL1 (§5.3).
  // The schemes differ only on the tail of the log: SQL's analysis puts the
  // tail pages in its DPT while Log1 handles them in tail mode, so the two
  // counts may differ by up to the tail length.
  const uint64_t diff = log1->data_page_fetches > sql1->data_page_fetches
                            ? log1->data_page_fetches - sql1->data_page_fetches
                            : sql1->data_page_fetches - log1->data_page_fetches;
  EXPECT_LE(diff, 16u) << "log1=" << log1->data_page_fetches
                       << " sql1=" << sql1->data_page_fetches;
}

}  // namespace
}  // namespace deutero
