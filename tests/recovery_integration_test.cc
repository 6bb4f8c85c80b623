// End-to-end crash/recovery tests: every method recovers the same committed
// state; losers are rolled back; recovery is idempotent; the five methods
// agree on the resulting database.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "btree/node.h"
#include "common/random.h"
#include "core/engine.h"
#include "recovery/analysis.h"
#include "recovery/page_repairer.h"
#include "recovery/redo.h"
#include "recovery/stats.h"
#include "recovery/undo.h"
#include "storage/catalog.h"
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

/// The backchain records undo reads on the crash image `log` holds, and
/// the distinct log pages they lie on: every loser's chain from its last
/// record to its begin record, a CLR jumping over what it compensated.
void UndoReadsOf(LogManager* log, uint64_t* records, uint64_t* pages) {
  ActiveTxnTable att;
  for (auto it = log->NewIterator(kFirstLsn, false); it.Valid(); it.Next()) {
    ObserveForAtt(it.record(), &att, nullptr);
  }
  std::set<uint64_t> distinct;
  *records = 0;
  for (const auto& [txn, last] : att) {
    LogRecordView rec;
    for (Lsn lsn = last; lsn != kInvalidLsn;) {
      ASSERT_OK(log->ViewRecordAt(lsn, &rec));
      ++*records;
      distinct.insert(lsn / log->log_page_size());
      lsn = rec.type == LogRecordType::kClr         ? rec.undo_next_lsn
            : rec.type == LogRecordType::kTxnBegin ? kInvalidLsn
                                                   : rec.prev_lsn;
    }
  }
  *pages = distinct.size();
}

/// Named regression: RecoveryStats::undo reported {ms, 0, 0} although undo
/// reads the log by backchain, so every per-pass log-page total silently
/// left undo out. Undo charges a log page once while its reads stay on it:
/// the pass reads backchains in descending LSN order, so it pays exactly
/// the distinct pages its records lie on.
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
    uint64_t records = 0;
    uint64_t pages = 0;
    ASSERT_NO_FATAL_FAILURE(UndoReadsOf(&e->wal(), &records, &pages));
    ASSERT_LT(pages, records) << "no two loser records share a log page";

    RecoveryStats st;
    ASSERT_OK(e->Recover(GetParam(), &st));
    ASSERT_GE(st.txns_undone, 1u);
    EXPECT_EQ(st.undo.records, records) << threads << " threads";
    EXPECT_EQ(st.undo.log_pages, pages) << threads << " threads";
    EXPECT_GE(st.undo.records, st.undo_ops) << threads << " threads";
  }
}

/// A runtime rollback runs recovery's undo pass on one loser, and that
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
    // Spans read gap pages through and drop them; only the prefetching
    // methods issue spans.
    EXPECT_EQ(st.read_pages,
              st.data_page_fetches + st.index_page_fetches + st.gap_pages)
        << name;
    if (m == RecoveryMethod::kSql2) {
      EXPECT_LT(st.read_ios, st.read_pages) << name;
    } else if (m != RecoveryMethod::kLog2) {
      EXPECT_EQ(st.gap_pages, 0u) << name;
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

/// A crash image whose log tail updates leaves outside the DPT: a cache
/// that holds the whole table, one window, and Δ-records only where the
/// test forces them. With `delta_before_tail` the window first updates 60
/// leaves and a forced Δ-record takes them into the DPT; without it the
/// window has no Δ-record, so all of it is the tail. Then committed
/// updates on 40 leaves nothing else in the window touched: the tail.
void BuildTailCrashImage(bool delta_before_tail, EngineOptions* o,
                         Engine::StableSnapshot* snap) {
  *o = SmallOptions();
  o->cache_pages = 512;  // every leaf stays cached until the crash
  o->lazy_writer_base_fraction = 0;
  o->checkpoint_interval_updates = 1'000'000;  // one checkpoint, one window
  o->delta_dirty_capacity = 1'000'000;  // Δ-records only where forced
  o->bw_written_capacity = 1'000'000;
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(*o, &e));
  ASSERT_OK(e->Checkpoint());
  std::map<PageId, Key> key_of_leaf;
  for (Key k = 0; k < o->num_rows; k++) {
    PageId pid = kInvalidPageId;
    ASSERT_OK(e->dc().FindLeaf(o->table_id, k, &pid));
    key_of_leaf.emplace(pid, k);
  }
  std::vector<Key> keys;  // one per leaf, in pid order
  for (const auto& [pid, key] : key_of_leaf) keys.push_back(key);
  ASSERT_GE(keys.size(), 100u);
  Table table;
  ASSERT_OK(e->OpenDefaultTable(&table));
  const std::string value(o->value_size, 't');
  auto update = [&](size_t first, size_t count) {
    for (size_t i = first; i < first + count; i += o->updates_per_txn) {
      Txn txn;
      ASSERT_OK(e->Begin(&txn));
      for (size_t j = i; j < std::min(first + count, i + o->updates_per_txn);
           j++) {
        ASSERT_OK(txn.Update(table, keys[j], value));
      }
      ASSERT_OK(txn.Commit());
    }
  };
  if (delta_before_tail) {
    ASSERT_NO_FATAL_FAILURE(update(0, 60));
    e->dc().monitor().ForceEmit();
  }
  ASSERT_NO_FATAL_FAILURE(update(keys.size() - 40, 40));
  e->SimulateCrash();
  ASSERT_OK(e->TakeStableSnapshot(snap));
}

/// Recovers the tail crash image: Log2 prefetches the tail's leaves, so
/// its redo demand-reads none of them while Log1's reads each on demand,
/// with the same DPT and the same redo outcomes; all five methods destage
/// the same bytes at recovery_threads 1, 2 and 4.
void CheckTailReadAhead(bool delta_before_tail) {
  EngineOptions o;
  Engine::StableSnapshot snap;
  ASSERT_NO_FATAL_FAILURE(BuildTailCrashImage(delta_before_tail, &o, &snap));
  RecoveryStats log1;
  RecoveryStats log2;
  testing_util::StateImage reference;
  bool have_reference = false;
  for (RecoveryMethod m :
       {RecoveryMethod::kLog0, RecoveryMethod::kLog1, RecoveryMethod::kLog2,
        RecoveryMethod::kSql1, RecoveryMethod::kSql2}) {
    for (uint32_t threads : {1u, 2u, 4u}) {
      const std::string label =
          std::string(RecoveryMethodName(m)) + " x" + std::to_string(threads);
      EngineOptions ot = o;
      ot.recovery_threads = threads;
      std::unique_ptr<Engine> r;
      ASSERT_OK(Engine::Open(ot, &r));
      r->SimulateCrash();
      ASSERT_OK(r->RestoreStableSnapshot(snap));
      RecoveryStats st;
      ASSERT_OK(r->Recover(m, &st));
      if (threads == 1 && m == RecoveryMethod::kLog1) log1 = st;
      if (threads == 1 && m == RecoveryMethod::kLog2) log2 = st;
      const testing_util::StateImage state = testing_util::CaptureState(r.get());
      if (!have_reference) {
        reference = state;
        have_reference = true;
      } else {
        testing_util::ExpectSameState(state, reference, label);
      }
    }
  }
  EXPECT_EQ(log1.delta_records_seen, delta_before_tail ? 1u : 0u);
  EXPECT_EQ(log1.dpt_size, delta_before_tail ? 60u : 0u);
  EXPECT_EQ(log1.redo_tail_ops, 40u);
  EXPECT_GE(log1.demand_reads, 40u) << "Log1 read the tail ahead";
  // Neither the DC pass (its index preload starts with a prefetch of the
  // root) nor undo (no loser) makes a demand read here: every one would
  // be redo's.
  EXPECT_EQ(log2.demand_reads, 0u)
      << "Log2's redo demand-read the tail's leaves";
  EXPECT_EQ(log2.prefetch_wasted, 0u);
  EXPECT_EQ(log2.dpt_size, log1.dpt_size);
  EXPECT_EQ(log2.redo_examined, log1.redo_examined);
  EXPECT_EQ(log2.redo_applied, log1.redo_applied);
  EXPECT_EQ(log2.redo_skipped_dpt, log1.redo_skipped_dpt);
  EXPECT_EQ(log2.redo_skipped_rlsn, log1.redo_skipped_rlsn);
  EXPECT_EQ(log2.redo_skipped_plsn, log1.redo_skipped_plsn);
  EXPECT_EQ(log2.redo_tail_ops, log1.redo_tail_ops);
}

/// Named regression: logical redo handles the log's tail with the basic
/// algorithm (§4.3), fetching every leaf it updates, but Log2's PF-list
/// listed only the DPT, so each tail leaf outside it was a one-page demand
/// read at a full seek. The DC pass now lists those leaves beside the DPT
/// and redo's PF-list reads them ahead after the DPT's pages.
TEST(RecoverySideBySide, Log2PrefetchesTheLogTailOutsideTheDpt) {
  CheckTailReadAhead(/*delta_before_tail=*/true);
}

/// The same with no Δ-record in the window: the DPT is empty and the whole
/// window is the tail.
TEST(RecoverySideBySide, Log2PrefetchesAWindowWithNoDeltaRecord) {
  CheckTailReadAhead(/*delta_before_tail=*/false);
}

/// Algorithm 4's tail boundary. A Δ-record's TC-LSN is the eLSN at its
/// emission, the first offset not yet stable, so a data op appended right
/// after a log force starts exactly there. Its page may or may not be in
/// the Δ-record's DirtySet; either way the op is not provably covered, so
/// logical redo must take it in tail mode (§4.3) with the basic algorithm.
TEST(RecoverySideBySide, OpAtTheLastDeltaTcLsnRedoesInTailMode) {
  EngineOptions o = SmallOptions();
  o.checkpoint_interval_updates = 1'000'000;  // one checkpoint, one window
  o.delta_dirty_capacity = 1'000'000;         // Δ-records only where forced
  o.bw_written_capacity = 1'000'000;
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  Table table;
  ASSERT_OK(e->OpenDefaultTable(&table));
  ASSERT_OK(e->Checkpoint());
  const Key key = 7;
  const std::string value(o.value_size, 'b');
  Txn txn;
  ASSERT_OK(e->Begin(&txn));
  e->tc().ForceLog();
  const Lsn op = e->wal().next_lsn();
  ASSERT_EQ(op, e->wal().stable_end());
  ASSERT_EQ(op, e->dc().elsn());
  ASSERT_OK(txn.Update(table, key, value));
  e->dc().monitor().ForceEmit();
  ASSERT_OK(txn.Commit());
  e->SimulateCrash();
  Engine::StableSnapshot snap;
  ASSERT_OK(e->TakeStableSnapshot(&snap));

  // The log holds what the test meant to build.
  Lsn update_lsn = kInvalidLsn;
  Lsn tc_lsn = kInvalidLsn;
  for (auto it = e->wal().NewIterator(kFirstLsn, false); it.Valid();
       it.Next()) {
    if (it.record().type == LogRecordType::kUpdate) update_lsn = it.lsn();
    if (it.record().type == LogRecordType::kDeltaRecord) {
      tc_lsn = it.record().tc_lsn;
    }
  }
  ASSERT_EQ(update_lsn, op);
  ASSERT_EQ(tc_lsn, op);

  testing_util::StateImage reference;
  bool have_reference = false;
  for (RecoveryMethod m :
       {RecoveryMethod::kLog0, RecoveryMethod::kLog1, RecoveryMethod::kLog2,
        RecoveryMethod::kSql1, RecoveryMethod::kSql2}) {
    for (uint32_t threads : {1u, 2u, 4u}) {
      const std::string label =
          std::string(RecoveryMethodName(m)) + " x" + std::to_string(threads);
      EngineOptions ot = o;
      ot.recovery_threads = threads;
      std::unique_ptr<Engine> r;
      ASSERT_OK(Engine::Open(ot, &r));
      r->SimulateCrash();
      ASSERT_OK(r->RestoreStableSnapshot(snap));
      RecoveryStats st;
      ASSERT_OK(r->Recover(m, &st));
      EXPECT_EQ(st.redo_applied, 1u) << label;
      if (m == RecoveryMethod::kLog1 || m == RecoveryMethod::kLog2) {
        EXPECT_EQ(st.delta_records_seen, 1u) << label;
        EXPECT_EQ(st.redo_tail_ops, 1u) << label;
      }
      std::string got;
      ASSERT_OK(r->Read(key, &got));
      EXPECT_EQ(got, value) << label;
      const testing_util::StateImage state = testing_util::CaptureState(r.get());
      if (!have_reference) {
        reference = state;
        have_reference = true;
      } else {
        testing_util::ExpectSameState(state, reference, label);
      }
    }
  }
}

/// Named regression: SQL redo is page-addressed and never reads the
/// index, so the undo pass after it found every internal page on its
/// losers' paths cold, and each key traversal demand-read them one seek at
/// a time. Crash recovery's undo now walks the losers' backchains ahead and
/// reads their paths level by level in span I/Os: the only demand read
/// left is the root. One loser of 100 random updates, inserts and deletes
/// on a table 9 times the cache (4 read-ahead batches of capacity / 8
/// keys); every method still destages the same bytes.
TEST(RecoverySideBySide, UndoReadsLoserPathsInBatches) {
  const EngineOptions o = MediumOptions();
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  Table table;
  ASSERT_OK(e->OpenDefaultTable(&table));
  Random rng(20);
  std::vector<Key> keys;  // distinct keys, spread over the whole table
  for (Key k = rng.Uniform(300); k < o.num_rows; k += 100 + rng.Uniform(400)) {
    keys.push_back(k);
  }
  ASSERT_GE(keys.size(), 125u);
  // The first 25 keys are deleted before the checkpoint, for the loser to
  // re-insert.
  {
    Txn txn;
    ASSERT_OK(e->Begin(&txn));
    for (size_t i = 0; i < 25; i++) ASSERT_OK(txn.Delete(table, keys[i]));
    ASSERT_OK(txn.Commit());
  }
  ASSERT_OK(e->Checkpoint());
  {
    Txn loser;
    ASSERT_OK(e->Begin(&loser));
    const std::string value(o.value_size, 'L');
    std::vector<size_t> order(100);
    for (size_t i = 0; i < order.size(); i++) order[i] = i;
    for (size_t i = order.size(); i > 1; i--) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    for (size_t i : order) {
      if (i < 25) {
        ASSERT_OK(loser.Insert(table, keys[i], value));
      } else if (i < 50) {
        ASSERT_OK(loser.Delete(table, keys[i]));
      } else {
        ASSERT_OK(loser.Update(table, keys[i], value));
      }
    }
    e->tc().ForceLog();
    loser.Release();  // in flight at the crash
  }
  e->SimulateCrash();
  Engine::StableSnapshot snap;
  ASSERT_OK(e->TakeStableSnapshot(&snap));

  testing_util::StateImage log0_state;
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
    EXPECT_EQ(st.txns_undone, 1u) << name;
    EXPECT_EQ(st.undo_ops, 100u) << name;
    EXPECT_LE(st.undo_read_ios, st.read_ios) << name;
    EXPECT_LE(st.undo_stall_ms, st.stall_ms) << name;
    std::string got;
    EXPECT_TRUE(r->Read(keys[0], &got).IsNotFound()) << name;
    ASSERT_OK(r->Read(keys[49], &got));
    EXPECT_EQ(got, SynthesizeValueString(keys[49], 0, o.value_size)) << name;
    const testing_util::StateImage state = testing_util::CaptureState(r.get());
    if (m == RecoveryMethod::kLog0) {
      log0_state = state;
    } else {
      testing_util::ExpectSameState(state, log0_state, name);
    }
    if (m != RecoveryMethod::kSql1 && m != RecoveryMethod::kSql2) continue;

    // The same recovery pass by pass, to see the undo pass alone.
    ASSERT_OK(Engine::Open(o, &r));
    r->SimulateCrash();
    ASSERT_OK(r->RestoreStableSnapshot(snap));
    DataComponent& dc = r->dc();
    dc.monitor().set_enabled(false);
    dc.pool().set_callbacks_enabled(false);
    dc.pool().set_dirty_watermark(0);
    dc.pool().ResetStats();
    dc.disk().ResetStats();
    ASSERT_OK(dc.OpenDatabase());
    dc.Eosl(r->wal().stable_end() - 1);
    const Lsn start = r->wal().master().bckpt_lsn;
    SqlAnalysisResult ar;
    ASSERT_OK(RunSqlAnalysis(&r->wal(), start, &ar, &dc.clock(),
                             o.io.cpu_per_dpt_update_us));
    RedoResult rr;
    ASSERT_OK(RunSqlRedo(&r->wal(), &dc, ar.redo_start_lsn, &ar.dpt,
                         m == RecoveryMethod::kSql2, o, &rr, start));
    const BufferPool::Stats pool0 = dc.pool().stats();
    const SimDisk::Stats disk0 = dc.disk().stats();
    UndoResult ur;
    ASSERT_OK(RunUndo(&r->wal(), &dc, ar.att, &ur));
    const BufferPool::Stats& pool1 = dc.pool().stats();
    const uint64_t pages = pool1.data_fetches + pool1.index_fetches -
                           pool0.data_fetches - pool0.index_fetches;
    const uint64_t read_ios = dc.disk().stats().read_ios - disk0.read_ios;
    EXPECT_EQ(ur.ops_undone, 100u) << name;
    EXPECT_LE(pool1.misses - pool0.misses, 1u)
        << name << ": undo demand-read its losers' paths";
    EXPECT_GT(pages, 1u) << name;
    EXPECT_LT(read_ios, pages) << name;
    EXPECT_EQ(read_ios, st.undo_read_ios) << name;
  }
}

/// A crash image for Log2's index preload under the DC scan: 1 KB pages, a
/// 3-level tree, one I/O channel, and a redo window whose fresh-key inserts
/// split leaves until the rightmost level-1 page splits too. The root, the
/// new level-1 page's parent, is flushed after that split and the new page
/// is not, so the stable root names a page that reads as zeroed.
struct PreloadCrashImage {
  EngineOptions options;
  Engine::StableSnapshot snap;
};

void BuildPreloadCrashImage(bool media_archive, PreloadCrashImage* out) {
  EngineOptions o = MediumOptions();  // 60,000 rows: a 3-level tree
  o.cache_pages = 1024;               // the DC pass evicts nothing
  o.lazy_writer_reference_cache_pages = 1024;
  o.lazy_writer_base_fraction = 0;  // no page is written but the root
  o.checkpoint_interval_updates = 1'000'000;  // one checkpoint, one window
  o.io.io_channels = 1;
  o.media_archive = media_archive;
  out->options = o;
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  ASSERT_OK(e->Checkpoint());
  ASSERT_EQ(e->dc().btree().height(), 3u);
  auto root_children = [&e](std::vector<PageId>* children) {
    PageHandle h;
    ASSERT_OK(e->dc().pool().Get(kRootPageId, PageClass::kIndex, &h));
    const InternalNodeView node(h.view());
    children->clear();
    for (uint32_t i = 0; i < node.count(); i++) {
      children->push_back(node.ChildAt(i));
    }
  };
  std::vector<PageId> before;
  ASSERT_NO_FATAL_FAILURE(root_children(&before));
  Table table;
  ASSERT_OK(e->OpenDefaultTable(&table));
  // Updates on the first 300 leaves give the DC scan log pages enough to
  // cover the root's read.
  const std::string updated(o.value_size, 'u');
  for (Key k = 0; k < 3000; k += 10) {
    Txn txn;
    ASSERT_OK(e->Begin(&txn));
    for (Key j = k; j < k + 10; j++) {
      ASSERT_OK(txn.Update(table, j * 3, updated));
    }
    ASSERT_OK(txn.Commit());
  }
  const std::string value(o.value_size, 'n');
  std::vector<PageId> after = before;
  for (Key k = o.num_rows; after.size() == before.size(); k += 10) {
    ASSERT_LT(k, o.num_rows + 20'000) << "no level-1 page split";
    Txn txn;
    ASSERT_OK(e->Begin(&txn));
    for (Key j = k; j < k + 10; j++) ASSERT_OK(txn.Insert(table, j, value));
    ASSERT_OK(txn.Commit());
    ASSERT_NO_FATAL_FAILURE(root_children(&after));
  }
  PageId child = kInvalidPageId;
  for (const PageId pid : after) {
    if (std::find(before.begin(), before.end(), pid) == before.end()) {
      child = pid;
    }
  }
  ASSERT_NE(child, kInvalidPageId);
  ASSERT_OK(e->dc().pool().FlushPage(kRootPageId));
  e->SimulateCrash();
  const PageView stable_child(e->dc().disk().MutableImageForTest(child),
                              o.page_size);
  ASSERT_EQ(stable_child.type(), PageType::kFree)
      << "the new level-1 page " << child << " reached the device";
  ASSERT_OK(e->TakeStableSnapshot(&out->snap));
}

/// Restore `img` into a fresh engine opened at recovery_threads `threads`.
void RestorePreloadCrashImage(const PreloadCrashImage& img, uint32_t threads,
                              std::unique_ptr<Engine>* out) {
  EngineOptions o = img.options;
  o.recovery_threads = threads;
  ASSERT_OK(Engine::Open(o, out));
  (*out)->SimulateCrash();
  ASSERT_OK((*out)->RestoreStableSnapshot(img.snap));
}

/// Open a restored crash image for a DC pass driven directly, as
/// RecoveryManager opens it before the pass.
void OpenForDcPass(Engine* r) {
  ASSERT_OK(r->dc().OpenDatabase());
  r->dc().Eosl(r->wal().stable_end() - 1);
  r->dc().pool().ResetStats();
  r->dc().disk().ResetStats();
}

/// Named regression: Log2's index preload (App. A.1) ran only after the DC
/// scan, the structure replay and the DPT CPU charge, so the data disk sat
/// idle under the scan and the preload's reads ran alone. Log2's DC pass
/// was exactly Log1's followed by a waiting PreloadIndex. Now the preload
/// descends the stable tree under the scan and the replay: Log2's DC pass
/// takes less than that sum, reads exactly the pages it read, and leaves
/// every internal page of the final tree loaded. Every method destages the
/// same bytes at recovery_threads 1, 2 and 4.
TEST(RecoverySideBySide, Log2ReadsItsIndexUnderTheDcScan) {
  PreloadCrashImage img;
  ASSERT_NO_FATAL_FAILURE(BuildPreloadCrashImage(/*media_archive=*/false, &img));
  const EngineOptions& o = img.options;

  // Log1's DC pass, then a waiting PreloadIndex: what Log2's DC pass was
  // before the preload moved under the scan.
  std::unique_ptr<Engine> r;
  ASSERT_NO_FATAL_FAILURE(RestorePreloadCrashImage(img, 1, &r));
  ASSERT_NO_FATAL_FAILURE(OpenForDcPass(r.get()));
  const Lsn start = r->wal().master().bckpt_lsn;
  DcRecoveryResult dcr;
  ASSERT_OK(RunDcRecovery(&r->wal(), &r->dc(), start, o.dpt_mode,
                          /*build_dpt=*/true, /*preload_index=*/false, &dcr));
  ASSERT_GT(dcr.smo_redone, 0u);
  EXPECT_EQ(r->dc().pool().stats().prefetch_issued, 0u)
      << "Log1's DC pass prefetched";
  const double t0 = r->dc().clock().NowMs();
  ASSERT_OK(r->dc().PreloadIndex());
  const double preload_ms = r->dc().clock().NowMs() - t0;
  const BufferPool::Stats serial = r->dc().pool().stats();
  ASSERT_GT(preload_ms, 0.0);

  // Log2's DC pass reads the same pages, and leaves the final tree's
  // internal pages loaded.
  ASSERT_NO_FATAL_FAILURE(RestorePreloadCrashImage(img, 1, &r));
  ASSERT_NO_FATAL_FAILURE(OpenForDcPass(r.get()));
  ASSERT_OK(RunDcRecovery(&r->wal(), &r->dc(), start, o.dpt_mode,
                          /*build_dpt=*/true, /*preload_index=*/true, &dcr));
  const BufferPool::Stats overlapped = r->dc().pool().stats();
  EXPECT_EQ(overlapped.index_fetches, serial.index_fetches);
  EXPECT_EQ(overlapped.data_fetches, serial.data_fetches);
  EXPECT_EQ(overlapped.prefetch_wasted, 0u);
  uint64_t internal_pages = 0;
  for (std::vector<PageId> level = {kRootPageId}, below; !level.empty();
       level.swap(below)) {
    below.clear();
    for (const PageId pid : level) {
      EXPECT_TRUE(r->dc().pool().IsLoaded(pid)) << "internal page " << pid;
      PageHandle h;
      ASSERT_OK(r->dc().pool().Get(pid, PageClass::kIndex, &h));
      internal_pages++;
      if (h.view().level() == 1) continue;
      const InternalNodeView node(h.view());
      for (uint32_t i = 0; i < node.count(); i++) {
        below.push_back(node.ChildAt(i));
      }
    }
  }
  EXPECT_GT(internal_pages, 20u);

  // Whole recoveries: Log2's DC pass beats the serial sum, and all five
  // methods destage the same bytes at every recovery_threads.
  double log1_dc_ms = 0;
  double log2_dc_ms = 0;
  testing_util::StateImage reference;
  bool have_reference = false;
  for (RecoveryMethod m :
       {RecoveryMethod::kLog0, RecoveryMethod::kLog1, RecoveryMethod::kLog2,
        RecoveryMethod::kSql1, RecoveryMethod::kSql2}) {
    for (uint32_t threads : {1u, 2u, 4u}) {
      const std::string label =
          std::string(RecoveryMethodName(m)) + " x" + std::to_string(threads);
      ASSERT_NO_FATAL_FAILURE(RestorePreloadCrashImage(img, threads, &r));
      RecoveryStats st;
      ASSERT_OK(r->Recover(m, &st));
      if (threads == 1 && m == RecoveryMethod::kLog1) log1_dc_ms = st.dc_pass.ms;
      if (threads == 1 && m == RecoveryMethod::kLog2) log2_dc_ms = st.dc_pass.ms;
      const testing_util::StateImage state = testing_util::CaptureState(r.get());
      if (!have_reference) {
        reference = state;
        have_reference = true;
      } else {
        testing_util::ExpectSameState(state, reference, label);
      }
    }
  }
  EXPECT_LT(log2_dc_ms, log1_dc_ms + preload_ms)
      << "Log1 " << log1_dc_ms << " ms + preload " << preload_ms << " ms";
}

/// Media repair under the early preload: with the media archive on, the
/// stable root of a Log2 crash image is corrupt. The descent under the DC
/// scan reads it first and repairs it from the archive and the log before
/// the structure replay has replayed any record, and Log2 at
/// recovery_threads 1, 2 and 4 destages the bytes Log1 and Sql1 do. With
/// no archive the pass fails with Corruption.
TEST(RecoverySideBySide, Log2EarlyPreloadRepairsACorruptStableRoot) {
  PreloadCrashImage img;
  ASSERT_NO_FATAL_FAILURE(BuildPreloadCrashImage(/*media_archive=*/true, &img));
  testing_util::StateImage reference;
  bool have_reference = false;
  const std::pair<RecoveryMethod, uint32_t> runs[] = {
      {RecoveryMethod::kLog1, 1}, {RecoveryMethod::kSql1, 1},
      {RecoveryMethod::kLog2, 1}, {RecoveryMethod::kLog2, 2},
      {RecoveryMethod::kLog2, 4}};
  for (const auto& [m, threads] : runs) {
    const std::string label =
        std::string(RecoveryMethodName(m)) + " x" + std::to_string(threads);
    std::unique_ptr<Engine> r;
    ASSERT_NO_FATAL_FAILURE(RestorePreloadCrashImage(img, threads, &r));
    r->dc().disk().CorruptStableByteForTest(kRootPageId, kPageHeaderSize + 5,
                                            0x20);
    Catalog stable;
    ASSERT_OK(Catalog::ReadFrom(r->dc().disk(), img.options.page_size,
                                &stable));
    PageId hwm_at_repair = kInvalidPageId;
    Engine* engine = r.get();
    r->dc().pool().set_repair_callback([&](PageId pid, uint8_t* data) {
      hwm_at_repair = engine->dc().allocator().next_page_id();
      return engine->repairer().RepairFrame(pid, data);
    });
    RecoveryStats st;
    ASSERT_OK(r->Recover(m, &st));
    if (m == RecoveryMethod::kLog2) {
      EXPECT_EQ(st.pages_repaired, 1u) << label;
      // The replay moves the allocator past the stable catalog's mark with
      // its first record: the repair came before it.
      EXPECT_EQ(hwm_at_repair, stable.next_page_id()) << label;
      EXPECT_GT(r->dc().allocator().next_page_id(), stable.next_page_id());
    }
    const testing_util::StateImage state = testing_util::CaptureState(r.get());
    if (!have_reference) {
      reference = state;
      have_reference = true;
    } else {
      testing_util::ExpectSameState(state, reference, label);
    }
  }

  // No repair source: the descent's read fails the pass.
  std::unique_ptr<Engine> r;
  ASSERT_NO_FATAL_FAILURE(RestorePreloadCrashImage(img, 1, &r));
  r->repairer().RestoreArchive(PageRepairer::ArchiveSnapshot());
  r->dc().disk().CorruptStableByteForTest(kRootPageId, kPageHeaderSize + 5,
                                          0x20);
  ASSERT_NO_FATAL_FAILURE(OpenForDcPass(r.get()));
  DcRecoveryResult dcr;
  const Status s = RunDcRecovery(
      &r->wal(), &r->dc(), r->wal().master().bckpt_lsn, img.options.dpt_mode,
      /*build_dpt=*/true, /*preload_index=*/true, &dcr);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

/// Named regression: with the lazy-writer watermark scaled by the
/// checkpoint interval (as App. C's ci10 runs are), fewer frames stay clean
/// than the tree has internal pages. The clock hunted for clean victims,
/// so it evicted hot internal pages and the next descents read them back:
/// about 3 index reads per transaction here. Second chance keeps them. A
/// level-1 page the hand finds unreferenced is still evicted (twice in
/// 33,000 updates here), so the forward path reads fewer than one index
/// page per 100 transactions after warm-up. The crash image's DPT stays
/// near the dirty pages at the crash, and the standing bar holds on it.
TEST(RecoverySideBySide, MostlyDirtyPoolKeepsItsIndex) {
  EngineOptions o = MediumOptions();  // 60,000 rows: a 3-level tree
  o.cache_pages = 512;
  o.lazy_writer_reference_cache_pages = 512;
  o.checkpoint_interval_updates = 10'000;
  o.lazy_writer_reference_interval = 1'000;  // watermark 0.3 x 512 x sqrt(10)
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  BufferPool& pool = e->dc().pool();
  uint64_t internal_pages = 0;
  for (std::vector<PageId> level = {kRootPageId}, below; !level.empty();
       level.swap(below)) {
    below.clear();
    for (const PageId pid : level) {
      PageHandle h;
      ASSERT_OK(pool.Get(pid, PageClass::kIndex, &h));
      internal_pages++;
      if (h.view().level() == 1) continue;
      const InternalNodeView node(h.view());
      for (uint32_t i = 0; i < node.count(); i++) {
        below.push_back(node.ChildAt(i));
      }
    }
  }
  ASSERT_GT(internal_pages, o.cache_pages - pool.dirty_watermark())
      << "the clean frames hold the whole index";

  WorkloadDriver driver(e.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(3'000));  // fills the pool with dirty leaves
  pool.ResetStats();
  const uint64_t txns = driver.txns_committed();
  ASSERT_OK(driver.RunOps(3'000));
  const BufferPool::Stats fwd = pool.stats();
  EXPECT_LT(fwd.index_fetches * 100, driver.txns_committed() - txns)
      << "the forward path re-read index pages";
  EXPECT_GT(fwd.dirty_evictions, 0u);

  // The redo window: a checkpoint, updates, an open loser.
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver.RunOps(2'000));
  ASSERT_OK(driver.RunOpsNoCommit(5));
  e->tc().ForceLog();
  const uint64_t dirty_at_crash = pool.dirty_pages();
  driver.OnCrash();
  e->SimulateCrash();
  Engine::StableSnapshot snap;
  ASSERT_OK(e->TakeStableSnapshot(&snap));

  // A DPT page is dirty at the crash, or flushed after the last BW-record:
  // its WrittenSet holds at most bw_written_capacity pages.
  testing_util::ExpectRecoversEveryWay(
      o, snap, &driver,
      [&](RecoveryMethod m, const RecoveryStats& st, const std::string& label) {
        if (m == RecoveryMethod::kLog1 || m == RecoveryMethod::kLog2) {
          EXPECT_LE(st.dpt_size, dirty_at_crash + o.bw_written_capacity)
              << label;
        }
      });
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
