// Delete-side structure modifications: leaf merge/free SMOs.
//
//  * Merge mechanics: an underfull/emptied leaf is coalesced into a
//    same-parent sibling, unlinked from the parent and the sibling chain,
//    and its page returned to the allocator free-list; the root collapses
//    back to a leaf when left with a single leaf child.
//  * Recovery: a crash window containing merges (and interleaved splits)
//    recovers to byte-identical post-recovery DISK images under all five
//    methods at recovery_threads 1/2/4 — checked at every operation
//    boundary across the merge window.
//  * DC-pass SMO filter: a split the Δ-record DPT proves durable is not
//    fetched by Log1/Log2's DC pass; a split in the log's tail still is.
//  * Allocator: the free-list survives checkpoints and crashes, replayed
//    merges re-free, replayed splits re-consume, and a DPT-skipped split
//    still advances the high-water mark and the index extent cursor
//    (regressions). A crash window in which an internal split opens an
//    extent and an internal root split straddles two recovers byte-
//    identically under every method, twice in a row.
//  * Invariant: 50%-delete churn ends with zero empty leaves reachable
//    from the sibling chain.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "btree/node.h"
#include "core/engine.h"
#include "recovery/analysis.h"
#include "recovery/redo.h"
#include "recovery/stats.h"
#include "storage/page.h"
#include "test_util.h"
#include "wal/log_record.h"
#include "workload/driver.h"

namespace deutero {
namespace {

using testing_util::CaptureState;
using testing_util::ExpectSameState;
using testing_util::SmallOptions;
using testing_util::StateImage;

/// Geometry for merge tests: 1 KB pages (29-row leaves, merge threshold 7),
/// a 2-level tree, and manual checkpoints only.
EngineOptions MergeOptions(uint64_t num_rows) {
  EngineOptions o = SmallOptions();
  o.num_rows = num_rows;
  o.checkpoint_interval_updates = 1'000'000;  // explicit checkpoints only
  o.updates_per_txn = 1;  // every op commits (and force-flushes) alone
  return o;
}

Status DeleteOne(Engine* e, Table& t, Key k) {
  Txn txn;
  DEUTERO_RETURN_NOT_OK(e->Begin(&txn));
  DEUTERO_RETURN_NOT_OK(txn.Delete(t, k));
  return txn.Commit();
}

Status InsertOne(Engine* e, Table& t, Key k, const std::string& v) {
  Txn txn;
  DEUTERO_RETURN_NOT_OK(e->Begin(&txn));
  DEUTERO_RETURN_NOT_OK(txn.Insert(t, k, v));
  return txn.Commit();
}

// ---------------------------------------------------------------------------
// Record codec.
// ---------------------------------------------------------------------------

TEST(SmoMergeRecord, EncodeDecodeRoundTripsBothRepresentations) {
  LogRecord rec;
  rec.type = LogRecordType::kSmoMerge;
  rec.pid = 17;  // the freed victim
  rec.alloc_hwm = 42;
  rec.index_extent = {35, 40};
  rec.smo_pages.push_back({5, std::string(64, 'p')});
  rec.smo_pages.push_back({9, std::string(64, 's')});
  rec.smo_pages.push_back({17, std::string(64, 'f')});
  const std::string payload = rec.EncodePayload();

  LogRecord owned;
  ASSERT_OK(LogRecord::DecodePayload(LogRecordType::kSmoMerge,
                                     Slice(payload), &owned));
  EXPECT_EQ(owned.pid, 17u);
  EXPECT_EQ(owned.alloc_hwm, 42u);
  EXPECT_TRUE(owned.index_extent == rec.index_extent);
  ASSERT_EQ(owned.smo_pages.size(), 3u);
  EXPECT_EQ(owned.smo_pages[1].pid, 9u);
  EXPECT_EQ(owned.smo_pages[2].image, std::string(64, 'f'));

  LogRecordView view;
  ASSERT_OK(LogRecordView::DecodePayload(LogRecordType::kSmoMerge,
                                         Slice(payload), &view));
  EXPECT_EQ(view.pid, 17u);
  EXPECT_EQ(view.alloc_hwm, 42u);
  EXPECT_EQ(view.index_extent.next, 35u);
  EXPECT_EQ(view.index_extent.end, 40u);
  ASSERT_EQ(view.smo_pages.size(), 3u);
  EXPECT_EQ(view.smo_pages[0].image, Slice(rec.smo_pages[0].image));
}

// ---------------------------------------------------------------------------
// Merge mechanics.
// ---------------------------------------------------------------------------

TEST(SmoMerge, EmptiedLeafIsMergedUnlinkAndFreed) {
  EngineOptions o = MergeOptions(300);
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  Table t;
  ASSERT_OK(e->OpenDefaultTable(&t));

  // Drain the second leaf (keys 27..53 under the bulk-load fill of 27).
  for (Key k = 27; k <= 53; k++) ASSERT_OK(DeleteOne(e.get(), t, k));

  const BTree::Stats& st = e->dc().btree().stats();
  EXPECT_GT(st.merges, 0u) << "draining a leaf must trigger a merge SMO";
  EXPECT_GT(e->wal().stats().by_type[static_cast<size_t>(
                LogRecordType::kSmoMerge)],
            0u);
  EXPECT_FALSE(e->dc().allocator().free_list().empty());

  uint64_t rows = 0;
  ASSERT_OK(e->dc().btree().CheckWellFormed(&rows));
  EXPECT_EQ(rows, 300u - 27u);
  uint64_t empty = 0;
  ASSERT_OK(e->dc().btree().CountEmptyLeaves(&empty));
  EXPECT_EQ(empty, 0u);

  // The surviving data is intact and the chain is seamless.
  std::string v;
  ASSERT_OK(e->Read(26, &v));
  ASSERT_OK(e->Read(54, &v));
  EXPECT_TRUE(e->Read(40, &v).IsNotFound());
  uint64_t seen = 0;
  ScanCursor c;
  ASSERT_OK(e->Scan(o.table_id, 0, 299, &c));
  while (c.Valid()) {
    seen++;
    ASSERT_OK(c.Next());
  }
  EXPECT_EQ(seen, rows);
}

TEST(SmoMerge, FreedPageIsReusedByTheNextSplit) {
  EngineOptions o = MergeOptions(300);
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  Table t;
  ASSERT_OK(e->OpenDefaultTable(&t));

  for (Key k = 27; k <= 53; k++) ASSERT_OK(DeleteOne(e.get(), t, k));
  const auto& fl = e->dc().allocator().free_list();
  ASSERT_FALSE(fl.empty());
  const PageId freed = fl.back();  // LIFO: the next Allocate() takes this
  const PageId hwm = e->dc().allocator().next_page_id();

  // Force a split: fill the rightmost leaf with fresh keys.
  const uint64_t splits_before = e->dc().btree().stats().splits;
  const std::string v(o.value_size, 'x');
  for (Key k = 300; k < 340; k++) {
    ASSERT_OK(InsertOne(e.get(), t, k, v));
    if (e->dc().btree().stats().splits > splits_before) break;
  }
  ASSERT_GT(e->dc().btree().stats().splits, splits_before);
  EXPECT_FALSE(e->dc().allocator().IsFree(freed))
      << "the split must consume the freed page";
  EXPECT_EQ(e->dc().allocator().next_page_id(), hwm)
      << "reusing a freed page must not grow the device";
  uint64_t rows = 0;
  ASSERT_OK(e->dc().btree().CheckWellFormed(&rows));
}

/// Named regression (code review): a victim leaf pinned by an open
/// ScanCursor must NOT be merged away under the cursor — the merge is
/// deferred, the cursor keeps working, and nothing corrupts. (Writes
/// during an open scan violate the cursor's documented contract; the
/// engine still must not turn that into silent data loss.)
TEST(SmoMerge, PinnedVictimDefersTheMergeInsteadOfFreeingUnderACursor) {
  EngineOptions o = MergeOptions(300);
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  Table t;
  ASSERT_OK(e->OpenDefaultTable(&t));

  // Pin the second leaf (keys 27..53) with a cursor positioned on it.
  ScanCursor c;
  ASSERT_OK(e->Scan(o.table_id, 27, 299, &c));
  ASSERT_TRUE(c.Valid());
  ASSERT_EQ(c.key(), 27u);

  // Drain the pinned leaf through the TC: the final delete would normally
  // merge it away; the foreign pin must defer that.
  for (Key k = 27; k <= 53; k++) ASSERT_OK(DeleteOne(e.get(), t, k));
  EXPECT_EQ(e->dc().btree().stats().merges, 0u)
      << "merge ran under a pinned cursor";
  EXPECT_TRUE(e->dc().allocator().free_list().empty());

  // The cursor still walks the chain correctly past the emptied leaf (its
  // pre-delete position is stale — the contract violation — so advance
  // off it first, then count every remaining row).
  ASSERT_OK(c.Next());
  uint64_t seen = 0;
  while (c.Valid()) {
    seen++;
    ASSERT_OK(c.Next());
  }
  EXPECT_EQ(seen, 246u)  // keys 54..299
      << "cursor lost rows past the drained leaf";
  c.Close();

  // With the pin gone, churn in the neighboring leaf merges as usual and
  // the tree stays well-formed.
  for (Key k = 54; k <= 80; k++) ASSERT_OK(DeleteOne(e.get(), t, k));
  EXPECT_GT(e->dc().btree().stats().merges, 0u);
  uint64_t rows = 0;
  ASSERT_OK(e->dc().btree().CheckWellFormed(&rows));
  EXPECT_EQ(rows, 300u - 27u - 27u);
}

TEST(SmoMerge, DrainingTheTreeCollapsesTheRootBackToALeaf) {
  EngineOptions o = MergeOptions(60);  // 3 leaves, height 2
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  Table t;
  ASSERT_OK(e->OpenDefaultTable(&t));
  ASSERT_EQ(e->dc().btree().height(), 2u);

  for (Key k = 5; k < 60; k++) ASSERT_OK(DeleteOne(e.get(), t, k));

  EXPECT_EQ(e->dc().btree().height(), 1u);
  EXPECT_GT(e->dc().btree().stats().root_collapses, 0u);
  uint64_t rows = 0;
  ASSERT_OK(e->dc().btree().CheckWellFormed(&rows));
  EXPECT_EQ(rows, 5u);
  std::string v;
  for (Key k = 0; k < 5; k++) ASSERT_OK(e->Read(k, &v));

  // The collapsed tree grows again: splits work on the root leaf.
  const std::string val(o.value_size, 'y');
  for (Key k = 60; k < 120; k++) ASSERT_OK(InsertOne(e.get(), t, k, val));
  EXPECT_GT(e->dc().btree().height(), 1u);
  ASSERT_OK(e->dc().btree().CheckWellFormed(&rows));
  EXPECT_EQ(rows, 65u);
}

// ---------------------------------------------------------------------------
// Recovery.
// ---------------------------------------------------------------------------

/// The acceptance sweep: a deterministic op script whose window contains
/// leaf merges AND splits; crash after EVERY op boundary; recover under all
/// five methods at recovery_threads 1/2/4; the complete post-recovery disk
/// state (pages + catalog + allocator free-list) must be byte-identical.
TEST(SmoMergeRecovery, CrashAtEveryBoundaryIsByteIdenticalAcrossMethods) {
  const RecoveryMethod methods[] = {RecoveryMethod::kLog0,
                                    RecoveryMethod::kLog1,
                                    RecoveryMethod::kLog2,
                                    RecoveryMethod::kSql1,
                                    RecoveryMethod::kSql2};
  EngineOptions o = MergeOptions(300);

  // The op script: drain one leaf (merges as it empties), then fresh
  // inserts (a split, which reuses the freed page), then drain into the
  // next leaf. Every op is its own committed (flushed) transaction, so
  // every boundary is a legal crash point.
  struct Op {
    bool is_delete;
    Key key;
  };
  std::vector<Op> script;
  for (Key k = 27; k <= 53; k++) script.push_back({true, k});   // drain leaf
  for (Key k = 300; k < 330; k++) script.push_back({false, k});  // split
  for (Key k = 54; k <= 80; k++) script.push_back({true, k});   // drain next

  // Sanity: the full script performs both kinds of SMO.
  {
    std::unique_ptr<Engine> e;
    ASSERT_OK(Engine::Open(o, &e));
    Table t;
    ASSERT_OK(e->OpenDefaultTable(&t));
    ASSERT_OK(e->Checkpoint());
    const std::string v(o.value_size, 'z');
    for (const Op& op : script) {
      ASSERT_OK(op.is_delete ? DeleteOne(e.get(), t, op.key)
                             : InsertOne(e.get(), t, op.key, v));
    }
    ASSERT_GT(e->dc().btree().stats().merges, 0u);
    ASSERT_GT(e->dc().btree().stats().splits, 0u);
  }

  // Sweep a crash point across the window (every 4th boundary + the ends
  // keeps the runtime reasonable without losing the interesting states).
  for (size_t crash_at = 0; crash_at <= script.size();
       crash_at += (crash_at + 4 < script.size() ? 4 : 1)) {
    std::unique_ptr<Engine> e;
    ASSERT_OK(Engine::Open(o, &e));
    Table t;
    ASSERT_OK(e->OpenDefaultTable(&t));
    ASSERT_OK(e->Checkpoint());
    const std::string v(o.value_size, 'z');
    for (size_t i = 0; i < crash_at; i++) {
      ASSERT_OK(script[i].is_delete
                    ? DeleteOne(e.get(), t, script[i].key)
                    : InsertOne(e.get(), t, script[i].key, v));
    }
    e->SimulateCrash();
    Engine::StableSnapshot snap;
    ASSERT_OK(e->TakeStableSnapshot(&snap));

    StateImage reference;
    bool have_reference = false;
    for (RecoveryMethod m : methods) {
      for (uint32_t threads : {1u, 2u, 4u}) {
        EngineOptions ot = o;
        ot.recovery_threads = threads;
        std::unique_ptr<Engine> et;
        ASSERT_OK(Engine::Open(ot, &et));
        et->SimulateCrash();
        ASSERT_OK(et->RestoreStableSnapshot(snap));
        RecoveryStats st;
        ASSERT_OK(et->Recover(m, &st));
        uint64_t rows = 0;
        ASSERT_OK(et->dc().btree().CheckWellFormed(&rows));
        // Scan-complete row accounting makes the recovered counter EXACT,
        // not merely method-consistent.
        EXPECT_EQ(et->dc().btree().row_count(), rows)
            << RecoveryMethodName(m) << " x" << threads << " @crash "
            << crash_at;
        const StateImage state = CaptureState(et.get());
        if (!have_reference) {
          reference = state;
          have_reference = true;
        } else {
          ExpectSameState(state, reference,
                          std::string(RecoveryMethodName(m)) + " x" +
                              std::to_string(threads) + " @crash " +
                              std::to_string(crash_at));
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

/// Method equivalence on a workload whose crash window interleaves split
/// and merge SMOs organically (mixed churn), including an uncommitted tail.
TEST(SmoMergeRecovery, MethodEquivalenceWithInterleavedSplitMergeSmos) {
  EngineOptions o = SmallOptions();
  o.num_rows = 600;  // churn concentrated enough to drain whole leaves
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadConfig wc;
  wc.insert_fraction = 0.05;
  wc.delete_fraction = 0.60;
  wc.scan_fraction = 0.05;
  WorkloadDriver driver(e.get(), wc);
  ASSERT_OK(driver.RunOps(800));
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver.RunOps(900));
  ASSERT_OK(driver.RunOpsNoCommit(7));  // losers for undo
  e->tc().ForceLog();
  driver.OnCrash();
  e->SimulateCrash();

  ASSERT_GT(e->wal().stats().by_type[static_cast<size_t>(
                LogRecordType::kSmoMerge)],
            0u)
      << "churn produced no merges: the test is vacuous";
  ASSERT_GT(e->wal().stats().by_type[static_cast<size_t>(
                LogRecordType::kSmo)],
            0u);

  Engine::StableSnapshot snap;
  ASSERT_OK(e->TakeStableSnapshot(&snap));

  const RecoveryMethod methods[] = {RecoveryMethod::kLog0,
                                    RecoveryMethod::kLog1,
                                    RecoveryMethod::kLog2,
                                    RecoveryMethod::kSql1,
                                    RecoveryMethod::kSql2};
  StateImage reference;
  bool have_reference = false;
  for (RecoveryMethod m : methods) {
    for (uint32_t threads : {1u, 2u, 4u}) {
      EngineOptions ot = o;
      ot.recovery_threads = threads;
      std::unique_ptr<Engine> et;
      ASSERT_OK(Engine::Open(ot, &et));
      et->SimulateCrash();
      ASSERT_OK(et->RestoreStableSnapshot(snap));
      RecoveryStats st;
      ASSERT_OK(et->Recover(m, &st));
      uint64_t rows = 0;
      ASSERT_OK(et->dc().btree().CheckWellFormed(&rows));
      EXPECT_EQ(et->dc().btree().row_count(), rows)
          << RecoveryMethodName(m) << " x" << threads;
      const StateImage state = CaptureState(et.get());
      if (!have_reference) {
        reference = state;
        have_reference = true;
      } else {
        ExpectSameState(state, reference,
                        std::string(RecoveryMethodName(m)) + " x" +
                            std::to_string(threads));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(SmoMergeRecovery, FreeListSurvivesCheckpointAndCrash) {
  EngineOptions o = MergeOptions(300);
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  Table t;
  ASSERT_OK(e->OpenDefaultTable(&t));

  // Merge BEFORE the checkpoint: the free-list reaches recovery only
  // through the persisted catalog.
  for (Key k = 27; k <= 53; k++) ASSERT_OK(DeleteOne(e.get(), t, k));
  const std::vector<PageId> freed_before = e->dc().allocator().free_list();
  ASSERT_FALSE(freed_before.empty());
  ASSERT_OK(e->Checkpoint());
  // Merge AFTER the checkpoint: reaches recovery only through its record.
  for (Key k = 54; k <= 80; k++) ASSERT_OK(DeleteOne(e.get(), t, k));
  const std::vector<PageId> freed_all = e->dc().allocator().free_list();
  ASSERT_GT(freed_all.size(), freed_before.size());

  e->SimulateCrash();
  RecoveryStats st;
  ASSERT_OK(e->Recover(RecoveryMethod::kLog1, &st));
  EXPECT_EQ(e->dc().allocator().free_list(), freed_all)
      << "catalog-persisted and record-replayed frees must both survive";

  // And the recovered free-list actually feeds allocation.
  const PageId hwm = e->dc().allocator().next_page_id();
  const uint64_t splits_before = e->dc().btree().stats().splits;
  const std::string v(o.value_size, 'r');
  for (Key k = 300; k < 340; k++) {
    ASSERT_OK(InsertOne(e.get(), t, k, v));
    if (e->dc().btree().stats().splits > splits_before) break;
  }
  ASSERT_GT(e->dc().btree().stats().splits, splits_before);
  EXPECT_EQ(e->dc().allocator().next_page_id(), hwm);
  EXPECT_LT(e->dc().allocator().free_list().size(), freed_all.size());
}

/// Named regression (latent allocator bug flushed out by the delete-heavy
/// sweep): a split whose pages the DPT proves durable is skipped by SQL
/// redo — but the allocator high-water mark it carries must still be
/// applied, or a post-recovery Allocate() hands out a live page.
TEST(SmoMergeRecovery, DptSkippedSplitStillAdvancesAllocatorHwm) {
  EngineOptions o = MergeOptions(300);
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  Table t;
  ASSERT_OK(e->OpenDefaultTable(&t));
  ASSERT_OK(e->Checkpoint());
  const PageId hwm_at_ckpt = e->dc().allocator().next_page_id();

  // A split after the checkpoint raises the high-water mark.
  const std::string v(o.value_size, 'q');
  const uint64_t splits_before = e->dc().btree().stats().splits;
  for (Key k = 300; k < 340; k++) {
    ASSERT_OK(InsertOne(e.get(), t, k, v));
    if (e->dc().btree().stats().splits > splits_before) break;
  }
  ASSERT_GT(e->dc().btree().stats().splits, splits_before);
  const PageId hwm_after_split = e->dc().allocator().next_page_id();
  ASSERT_GT(hwm_after_split, hwm_at_ckpt);
  e->SimulateCrash();

  // Drive SQL redo directly with an EMPTY DPT — the state analysis builds
  // when every touched page was flushed and BW-pruned. The split's image
  // install is rightly skipped; the allocator bookkeeping must not be.
  ASSERT_OK(e->dc().OpenDatabase());
  ASSERT_EQ(e->dc().allocator().next_page_id(), hwm_at_ckpt);
  DirtyPageTable empty_dpt;
  RedoResult rr;
  ASSERT_OK(RunSqlRedo(&e->wal(), &e->dc(), e->wal().master().bckpt_lsn,
                       &empty_dpt, /*prefetch=*/false, o, 1, &rr));
  EXPECT_EQ(rr.smo_redone, 0u) << "empty DPT must skip the image install";
  EXPECT_EQ(e->dc().allocator().next_page_id(), hwm_after_split)
      << "skipped split left the allocator high-water mark stale";
}

Status UpdateOne(Engine* e, Table& t, Key k, const std::string& v) {
  Txn txn;
  DEUTERO_RETURN_NOT_OK(e->Begin(&txn));
  DEUTERO_RETURN_NOT_OK(txn.Update(t, k, v));
  return txn.Commit();
}

/// Insert fresh keys from `*next` on until the tree splits once.
void InsertUntilSplit(Engine* e, Table& t, Key* next) {
  const std::string v(e->options().value_size, 's');
  const uint64_t splits_before = e->dc().btree().stats().splits;
  while (e->dc().btree().stats().splits == splits_before && *next < 400) {
    ASSERT_OK(InsertOne(e, t, (*next)++, v));
  }
  ASSERT_GT(e->dc().btree().stats().splits, splits_before);
}

/// The kSmo records of the stable log from the redo start on.
std::vector<LogRecord> WindowSplits(Engine* e) {
  std::vector<LogRecord> splits;
  for (auto it = e->wal().NewIterator(e->wal().master().bckpt_lsn, false);
       it.Valid(); it.Next()) {
    if (it.record().type == LogRecordType::kSmo) {
      it.record().CopyTo(&splits.emplace_back());
    }
  }
  return splits;
}

/// TC-LSN of the last Δ-record on the stable log (the §4.3 tail boundary).
Lsn LastDeltaTcLsn(Engine* e) {
  Lsn last = kInvalidLsn;
  for (auto it = e->wal().NewIterator(e->wal().master().bckpt_lsn, false);
       it.Valid(); it.Next()) {
    if (it.record().type == LogRecordType::kDeltaRecord) {
      last = it.record().tc_lsn;
    }
  }
  return last;
}

/// Recover a fresh engine from `snap` with `m` at `threads`.
void RecoverFresh(const EngineOptions& o, const Engine::StableSnapshot& snap,
                  RecoveryMethod m, uint32_t threads,
                  std::unique_ptr<Engine>* out, RecoveryStats* st) {
  EngineOptions ot = o;
  ot.recovery_threads = threads;
  ASSERT_OK(Engine::Open(ot, out));
  (*out)->SimulateCrash();
  ASSERT_OK((*out)->RestoreStableSnapshot(snap));
  ASSERT_OK((*out)->Recover(m, st));
}

// ---------------------------------------------------------------------------
// Index extents: the allocator's cursor is recovery state.
// ---------------------------------------------------------------------------

/// Geometry for index-extent tests: 256-byte pages (6-row leaves, 18-entry
/// internal nodes), so ascending inserts split an internal page every few
/// dozen operations. 80 rows bulk-load 16 leaves under a level-1 root.
EngineOptions ExtentOptions() {
  EngineOptions o = MergeOptions(80);
  o.page_size = 256;
  return o;
}

/// Insert ascending keys into `t` from `*next` on until the allocator hands
/// out an internal page (its index extent cursor moves).
void InsertUntilInternalSplit(Engine* e, Table& t, Key* next) {
  const std::string v(e->options().value_size, 'x');
  const IndexExtent before = e->dc().allocator().index_extent();
  const Key limit = *next + 1000;
  while (e->dc().allocator().index_extent() == before) {
    ASSERT_LT(*next, limit) << "no internal split";
    ASSERT_OK(InsertOne(e, t, (*next)++, v));
  }
}

/// Named regression: a split the DPT proves durable is skipped by SQL
/// redo, but the index extent cursor its record carries must still be
/// replayed (with the high-water mark, by the same allocator call). The
/// checkpoint persisted a cursor in the middle of an extent; if redo left
/// it there, the next internal split after recovery would be handed the
/// pid of the live internal page the skipped split created.
TEST(SmoMergeRecovery, DptSkippedSplitStillAdvancesIndexExtent) {
  const EngineOptions o = ExtentOptions();
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  Table t;
  ASSERT_OK(e->OpenDefaultTable(&t));

  // The root split reserves an extent and takes two of its pids; the
  // checkpoint persists the cursor with the rest of the extent free.
  Key next = 80;
  ASSERT_NO_FATAL_FAILURE(InsertUntilInternalSplit(e.get(), t, &next));
  ASSERT_OK(e->Checkpoint());
  const IndexExtent at_ckpt = e->dc().allocator().index_extent();
  ASSERT_LT(at_ckpt.next + 1, at_ckpt.end) << "extent used up at checkpoint";

  // An internal split after the checkpoint takes the next pid of the same
  // extent. Everything is flushed, so an empty DPT is the right one.
  ASSERT_NO_FATAL_FAILURE(InsertUntilInternalSplit(e.get(), t, &next));
  const IndexExtent after_split = e->dc().allocator().index_extent();
  ASSERT_EQ(after_split.end, at_ckpt.end);
  ASSERT_EQ(after_split.next, at_ckpt.next + 1);
  const PageId live = at_ckpt.next;  // the split's new internal page
  ASSERT_OK(e->dc().pool().FlushAllDirty());
  e->SimulateCrash();

  ASSERT_OK(e->dc().OpenDatabase());
  ASSERT_TRUE(e->dc().allocator().index_extent() == at_ckpt);
  DirtyPageTable empty_dpt;
  RedoResult rr;
  ASSERT_OK(RunSqlRedo(&e->wal(), &e->dc(), e->wal().master().bckpt_lsn,
                       &empty_dpt, /*prefetch=*/false, o, 1, &rr));
  EXPECT_EQ(rr.smo_redone, 0u) << "empty DPT must skip the image install";
  EXPECT_TRUE(e->dc().allocator().index_extent() == after_split)
      << "skipped split left the index extent cursor at "
      << e->dc().allocator().index_extent().next;

  // The next internal split after recovery gets a fresh pid, not the live
  // page: drive the tree directly (the TC is not recovered here).
  BTree& tree = e->dc().btree();
  const std::string v(o.value_size, 'n');
  const IndexExtent before = e->dc().allocator().index_extent();
  const PageId handed_out = before.next;
  std::vector<uint8_t> image(o.page_size);
  e->dc().disk().ReadImage(live, image.data());
  ASSERT_EQ(PageView(image.data(), o.page_size).type(), PageType::kInternal);
  for (Lsn lsn = e->wal().next_lsn() + 1;
       e->dc().allocator().index_extent() == before; lsn++) {
    ASSERT_LT(next, Key{10'000});
    PageId pid = kInvalidPageId;
    ASSERT_OK(tree.PrepareInsert(next, &pid));
    ASSERT_OK(tree.Apply(pid, LogRecordType::kInsert, next++, v, lsn));
  }
  EXPECT_NE(handed_out, live)
      << "a post-recovery internal split took the live page " << live;
  uint64_t rows = 0;
  EXPECT_OK(tree.CheckWellFormed(&rows));
}

/// One operation of an index-extent crash script. kFlush writes every
/// dirty page and emits the Δ- and BW-records that say so, so the redo
/// passes' DPTs prove the SMOs before it durable and skip their images.
struct ExtentOp {
  enum Kind { kInsert, kUpdate, kDelete, kFlush } kind;
  TableId table;
  Key key;
};

Status RunExtentOp(Engine* e, const ExtentOp& op) {
  if (op.kind == ExtentOp::kFlush) {
    // Close the open Δ/BW interval first: the flush's records then carry a
    // first-write LSN past every op before it.
    e->dc().monitor().ForceEmit();
    DEUTERO_RETURN_NOT_OK(e->dc().pool().FlushAllDirty());
    e->dc().monitor().ForceEmit();
    return Status::OK();
  }
  Table t;
  DEUTERO_RETURN_NOT_OK(e->OpenTable(op.table, &t));
  const std::string v(t.value_size(), static_cast<char>('a' + op.key % 26));
  switch (op.kind) {
    case ExtentOp::kInsert:
      return InsertOne(e, t, op.key, v);
    case ExtentOp::kUpdate:
      return UpdateOne(e, t, op.key, v);
    case ExtentOp::kDelete:
      return DeleteOne(e, t, op.key);
    case ExtentOp::kFlush:
      break;
  }
  return Status::InvalidArgument("bad op");
}

/// Whether the page on `table`'s rightmost path at `level` is a full
/// internal node: an ascending insert then splits it (preventive splitting
/// splits full nodes on the way down).
bool RightmostFull(Engine* e, TableId table, uint8_t level) {
  BTree* tree = e->dc().FindTable(table);
  PageHandle h;
  EXPECT_OK(e->dc().pool().Get(tree->root_pid(), PageClass::kIndex, &h));
  while (h.view().type() == PageType::kInternal && h.view().level() > level) {
    InternalNodeView node(h.view());
    const PageId child = node.ChildAt(node.count() - 1);
    h.Release();
    EXPECT_OK(e->dc().pool().Get(child, PageClass::kIndex, &h));
  }
  return h.view().type() == PageType::kInternal &&
         h.view().level() == level && InternalNodeView(h.view()).full();
}

/// The acceptance sweep for index extents. Extents are two pids long here
/// (max_batch_pages 2), so one short window holds both hard cases:
///  * an internal split that finds the extent used up and opens a new one;
///  * an internal root split whose two new pages straddle two extents (the
///    left one takes the last pid of one, the right one opens the next).
/// The window flushes every page after the first, so redo skips that
/// split's images by the DPT and must still replay its cursor.
/// Crash after every operation of the window, recover under all five
/// methods at recovery_threads 1/2/4, then crash again at once and recover
/// again with no checkpoint in between: the full disk, the free-list, the
/// high-water mark and the extent cursor must be byte-identical throughout.
TEST(SmoMergeRecovery, CrashAcrossIndexExtentsIsByteIdenticalAcrossMethods) {
  EngineOptions o = ExtentOptions();
  o.io.max_batch_pages = 2;
  constexpr TableId kT1 = 1;  // the default table, bulk-loaded
  constexpr TableId kT2 = 2;  // created empty, grown by the prefix

  // Build the script on a probe engine, checking each phase's effect.
  std::vector<ExtentOp> prefix;  // runs before the checkpoint
  std::vector<ExtentOp> window;  // crash points
  {
    std::unique_ptr<Engine> e;
    ASSERT_OK(Engine::Open(o, &e));
    ASSERT_OK(e->CreateTable(kT2, o.value_size));
    const PageAllocator& alloc = e->dc().allocator();
    auto run = [&](std::vector<ExtentOp>* ops, ExtentOp op) {
      ops->push_back(op);
      return RunExtentOp(e.get(), op);
    };
    // T2 grows to a full level-1 root: its next insert splits the root.
    Key k2 = 0;
    while (!RightmostFull(e.get(), kT2, 1)) {
      ASSERT_LT(k2, Key{500});
      ASSERT_OK(run(&prefix, {ExtentOp::kInsert, kT2, k2++}));
    }
    ASSERT_TRUE(alloc.index_extent() == IndexExtent()) << "T2 split early";
    // T1's root split opens the first extent and uses it up; then T1 grows
    // until its rightmost level-1 node is full.
    Key k1 = 80;
    while (!RightmostFull(e.get(), kT1, 1) ||
           e->dc().btree().height() < 3) {
      ASSERT_LT(k1, Key{2000});
      ASSERT_OK(run(&prefix, {ExtentOp::kInsert, kT1, k1++}));
    }
    const IndexExtent first = alloc.index_extent();
    ASSERT_NE(first.end, 0u);
    ASSERT_EQ(first.next, first.end) << "the first extent is not used up";
    ASSERT_OK(e->Checkpoint());

    // The window. Updates and a delete on both sides of the SMOs.
    ASSERT_OK(run(&window, {ExtentOp::kUpdate, kT1, 3}));
    ASSERT_OK(run(&window, {ExtentOp::kUpdate, kT2, 1}));
    // T1's level-1 split finds the extent used up and opens a new one.
    const uint32_t t1_height = e->dc().btree().height();
    ASSERT_OK(run(&window, {ExtentOp::kInsert, kT1, k1++}));
    const IndexExtent opened = alloc.index_extent();
    ASSERT_EQ(e->dc().btree().height(), t1_height);
    ASSERT_GT(opened.end, first.end) << "no extent opened";
    ASSERT_EQ(opened.next + 1, opened.end) << "one pid must be left";
    ASSERT_OK(run(&window, {ExtentOp::kFlush, kT1, 0}));
    ASSERT_OK(run(&window, {ExtentOp::kInsert, kT1, k1++}));
    ASSERT_OK(run(&window, {ExtentOp::kDelete, kT1, 5}));
    // T2's root split takes that last pid and opens the next extent.
    BTree* t2 = e->dc().FindTable(kT2);
    const uint32_t t2_height = t2->height();
    ASSERT_OK(run(&window, {ExtentOp::kInsert, kT2, k2++}));
    ASSERT_EQ(t2->height(), t2_height + 1) << "T2's root did not split";
    const IndexExtent straddled = alloc.index_extent();
    ASSERT_GT(straddled.end, opened.end) << "the root split did not straddle";
    ASSERT_EQ(straddled.next + 1, straddled.end);
    for (int i = 0; i < 3; i++) {
      ASSERT_OK(run(&window, {ExtentOp::kInsert, i % 2 ? kT1 : kT2,
                              i % 2 ? k1++ : k2++}));
    }
    ASSERT_OK(run(&window, {ExtentOp::kUpdate, kT2, k2 - 1}));
  }

  const RecoveryMethod methods[] = {RecoveryMethod::kLog0,
                                    RecoveryMethod::kLog1,
                                    RecoveryMethod::kLog2,
                                    RecoveryMethod::kSql1,
                                    RecoveryMethod::kSql2};
  for (size_t crash_at = 0; crash_at <= window.size(); crash_at++) {
    std::unique_ptr<Engine> e;
    ASSERT_OK(Engine::Open(o, &e));
    ASSERT_OK(e->CreateTable(kT2, o.value_size));
    for (const ExtentOp& op : prefix) ASSERT_OK(RunExtentOp(e.get(), op));
    ASSERT_OK(e->Checkpoint());
    for (size_t i = 0; i < crash_at; i++) {
      ASSERT_OK(RunExtentOp(e.get(), window[i]));
    }
    const IndexExtent at_crash = e->dc().allocator().index_extent();
    e->SimulateCrash();
    Engine::StableSnapshot snap;
    ASSERT_OK(e->TakeStableSnapshot(&snap));

    StateImage reference;
    bool have_reference = false;
    for (RecoveryMethod m : methods) {
      for (uint32_t threads : {1u, 2u, 4u}) {
        std::unique_ptr<Engine> et;
        RecoveryStats st;
        ASSERT_NO_FATAL_FAILURE(RecoverFresh(o, snap, m, threads, &et, &st));
        for (int round = 1; round <= 2; round++) {
          const std::string label =
              std::string(RecoveryMethodName(m)) + " x" +
              std::to_string(threads) + " @crash " + std::to_string(crash_at) +
              " recovery " + std::to_string(round);
          for (TableId id : {kT1, kT2}) {
            uint64_t rows = 0;
            ASSERT_OK(et->dc().FindTable(id)->CheckWellFormed(&rows));
            EXPECT_EQ(et->dc().FindTable(id)->row_count(), rows) << label;
          }
          const StateImage state = CaptureState(et.get());
          if (!have_reference) {
            // Every op committed alone and forced the log: the recovered
            // cursor is the one at the crash.
            EXPECT_TRUE(state.index_extent == at_crash) << label;
            reference = state;
            have_reference = true;
          } else {
            ExpectSameState(state, reference, label);
            if (::testing::Test::HasFatalFailure()) return;
          }
          if (round == 2) break;
          // Crash again at once and recover again: no checkpoint between.
          et->SimulateCrash();
          ASSERT_OK(et->Recover(m, &st));
        }
      }
    }
  }
}

/// The DC pass filters its SMO replay by the Δ-record DPT (Algorithm 5's
/// test). A split whose pages were flushed before the last Δ-record is
/// proven durable: Log1 and Log2 fetch none of its pages in the DC pass,
/// and still destage exactly the bytes Log0 and Sql1 do.
TEST(SmoMergeRecovery, DcPassSkipsSmoImagesTheDptProvesDurable) {
  EngineOptions o = MergeOptions(300);
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  Table t;
  ASSERT_OK(e->OpenDefaultTable(&t));
  ASSERT_OK(e->Checkpoint());

  // A split, every page flushed, then a Δ-record whose WrittenSet prunes
  // the split's pages from the DC-DPT. The committed update after it makes
  // the Δ-record stable and lies on a leaf the split did not touch.
  Key next = 300;
  ASSERT_NO_FATAL_FAILURE(InsertUntilSplit(e.get(), t, &next));
  ASSERT_OK(e->dc().pool().FlushAllDirty());
  e->dc().monitor().ForceEmit();
  ASSERT_OK(UpdateOne(e.get(), t, 3, std::string(o.value_size, 'u')));
  e->SimulateCrash();

  const std::vector<LogRecord> splits = WindowSplits(e.get());
  ASSERT_EQ(splits.size(), 1u);
  const LogRecord& split = splits[0];
  ASSERT_LT(split.lsn, LastDeltaTcLsn(e.get())) << "the split is in the tail";
  Engine::StableSnapshot snap;
  ASSERT_OK(e->TakeStableSnapshot(&snap));

  // The DC pass alone: with no preload (Log1) it reads no page at all;
  // with the preload (Log2) it reads only what the preload itself reads.
  const Lsn start = e->wal().master().bckpt_lsn;
  for (const bool preload : {false, true}) {
    ASSERT_OK(e->RestoreStableSnapshot(snap));
    ASSERT_OK(e->dc().OpenDatabase());
    e->dc().pool().ResetStats();
    DcRecoveryResult dcr;
    ASSERT_OK(RunDcRecovery(&e->wal(), &e->dc(), start, o.dpt_mode,
                            /*build_dpt=*/true, preload, &dcr));
    EXPECT_EQ(dcr.smo_pages_skipped, split.smo_pages.size());
    EXPECT_EQ(dcr.smo_redone, 0u);
    const BufferPool::Stats pass = e->dc().pool().stats();
    uint64_t preload_fetches = 0;
    if (preload) {
      e->dc().pool().Reset();
      e->dc().pool().ResetStats();
      ASSERT_OK(e->dc().PreloadIndex());
      preload_fetches = e->dc().pool().stats().index_fetches;
    } else {
      for (const SmoPageImage& p : split.smo_pages) {
        EXPECT_FALSE(e->dc().pool().IsResidentOrPending(p.pid))
            << "the DC pass fetched split page " << p.pid;
      }
    }
    EXPECT_EQ(pass.data_fetches, 0u) << "preload " << preload;
    EXPECT_EQ(pass.index_fetches, preload_fetches) << "preload " << preload;
    e->SimulateCrash();
  }

  // Whole recoveries: the skipped installs change no destaged byte.
  StateImage reference;
  bool have_reference = false;
  for (RecoveryMethod m : {RecoveryMethod::kLog0, RecoveryMethod::kSql1,
                           RecoveryMethod::kLog1, RecoveryMethod::kLog2}) {
    std::unique_ptr<Engine> et;
    RecoveryStats st;
    ASSERT_NO_FATAL_FAILURE(RecoverFresh(o, snap, m, 1, &et, &st));
    if (m == RecoveryMethod::kLog1 || m == RecoveryMethod::kLog2) {
      EXPECT_EQ(st.smo_pages_skipped, split.smo_pages.size())
          << RecoveryMethodName(m);
    }
    const StateImage state = CaptureState(et.get());
    if (!have_reference) {
      reference = state;
      have_reference = true;
    } else {
      ExpectSameState(state, reference, RecoveryMethodName(m));
    }
  }
}

/// The negative side of the filter: a split logged after the last
/// Δ-record is in the log's tail (§4.3), where no Δ-record vouches for its
/// pages. Its images must still be installed, or the recovered tree would
/// lack the split.
TEST(SmoMergeRecovery, TailSmoAfterLastDeltaIsStillInstalled) {
  EngineOptions o = MergeOptions(300);
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  Table t;
  ASSERT_OK(e->OpenDefaultTable(&t));
  ASSERT_OK(e->Checkpoint());

  // Window work and a Δ-record, then a split (and inserts into both of its
  // leaves) that no later Δ-record covers. Nothing is flushed.
  for (Key k = 0; k < 5; k++) {
    ASSERT_OK(UpdateOne(e.get(), t, k, std::string(o.value_size, 'u')));
  }
  e->dc().monitor().ForceEmit();
  Key next = 300;
  ASSERT_NO_FATAL_FAILURE(InsertUntilSplit(e.get(), t, &next));
  const std::string v(o.value_size, 't');
  for (int i = 0; i < 5; i++) ASSERT_OK(InsertOne(e.get(), t, next++, v));
  e->SimulateCrash();

  const std::vector<LogRecord> splits = WindowSplits(e.get());
  ASSERT_EQ(splits.size(), 1u);
  const Lsn last_delta = LastDeltaTcLsn(e.get());
  ASSERT_NE(last_delta, kInvalidLsn) << "no Δ-record: the window is all tail";
  ASSERT_GE(splits[0].lsn, last_delta) << "the split is not in the tail";
  Engine::StableSnapshot snap;
  ASSERT_OK(e->TakeStableSnapshot(&snap));

  std::unique_ptr<Engine> e0;
  RecoveryStats st0;
  ASSERT_NO_FATAL_FAILURE(
      RecoverFresh(o, snap, RecoveryMethod::kLog0, 1, &e0, &st0));
  const StateImage reference = CaptureState(e0.get());

  for (RecoveryMethod m : {RecoveryMethod::kLog1, RecoveryMethod::kLog2}) {
    for (uint32_t threads : {1u, 2u}) {
      const std::string label = std::string(RecoveryMethodName(m)) + " x" +
                                std::to_string(threads);
      std::unique_ptr<Engine> et;
      RecoveryStats st;
      ASSERT_NO_FATAL_FAILURE(RecoverFresh(o, snap, m, threads, &et, &st));
      EXPECT_EQ(st.smo_pages_skipped, 0u) << label;
      EXPECT_EQ(st.smo_redone, 1u) << label;
      uint64_t rows = 0;
      ASSERT_OK(et->dc().btree().CheckWellFormed(&rows));
      EXPECT_EQ(rows, 300u + (next - 300)) << label;
      std::string got;
      for (Key k = 300; k < next; k++) ASSERT_OK(et->Read(k, &got));
      ExpectSameState(CaptureState(et.get()), reference, label);
    }
  }
}

/// The replay re-reads each structure record and pays for it as the scan
/// does: every log page the record spans. A split's page images can span
/// several log pages, so one charged page per record would under-count.
/// One cursor seeks from record to record, so a page two records share is
/// charged once across the replay: the replay reads exactly the distinct
/// log pages its records span. 256-byte log pages are smaller than one
/// split's page images; at 8 KB the splits share a page.
TEST(SmoMergeRecovery, DcReplayChargesEveryLogPageARecordSpans) {
  bool spans_pages = false;
  bool shares_pages = false;
  for (const uint32_t log_page_size : {256u, 8192u}) {
    EngineOptions o = MergeOptions(300);
    o.log_page_size = log_page_size;
    std::unique_ptr<Engine> e;
    ASSERT_OK(Engine::Open(o, &e));
    Table t;
    ASSERT_OK(e->OpenDefaultTable(&t));
    ASSERT_OK(e->Checkpoint());
    Key next = 300;
    for (int i = 0; i < 2; i++) {
      ASSERT_NO_FATAL_FAILURE(InsertUntilSplit(e.get(), t, &next));
    }
    e->dc().monitor().ForceEmit();
    ASSERT_OK(UpdateOne(e.get(), t, 3, std::string(o.value_size, 'u')));
    e->SimulateCrash();

    // Log pages each structure record spans; a record ends where the next
    // one begins.
    const Lsn start = e->wal().master().bckpt_lsn;
    uint64_t structure_records = 0;
    uint64_t span_pages = 0;
    std::set<uint64_t> distinct_pages;
    for (auto it = e->wal().NewIterator(start, false); it.Valid();) {
      const LogRecordType type = it.record().type;
      const Lsn lsn = it.lsn();
      it.Next();
      if (type == LogRecordType::kSmo || type == LogRecordType::kSmoMerge ||
          type == LogRecordType::kCreateTable) {
        structure_records++;
        const uint64_t first = lsn / log_page_size;
        const uint64_t last = (it.lsn() - 1) / log_page_size;
        span_pages += last - first + 1;
        for (uint64_t page = first; page <= last; page++) {
          distinct_pages.insert(page);
        }
      }
    }
    ASSERT_GT(structure_records, 0u);
    spans_pages |= span_pages > structure_records;
    shares_pages |= distinct_pages.size() < span_pages;
    Engine::StableSnapshot snap;
    ASSERT_OK(e->TakeStableSnapshot(&snap));

    // Log0 replays inline during its scan. The pass with a DPT scans the
    // same pages, then re-reads every structure record.
    uint64_t log_pages[2] = {0, 0};
    for (const bool build_dpt : {false, true}) {
      ASSERT_OK(e->RestoreStableSnapshot(snap));
      ASSERT_OK(e->dc().OpenDatabase());
      DcRecoveryResult dcr;
      ASSERT_OK(RunDcRecovery(&e->wal(), &e->dc(), start, o.dpt_mode,
                              build_dpt, /*preload_index=*/false, &dcr));
      log_pages[build_dpt ? 1 : 0] = dcr.log_pages;
      e->SimulateCrash();
    }
    EXPECT_EQ(log_pages[1], log_pages[0] + distinct_pages.size())
        << log_page_size << "-byte log pages";
  }
  EXPECT_TRUE(spans_pages) << "no record spans two log pages";
  EXPECT_TRUE(shares_pages) << "no two records share a log page";
}

/// Named regression (code review): a Δ-record logged AFTER a merge can
/// still list the freed victim (its DirtySet accumulated the merge-time
/// dirtying), re-adding it to the Log2 DPT after the merge replay removed
/// it — and the PF-list prefetcher then faulted the free page back into
/// the pool, where a post-recovery split re-allocating the pid collided
/// with the resident frame. The DC pass now purges free-listed pids from
/// the DPT it hands to redo.
TEST(SmoMergeRecovery, PrefetchNeverResurrectsAFreedVictim) {
  EngineOptions o = MergeOptions(300);
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  Table t;
  ASSERT_OK(e->OpenDefaultTable(&t));
  ASSERT_OK(e->Checkpoint());

  // Merge (frees a page), then force a Δ-record carrying the merge-time
  // DirtySet — victim included — AFTER the kSmoMerge record.
  for (Key k = 27; k <= 53; k++) ASSERT_OK(DeleteOne(e.get(), t, k));
  ASSERT_FALSE(e->dc().allocator().free_list().empty());
  const PageId victim = e->dc().allocator().free_list().back();
  e->dc().monitor().ForceEmit();
  const std::string v(o.value_size, 'p');
  for (Key k = 300; k < 310; k++) ASSERT_OK(InsertOne(e.get(), t, k, v));
  e->SimulateCrash();

  RecoveryStats st;
  ASSERT_OK(e->Recover(RecoveryMethod::kLog2, &st));
  EXPECT_FALSE(e->dc().pool().IsResidentOrPending(victim))
      << "recovery faulted the freed page back into the pool";
  ASSERT_TRUE(e->dc().allocator().IsFree(victim));

  // The next split reuses the pid; with a resident stale frame this
  // asserted (Debug) / double-mapped the page table (Release).
  const uint64_t splits_before = e->dc().btree().stats().splits;
  for (Key k = 310; k < 350; k++) {
    ASSERT_OK(InsertOne(e.get(), t, k, v));
    if (e->dc().btree().stats().splits > splits_before) break;
  }
  ASSERT_GT(e->dc().btree().stats().splits, splits_before);
  uint64_t rows = 0;
  ASSERT_OK(e->dc().btree().CheckWellFormed(&rows));
}

/// Named regression (code review): recovering, crashing again WITHOUT an
/// intervening checkpoint, and recovering again must keep num_rows exact.
/// The end-of-recovery catalog persist covers the whole log while the
/// master still names the pre-crash checkpoint; without the catalog's
/// rows_covered_lsn stamp, the second recovery re-added every windowed
/// delta on top of counters that already included them.
TEST(SmoMergeRecovery, BackToBackRecoveriesKeepRowCountExact) {
  EngineOptions o = MergeOptions(300);
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  Table t;
  ASSERT_OK(e->OpenDefaultTable(&t));
  ASSERT_OK(e->Checkpoint());
  for (Key k = 27; k <= 53; k++) ASSERT_OK(DeleteOne(e.get(), t, k));
  const std::string v(o.value_size, 'w');
  for (Key k = 300; k < 320; k++) ASSERT_OK(InsertOne(e.get(), t, k, v));

  for (RecoveryMethod m :
       {RecoveryMethod::kLog1, RecoveryMethod::kSql1}) {
    e->SimulateCrash();
    RecoveryStats st;
    ASSERT_OK(e->Recover(m, &st));
    uint64_t rows = 0;
    ASSERT_OK(e->dc().btree().CheckWellFormed(&rows));
    ASSERT_EQ(rows, 300u - 27u + 20u);
    EXPECT_EQ(e->dc().btree().row_count(), rows)
        << RecoveryMethodName(m) << " after repeated recovery";
  }
}

// ---------------------------------------------------------------------------
// The delete-heavy churn invariant (acceptance criterion).
// ---------------------------------------------------------------------------

TEST(SmoMergeChurn, FiftyPercentDeleteChurnLeavesNoEmptyLeaves) {
  EngineOptions o = SmallOptions();
  o.num_rows = 1500;  // 2-level tree: every leaf parent can collapse/merge
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadConfig wc;
  wc.delete_fraction = 0.5;
  wc.scan_fraction = 0.05;
  wc.seed = 31;
  WorkloadDriver driver(e.get(), wc);
  ASSERT_OK(driver.RunOps(4000));
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver.RunOps(4000));

  EXPECT_GT(e->dc().btree().stats().merges, 0u);
  uint64_t empty = 0;
  ASSERT_OK(e->dc().btree().CountEmptyLeaves(&empty));
  EXPECT_EQ(empty, 0u)
      << "delete churn stranded empty leaves on the sibling chain";
  uint64_t rows = 0;
  ASSERT_OK(e->dc().btree().CheckWellFormed(&rows));
  EXPECT_EQ(rows, e->dc().btree().row_count())
      << "merge SMOs must not disturb the row counter";

  // Oracle-checked range scans across the churned key space: the chain
  // must surface exactly the live keys.
  uint64_t seen = 0;
  ASSERT_OK(driver.VerifyScan(0, o.num_rows - 1, &seen));
  EXPECT_GT(seen, 0u);
  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(0, &checked));
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace deutero
