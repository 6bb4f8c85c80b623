// DPT construction semantics on hand-crafted logs:
//  - Algorithm 3 (SQL Server analysis with BW pruning),
//  - Algorithm 4 (logical DPT from Δ-records) and its App. D variants,
//  - ATT maintenance and the PF-list's claim order.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dc/data_component.h"
#include "recovery/analysis.h"
#include "recovery/prefetch.h"
#include "sim/clock.h"
#include "wal/log_manager.h"

namespace deutero {
namespace {

class DptConstructionTest : public ::testing::Test {
 protected:
  DptConstructionTest() : log_(&clock_, 8192, 0.0) {
    EngineOptions o;
    o.page_size = 512;
    o.cache_pages = 32;
    dc_ = std::make_unique<DataComponent>(&clock_, &log_, o);
    LogRecord b;
    b.type = LogRecordType::kBeginCheckpoint;
    bckpt_ = log_.Append(b);
  }

  Lsn Update(TxnId txn, Key key, PageId pid) {
    LogRecord r;
    r.type = LogRecordType::kUpdate;
    r.txn_id = txn;
    r.table_id = 1;
    r.key = key;
    r.after = "x";
    r.pid = pid;
    return log_.Append(r);
  }

  Lsn Bw(std::vector<PageId> written, Lsn fw) {
    LogRecord r;
    r.type = LogRecordType::kBwRecord;
    r.written_set = std::move(written);
    r.fw_lsn = fw;
    return log_.Append(r);
  }

  Lsn Delta(std::vector<PageId> dirty, std::vector<PageId> written, Lsn fw,
            uint32_t first_dirty, Lsn tc_lsn, bool has_fw = true,
            std::vector<Lsn> dirty_lsns = {}) {
    LogRecord r;
    r.type = LogRecordType::kDeltaRecord;
    r.dirty_set = std::move(dirty);
    r.written_set = std::move(written);
    r.fw_lsn = fw;
    r.first_dirty = first_dirty;
    r.tc_lsn = tc_lsn;
    r.has_fw_fields = has_fw;
    r.dirty_lsns = std::move(dirty_lsns);
    return log_.Append(r);
  }

  /// A structure record (kSmo or kSmoMerge of `victim`) over blank page
  /// images of `pids`: the DC pass's replay needs only their pids and size.
  Lsn Structure(LogRecordType type, PageId victim, std::vector<PageId> pids) {
    LogRecord r;
    r.type = type;
    r.pid = victim;
    r.alloc_hwm = 64;
    const std::string blank(dc_->options().page_size, '\0');
    for (PageId pid : pids) r.smo_pages.push_back({pid, blank});
    return log_.Append(r);
  }

  Lsn TxnCtl(LogRecordType type, TxnId txn) {
    LogRecord r;
    r.type = type;
    r.txn_id = txn;
    return log_.Append(r);
  }

  SqlAnalysisResult Sql() {
    log_.Flush();
    SqlAnalysisResult out;
    EXPECT_TRUE(RunSqlAnalysis(&log_, bckpt_, &out).ok());
    return out;
  }

  DcRecoveryResult Dc(DptMode mode) {
    log_.Flush();
    DcRecoveryResult out;
    EXPECT_TRUE(
        RunDcRecovery(&log_, dc_.get(), bckpt_, mode, true, false, &out).ok());
    return out;
  }

  SimClock clock_;
  LogManager log_;
  std::unique_ptr<DataComponent> dc_;
  Lsn bckpt_ = kInvalidLsn;
};

// ---------------------------------------------------------------------------
// Algorithm 3 (SQL analysis)
// ---------------------------------------------------------------------------

TEST_F(DptConstructionTest, SqlFirstMentionSetsRlsnLaterMentionsSetLastLsn) {
  const Lsn l1 = Update(1, 10, 100);
  const Lsn l2 = Update(1, 11, 100);
  auto r = Sql();
  ASSERT_EQ(r.dpt.size(), 1u);
  const auto* e = r.dpt.Find(100);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->rlsn, l1);
  EXPECT_EQ(e->last_lsn, l2);
}

TEST_F(DptConstructionTest, SqlBwPruneRemovesFlushedAfterLastUpdate) {
  const Lsn l1 = Update(1, 10, 100);
  Update(1, 11, 101);
  Bw({100}, /*fw=*/l1 + 1000);  // 100's lastLSN <= FW-LSN: flushed clean
  auto r = Sql();
  EXPECT_EQ(r.dpt.Find(100), nullptr);
  EXPECT_NE(r.dpt.Find(101), nullptr);
  EXPECT_EQ(r.bw_records_seen, 1u);
}

TEST_F(DptConstructionTest, SqlBwPruneBumpsRlsnWhenNotRemovable) {
  const Lsn l1 = Update(1, 10, 100);
  const Lsn fw = l1 + 1;             // between the two updates
  const Lsn l2 = Update(1, 12, 100);  // lastLSN > FW-LSN: stays
  Bw({100}, fw);
  auto r = Sql();
  const auto* e = r.dpt.Find(100);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->rlsn, fw);  // rLSN raised to FW-LSN (Alg. 3 line 17-18)
  EXPECT_EQ(e->last_lsn, l2);
}

TEST_F(DptConstructionTest, SqlBwForUnknownPidIsIgnored) {
  Update(1, 10, 100);
  Bw({999}, 50);
  auto r = Sql();
  EXPECT_EQ(r.dpt.size(), 1u);
}

TEST_F(DptConstructionTest, SqlAttTracksLosersOnly) {
  TxnCtl(LogRecordType::kTxnBegin, 5);
  Update(5, 1, 100);
  TxnCtl(LogRecordType::kTxnBegin, 6);
  const Lsn u6 = Update(6, 2, 101);
  TxnCtl(LogRecordType::kTxnCommit, 5);
  auto r = Sql();
  EXPECT_EQ(r.att.size(), 1u);
  ASSERT_TRUE(r.att.count(6));
  EXPECT_EQ(r.att.at(6), u6);
  EXPECT_EQ(r.max_txn_id, 6u);
}

TEST_F(DptConstructionTest, SqlDeltaRecordsAreCountedButIgnored) {
  Delta({55, 56}, {}, 0, 2, 10);
  auto r = Sql();
  EXPECT_EQ(r.dpt.size(), 0u);
  EXPECT_EQ(r.delta_records_seen, 1u);
}

// ---------------------------------------------------------------------------
// Algorithm 4 (logical DPT)
// ---------------------------------------------------------------------------

TEST_F(DptConstructionTest, LogicalNoFlushUsesRsspLsnAsRlsn) {
  Delta({10, 11}, {}, kInvalidLsn, /*first_dirty=*/2, /*tc_lsn=*/900);
  auto r = Dc(DptMode::kStandard);
  ASSERT_EQ(r.dpt.size(), 2u);
  // "For the first Δ-record after the RSSP, we use rsspLSN" (§4.2).
  EXPECT_EQ(r.dpt.Find(10)->rlsn, bckpt_);
  EXPECT_EQ(r.dpt.Find(11)->rlsn, bckpt_);
  EXPECT_EQ(r.last_delta_tc_lsn, 900u);
}

TEST_F(DptConstructionTest, LogicalFirstDirtySplitsRlsnAssignment) {
  // PIDs 10,11 dirtied before the first write (index < 2); 12 after.
  Delta({10, 11, 12}, {}, /*fw=*/500, /*first_dirty=*/2, /*tc_lsn=*/900);
  auto r = Dc(DptMode::kStandard);
  EXPECT_EQ(r.dpt.Find(10)->rlsn, bckpt_);
  EXPECT_EQ(r.dpt.Find(11)->rlsn, bckpt_);
  EXPECT_EQ(r.dpt.Find(12)->rlsn, 500u);  // FW-LSN (Alg. 4 line 14)
}

TEST_F(DptConstructionTest, LogicalSecondDeltaUsesPreviousTcLsn) {
  Delta({10}, {}, kInvalidLsn, 1, /*tc_lsn=*/300);
  Delta({20}, {}, kInvalidLsn, 1, /*tc_lsn=*/700);
  auto r = Dc(DptMode::kStandard);
  EXPECT_EQ(r.dpt.Find(10)->rlsn, bckpt_);
  EXPECT_EQ(r.dpt.Find(20)->rlsn, 300u);  // previous Δ's TC-LSN
  EXPECT_EQ(r.last_delta_tc_lsn, 700u);
}

TEST_F(DptConstructionTest, LogicalWrittenSetPrunesOldEntries) {
  Delta({10}, {}, kInvalidLsn, 1, 300);
  // Interval 2: 10 flushed; its lastLSN proxy (bckpt) < FW-LSN 500.
  Delta({20}, {10}, /*fw=*/500, /*first_dirty=*/0, /*tc_lsn=*/700);
  auto r = Dc(DptMode::kStandard);
  EXPECT_EQ(r.dpt.Find(10), nullptr);
  ASSERT_NE(r.dpt.Find(20), nullptr);
  EXPECT_EQ(r.dpt.Find(20)->rlsn, 500u);  // dirtied after first write
}

TEST_F(DptConstructionTest, LogicalRedirtiedAfterFlushSurvivesPrune) {
  // PID 10 dirtied before the first write AND after it, then flushed once:
  // its lastLSN proxy becomes FW-LSN, which is NOT < FW-LSN => kept.
  Delta({10, 10}, {10}, /*fw=*/500, /*first_dirty=*/1, /*tc_lsn=*/700);
  auto r = Dc(DptMode::kStandard);
  const auto* e = r.dpt.Find(10);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->rlsn, 500u);  // bumped by the prune step (Alg. 4 line 21-22)
}

TEST_F(DptConstructionTest, LogicalRlsnBumpOnSurvivors) {
  Delta({10}, {}, kInvalidLsn, 1, 300);
  // 10 flushed at fw=500 but ALSO redirtied in this interval after the
  // flush: entry survives with rLSN raised to 500.
  Delta({10}, {10}, /*fw=*/500, /*first_dirty=*/0, /*tc_lsn=*/700);
  auto r = Dc(DptMode::kStandard);
  const auto* e = r.dpt.Find(10);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->rlsn, 500u);
}

TEST_F(DptConstructionTest, PfListIsFirstMentionOrder) {
  Delta({10, 11, 10}, {}, kInvalidLsn, 3, 300);
  Delta({11, 12}, {}, kInvalidLsn, 2, 700);
  auto r = Dc(DptMode::kStandard);
  EXPECT_EQ(BuildPfList(r.dpt), (std::vector<PageId>{10, 11, 12}));
}

// A page flushed and re-dirtied after FirstDirty of a later Δ-record has
// its rLSN raised to that record's FW-LSN: redo claims it among the
// record's post-flush entries, so the PF-list lists it there, not at its
// first mention. Reduced logging has no FW-LSN to raise to.
TEST_F(DptConstructionTest, PfListListsARedirtiedFlushedPageAtItsClaim) {
  Delta({10, 11}, {}, kInvalidLsn, 2, /*tc_lsn=*/300, true, {110, 120});
  // Interval 2: 12 dirtied before the first write; 10 flushed at FW-LSN
  // 500, then re-dirtied after it, 13 after that, then 10 again. Redo
  // claims 10 at its first update after the flush.
  Delta({12, 10, 13, 10}, {10}, /*fw=*/500, /*first_dirty=*/1,
        /*tc_lsn=*/700, true, {450, 510, 520, 530});
  for (DptMode mode : {DptMode::kStandard, DptMode::kPerfect}) {
    auto r = Dc(mode);
    ASSERT_NE(r.dpt.Find(10), nullptr);
    EXPECT_EQ(r.dpt.Find(10)->rlsn, 500u);
    EXPECT_EQ(BuildPfList(r.dpt), (std::vector<PageId>{11, 12, 10, 13}))
        << "mode " << static_cast<int>(mode);
  }
  EXPECT_EQ(BuildPfList(Dc(DptMode::kReduced).dpt),
            (std::vector<PageId>{10, 11, 12, 13}));
}

// Perfect logging names exact LSNs, which can lie past their own
// Δ-record's TC-LSN, so a prune can raise a page its record does not name.
// Such a page keeps its stamp: it precedes the pages the record names at
// the same rLSN.
TEST_F(DptConstructionTest, PfListKeepsTheStampOfARaisedPageNotNamed) {
  Delta({11, 10, 11}, {}, kInvalidLsn, 3, /*tc_lsn=*/900, true,
        {100, 110, 1000});
  Delta({12, 13}, {11}, /*fw=*/950, /*first_dirty=*/0, /*tc_lsn=*/1200, true,
        {940, 950});
  auto r = Dc(DptMode::kPerfect);
  ASSERT_NE(r.dpt.Find(11), nullptr);
  EXPECT_EQ(r.dpt.Find(11)->rlsn, 950u);
  EXPECT_EQ(BuildPfList(r.dpt), (std::vector<PageId>{10, 12, 11, 13}));
}

// A merge victim drops out of the DPT; once a split re-allocates it and a
// later Δ-record re-adds it, it is listed once, at the re-add.
TEST_F(DptConstructionTest, PfListListsAReaddedMergeVictimOnce) {
  Delta({20, 21}, {}, kInvalidLsn, 2, /*tc_lsn=*/300, true, {110, 120});
  Structure(LogRecordType::kSmoMerge, /*victim=*/20, {22});
  Structure(LogRecordType::kSmo, kInvalidPageId, {20, 22});
  Delta({23, 20}, {}, kInvalidLsn, 2, /*tc_lsn=*/700, true, {450, 460});
  for (DptMode mode :
       {DptMode::kStandard, DptMode::kPerfect, DptMode::kReduced}) {
    auto r = Dc(mode);
    ASSERT_NE(r.dpt.Find(20), nullptr) << "the split did not re-allocate 20";
    EXPECT_EQ(BuildPfList(r.dpt), (std::vector<PageId>{21, 23, 20}))
        << "mode " << static_cast<int>(mode);
  }
}

TEST_F(DptConstructionTest, LogicalIgnoresBwRecordsButCountsThem) {
  Bw({10}, 50);
  Delta({10}, {}, kInvalidLsn, 1, 300);
  auto r = Dc(DptMode::kStandard);
  EXPECT_NE(r.dpt.Find(10), nullptr);  // BW pruning is SQL-only
  EXPECT_EQ(r.bw_records_seen, 1u);
  EXPECT_EQ(r.delta_records_seen, 1u);
}

TEST_F(DptConstructionTest, NoDeltaRecordsMeansEmptyDptAndTailMode) {
  Update(1, 10, 100);
  auto r = Dc(DptMode::kStandard);
  EXPECT_EQ(r.dpt.size(), 0u);
  EXPECT_EQ(r.last_delta_tc_lsn, kInvalidLsn);
}

// ---------------------------------------------------------------------------
// App. D variants
// ---------------------------------------------------------------------------

TEST_F(DptConstructionTest, PerfectModeUsesExactLsns) {
  Delta({10, 11}, {}, /*fw=*/120, /*first_dirty=*/1, /*tc_lsn=*/300,
        /*has_fw=*/true, /*dirty_lsns=*/{101, 177});
  auto r = Dc(DptMode::kPerfect);
  EXPECT_EQ(r.dpt.Find(10)->rlsn, 101u);
  EXPECT_EQ(r.dpt.Find(11)->rlsn, 177u);
}

TEST_F(DptConstructionTest, PerfectModePrunesWithExactLastLsns) {
  // 10 updated at 101 then flushed under fw=150: prune. 11 updated at 177
  // (after fw): kept.
  Delta({10, 11}, {10}, /*fw=*/150, /*first_dirty=*/1, /*tc_lsn=*/300,
        true, {101, 177});
  auto r = Dc(DptMode::kPerfect);
  EXPECT_EQ(r.dpt.Find(10), nullptr);
  EXPECT_NE(r.dpt.Find(11), nullptr);
}

TEST_F(DptConstructionTest, ReducedModeAssignsPrevDeltaToEverything) {
  Delta({10, 11}, {}, kInvalidLsn, 0, /*tc_lsn=*/300, /*has_fw=*/false);
  Delta({12}, {}, kInvalidLsn, 0, /*tc_lsn=*/600, /*has_fw=*/false);
  auto r = Dc(DptMode::kReduced);
  EXPECT_EQ(r.dpt.Find(10)->rlsn, bckpt_);
  EXPECT_EQ(r.dpt.Find(11)->rlsn, bckpt_);
  EXPECT_EQ(r.dpt.Find(12)->rlsn, 300u);
}

TEST_F(DptConstructionTest, ReducedModePrunesOnlyPriorIntervalEntries) {
  Delta({10}, {}, kInvalidLsn, 0, /*tc_lsn=*/300, false);
  // Interval 2 dirties 20 and flushes both 10 and 20. Only 10 (prior
  // interval) may be pruned (App. D.2).
  Delta({20}, {10, 20}, kInvalidLsn, 0, /*tc_lsn=*/600, false);
  auto r = Dc(DptMode::kReduced);
  EXPECT_EQ(r.dpt.Find(10), nullptr);
  EXPECT_NE(r.dpt.Find(20), nullptr);
}

// ---------------------------------------------------------------------------
// ObserveForAtt
// ---------------------------------------------------------------------------

TEST(ObserveForAttTest, TracksChainTailAndRemovesOnEnd) {
  ActiveTxnTable att;
  TxnId max_txn = 0;
  LogRecord r;
  r.type = LogRecordType::kTxnBegin;
  r.txn_id = 3;
  r.lsn = 10;
  ObserveForAtt(r, &att, &max_txn);
  r.type = LogRecordType::kUpdate;
  r.lsn = 20;
  ObserveForAtt(r, &att, &max_txn);
  EXPECT_EQ(att.at(3), 20u);
  r.type = LogRecordType::kTxnAbort;
  r.lsn = 30;
  ObserveForAtt(r, &att, &max_txn);
  EXPECT_TRUE(att.empty());
  EXPECT_EQ(max_txn, 3u);
}

// ---------------------------------------------------------------------------
// The open-addressed DirtyPageTable structure itself (robin-hood probing,
// backward-shift deletion, doubling growth) under churn — the counterpart
// of the buffer-pool PageTable suite, plus the DPT's ADDENTRY semantics.
// ---------------------------------------------------------------------------

TEST(DirtyPageTableStructure, AddFindRemoveBasics) {
  DirtyPageTable dpt;
  EXPECT_TRUE(dpt.empty());
  dpt.AddOrUpdate(10, 100);
  dpt.AddOrUpdate(10, 200);  // later mention: only lastLSN advances
  ASSERT_NE(dpt.Find(10), nullptr);
  EXPECT_EQ(dpt.Find(10)->rlsn, 100u);
  EXPECT_EQ(dpt.Find(10)->last_lsn, 200u);
  EXPECT_EQ(dpt.Find(11), nullptr);
  EXPECT_TRUE(dpt.Remove(10));
  EXPECT_FALSE(dpt.Remove(10));
  EXPECT_TRUE(dpt.empty());
}

TEST(DirtyPageTableStructure, GrowthPreservesEntriesAndSemantics) {
  DirtyPageTable dpt;
  const size_t initial_slots = dpt.slot_count();
  // Push far past the initial geometry to force multiple doublings.
  for (PageId pid = 0; pid < 10'000; pid++) {
    dpt.AddOrUpdate(pid, pid + 7);
  }
  EXPECT_EQ(dpt.size(), 10'000u);
  EXPECT_GT(dpt.slot_count(), initial_slots);
  EXPECT_LE(dpt.size() * 2, dpt.slot_count()) << "load factor above 50%";
  for (PageId pid = 0; pid < 10'000; pid++) {
    ASSERT_NE(dpt.Find(pid), nullptr) << "pid " << pid << " lost in growth";
    EXPECT_EQ(dpt.Find(pid)->rlsn, pid + 7);
  }
}

TEST(DirtyPageTableStructure, EraseReinsertChurn) {
  DirtyPageTable dpt;
  // BW-pruning shape: interleave inserts with removals of an older cohort,
  // then re-insert removed pids with fresh LSNs. rLSN must reset (a removed
  // entry is gone; a later mention is a first mention again).
  for (uint32_t round = 0; round < 50; round++) {
    for (PageId pid = 0; pid < 64; pid++) {
      dpt.AddOrUpdate(round * 64 + pid, 1000 + round);
    }
    if (round >= 1) {
      for (PageId pid = 0; pid < 64; pid++) {
        EXPECT_TRUE(dpt.Remove((round - 1) * 64 + pid));
      }
    }
  }
  EXPECT_EQ(dpt.size(), 64u);  // only the last round survives
  const PageId revived = 5;    // removed in round 1's pruning
  EXPECT_EQ(dpt.Find(revived), nullptr);
  dpt.AddOrUpdate(revived, 9999);
  ASSERT_NE(dpt.Find(revived), nullptr);
  EXPECT_EQ(dpt.Find(revived)->rlsn, 9999u) << "stale rLSN after reinsert";
}

TEST(DirtyPageTableStructure, CollidingKeysSurviveBackwardShiftDeletion) {
  DirtyPageTable dpt;
  // Dense pids cluster after fibonacci hashing into few slots only when the
  // table is small; force collisions by inserting many, deleting from the
  // middle of chains, and verifying the remainder stays reachable.
  std::vector<PageId> pids;
  for (PageId pid = 1; pid <= 512; pid++) pids.push_back(pid * 3);
  for (PageId pid : pids) dpt.AddExact(pid, pid, pid + 1);
  for (size_t i = 0; i < pids.size(); i += 2) EXPECT_TRUE(dpt.Remove(pids[i]));
  for (size_t i = 0; i < pids.size(); i++) {
    if (i % 2 == 0) {
      EXPECT_EQ(dpt.Find(pids[i]), nullptr);
    } else {
      ASSERT_NE(dpt.Find(pids[i]), nullptr) << "pid " << pids[i];
      EXPECT_EQ(dpt.Find(pids[i])->last_lsn, pids[i] + 1);
    }
  }
  EXPECT_EQ(dpt.size(), pids.size() / 2);
}

TEST(DirtyPageTableStructure, ClearKeepsCapacityAndEmpties) {
  DirtyPageTable dpt;
  for (PageId pid = 0; pid < 1000; pid++) dpt.AddOrUpdate(pid, 1);
  const size_t slots = dpt.slot_count();
  dpt.Clear();
  EXPECT_TRUE(dpt.empty());
  EXPECT_EQ(dpt.slot_count(), slots);
  EXPECT_EQ(dpt.Find(5), nullptr);
  dpt.AddOrUpdate(5, 42);
  EXPECT_EQ(dpt.Find(5)->rlsn, 42u);
}

TEST(DirtyPageTableStructure, ForEachVisitsEveryEntryOnce) {
  DirtyPageTable dpt;
  for (PageId pid = 100; pid < 200; pid++) dpt.AddOrUpdate(pid, pid);
  uint64_t visits = 0;
  uint64_t pid_sum = 0;
  dpt.ForEach([&](PageId pid, const DirtyPageTable::Entry& e) {
    visits++;
    pid_sum += pid;
    EXPECT_EQ(e.rlsn, pid);
  });
  EXPECT_EQ(visits, 100u);
  EXPECT_EQ(pid_sum, (100u + 199u) * 100u / 2u);
}

}  // namespace
}  // namespace deutero
