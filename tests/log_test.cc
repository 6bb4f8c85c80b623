// Unit tests for the WAL: record encode/decode for every type, the log
// manager (append/flush/crash truncation), the costed recovery iterator,
// random access reads and the master record.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace deutero {
namespace {

LogRecord RoundTrip(const LogRecord& in) {
  const std::string payload = in.EncodePayload();
  LogRecord out;
  const Status st = LogRecord::DecodePayload(in.type, Slice(payload), &out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

TEST(LogRecordTest, UpdateRoundTrip) {
  LogRecord r;
  r.type = LogRecordType::kUpdate;
  r.txn_id = 77;
  r.table_id = 3;
  r.key = 123456789;
  r.before = "oldvalue";
  r.after = "newvalue";
  r.pid = 42;
  r.prev_lsn = 999;
  const LogRecord out = RoundTrip(r);
  EXPECT_EQ(out.txn_id, 77u);
  EXPECT_EQ(out.table_id, 3u);
  EXPECT_EQ(out.key, 123456789u);
  EXPECT_EQ(out.before, "oldvalue");
  EXPECT_EQ(out.after, "newvalue");
  EXPECT_EQ(out.pid, 42u);
  EXPECT_EQ(out.prev_lsn, 999u);
}

TEST(LogRecordTest, InsertRoundTripEmptyBefore) {
  LogRecord r;
  r.type = LogRecordType::kInsert;
  r.txn_id = 1;
  r.table_id = 1;
  r.key = 5;
  r.after = "v";
  r.pid = 9;
  const LogRecord out = RoundTrip(r);
  EXPECT_TRUE(out.before.empty());
  EXPECT_EQ(out.after, "v");
}

TEST(LogRecordTest, DeleteRoundTripCarriesBeforeImage) {
  LogRecord r;
  r.type = LogRecordType::kDelete;
  r.txn_id = 9;
  r.table_id = 2;
  r.key = 77;
  r.before = "victim";  // undo re-inserts this
  r.pid = 13;
  r.prev_lsn = 456;
  const LogRecord out = RoundTrip(r);
  EXPECT_EQ(out.type, LogRecordType::kDelete);
  EXPECT_EQ(out.txn_id, 9u);
  EXPECT_EQ(out.table_id, 2u);
  EXPECT_EQ(out.key, 77u);
  EXPECT_EQ(out.before, "victim");
  EXPECT_TRUE(out.after.empty());
  EXPECT_EQ(out.pid, 13u);
  EXPECT_EQ(out.prev_lsn, 456u);
  EXPECT_TRUE(out.IsRedoableDataOp());
}

TEST(LogRecordTest, ClrRoundTrip) {
  LogRecord r;
  r.type = LogRecordType::kClr;
  r.txn_id = 8;
  r.table_id = 1;
  r.key = 44;
  r.after = "restored";
  r.pid = 17;
  r.undo_next_lsn = 1234;
  const LogRecord out = RoundTrip(r);
  EXPECT_EQ(out.undo_next_lsn, 1234u);
  EXPECT_EQ(out.after, "restored");
}

TEST(LogRecordTest, TxnControlRoundTrip) {
  for (LogRecordType t : {LogRecordType::kTxnBegin, LogRecordType::kTxnCommit,
                          LogRecordType::kTxnAbort}) {
    LogRecord r;
    r.type = t;
    r.txn_id = 500;
    r.prev_lsn = 600;
    const LogRecord out = RoundTrip(r);
    EXPECT_EQ(out.txn_id, 500u);
    EXPECT_EQ(out.prev_lsn, 600u);
  }
}

TEST(LogRecordTest, CheckpointRecordsRoundTrip) {
  LogRecord b;
  b.type = LogRecordType::kBeginCheckpoint;
  EXPECT_TRUE(RoundTrip(b).type == LogRecordType::kBeginCheckpoint);

  LogRecord e;
  e.type = LogRecordType::kEndCheckpoint;
  e.bckpt_lsn = 4242;
  EXPECT_EQ(RoundTrip(e).bckpt_lsn, 4242u);

  LogRecord a;
  a.type = LogRecordType::kRsspAck;
  a.bckpt_lsn = 17;
  EXPECT_EQ(RoundTrip(a).bckpt_lsn, 17u);
}

TEST(LogRecordTest, BwRecordRoundTrip) {
  LogRecord r;
  r.type = LogRecordType::kBwRecord;
  r.fw_lsn = 7777;
  r.written_set = {1, 5, 9, 100000};
  const LogRecord out = RoundTrip(r);
  EXPECT_EQ(out.fw_lsn, 7777u);
  EXPECT_EQ(out.written_set, (std::vector<PageId>{1, 5, 9, 100000}));
}

TEST(LogRecordTest, DeltaRecordStandardRoundTrip) {
  LogRecord r;
  r.type = LogRecordType::kDeltaRecord;
  r.dirty_set = {4, 8, 15, 16, 23, 42};
  r.written_set = {4, 8};
  r.fw_lsn = 300;
  r.first_dirty = 2;
  r.tc_lsn = 500;
  r.has_fw_fields = true;
  const LogRecord out = RoundTrip(r);
  EXPECT_EQ(out.dirty_set, r.dirty_set);
  EXPECT_EQ(out.written_set, r.written_set);
  EXPECT_EQ(out.fw_lsn, 300u);
  EXPECT_EQ(out.first_dirty, 2u);
  EXPECT_EQ(out.tc_lsn, 500u);
  EXPECT_TRUE(out.has_fw_fields);
  EXPECT_TRUE(out.dirty_lsns.empty());
}

TEST(LogRecordTest, DeltaRecordReducedOmitsFwFields) {
  LogRecord r;
  r.type = LogRecordType::kDeltaRecord;
  r.dirty_set = {1, 2};
  r.written_set = {3};
  r.tc_lsn = 99;
  r.has_fw_fields = false;
  const std::string reduced = r.EncodePayload();
  r.has_fw_fields = true;
  const std::string standard = r.EncodePayload();
  EXPECT_LT(reduced.size(), standard.size());  // App. D.2: less logging
  LogRecord out;
  ASSERT_TRUE(LogRecord::DecodePayload(LogRecordType::kDeltaRecord,
                                       Slice(reduced), &out)
                  .ok());
  EXPECT_FALSE(out.has_fw_fields);
  EXPECT_EQ(out.tc_lsn, 99u);
}

TEST(LogRecordTest, DeltaRecordPerfectCarriesDirtyLsns) {
  LogRecord r;
  r.type = LogRecordType::kDeltaRecord;
  r.dirty_set = {1, 2, 3};
  r.dirty_lsns = {10, 20, 30};
  r.tc_lsn = 40;
  r.fw_lsn = 15;
  r.first_dirty = 1;
  const LogRecord out = RoundTrip(r);
  EXPECT_EQ(out.dirty_lsns, (std::vector<Lsn>{10, 20, 30}));
}

/// Every record type that carries the allocator state (high-water mark and
/// index extent cursor) round-trips it, with its other fields, through both
/// representations; the size hint covers the whole payload.
TEST(LogRecordTest, SmoRoundTrip) {
  for (const LogRecordType type :
       {LogRecordType::kSmo, LogRecordType::kSmoMerge,
        LogRecordType::kCreateTable}) {
    SCOPED_TRACE(LogRecordTypeName(type));
    LogRecord r;
    r.type = type;
    r.pid = 7;  // kSmoMerge: the freed victim; kCreateTable: the new root
    r.table_id = 4;
    r.ddl_value_size = 26;
    r.alloc_hwm = 1000;
    r.index_extent = {994, 1000};
    r.smo_pages.push_back({5, std::string(64, 'a')});
    r.smo_pages.push_back({6, std::string(64, 'b')});
    const std::string payload = r.EncodePayload();
    EXPECT_GE(r.PayloadSizeHint(), payload.size());

    const LogRecord out = RoundTrip(r);
    ASSERT_EQ(out.smo_pages.size(), 2u);
    EXPECT_EQ(out.alloc_hwm, 1000u);
    EXPECT_EQ(out.index_extent.next, 994u);
    EXPECT_EQ(out.index_extent.end, 1000u);
    EXPECT_EQ(out.smo_pages[0].pid, 5u);
    EXPECT_EQ(out.smo_pages[1].image, std::string(64, 'b'));

    LogRecordView v;
    ASSERT_TRUE(LogRecordView::DecodePayload(type, Slice(payload), &v).ok());
    EXPECT_EQ(v.alloc_hwm, 1000u);
    EXPECT_TRUE(v.index_extent == r.index_extent);
    ASSERT_EQ(v.smo_pages.size(), 2u);
    EXPECT_EQ(v.smo_pages[1].pid, 6u);
    if (type != LogRecordType::kSmo) {
      EXPECT_EQ(v.pid, 7u);
    }
    if (type == LogRecordType::kCreateTable) {
      EXPECT_EQ(v.table_id, 4u);
      EXPECT_EQ(v.ddl_value_size, 26u);
    }

    // A payload cut inside the cursor is corrupt, not a short cursor.
    const size_t cursor_end =
        payload.size() - (1 + 2 * (4 + 1 + 64));  // count, two images
    EXPECT_TRUE(LogRecordView::DecodePayload(
                    type, Slice(payload.data(), cursor_end - 2), &v)
                    .IsCorruption());
  }
}

TEST(LogRecordTest, CorruptPayloadRejected) {
  LogRecord r;
  r.type = LogRecordType::kUpdate;
  r.txn_id = 1;
  r.before = "abc";
  r.after = "def";
  std::string payload = r.EncodePayload();
  payload.resize(payload.size() - 2);  // truncate
  LogRecord out;
  EXPECT_TRUE(LogRecord::DecodePayload(LogRecordType::kUpdate, Slice(payload),
                                       &out)
                  .IsCorruption());
}

TEST(LogRecordTest, TrailingBytesRejected) {
  LogRecord r;
  r.type = LogRecordType::kTxnBegin;
  r.txn_id = 1;
  std::string payload = r.EncodePayload();
  payload += "garbage";
  LogRecord out;
  EXPECT_TRUE(LogRecord::DecodePayload(LogRecordType::kTxnBegin,
                                       Slice(payload), &out)
                  .IsCorruption());
}

// ---------------------------------------------------------------------------
// LogManager
// ---------------------------------------------------------------------------

class LogManagerTest : public ::testing::Test {
 protected:
  LogManagerTest() : log_(&clock_, /*log_page_size=*/128, 0.25) {}

  Lsn AppendBegin(TxnId txn) {
    LogRecord r;
    r.type = LogRecordType::kTxnBegin;
    r.txn_id = txn;
    return log_.Append(r);
  }

  SimClock clock_;
  LogManager log_;
};

TEST_F(LogManagerTest, LsnsAreMonotonicByteOffsets) {
  const Lsn a = AppendBegin(1);
  const Lsn b = AppendBegin(2);
  EXPECT_EQ(a, kFirstLsn);
  EXPECT_GT(b, a);
  EXPECT_EQ(log_.next_lsn(), b + (b - a));
}

TEST_F(LogManagerTest, FlushAdvancesStableEnd) {
  AppendBegin(1);
  EXPECT_EQ(log_.stable_end(), kFirstLsn);
  log_.Flush();
  EXPECT_EQ(log_.stable_end(), log_.next_lsn());
}

TEST_F(LogManagerTest, CrashDiscardsUnflushedTail) {
  AppendBegin(1);
  log_.Flush();
  const Lsn stable = log_.stable_end();
  AppendBegin(2);
  AppendBegin(3);
  log_.Crash();
  EXPECT_EQ(log_.next_lsn(), stable);
  auto it = log_.NewIterator(kFirstLsn, false);
  int n = 0;
  for (; it.Valid(); it.Next()) n++;
  EXPECT_EQ(n, 1);
}

TEST_F(LogManagerTest, IteratorSeesOnlyStableRecords) {
  AppendBegin(1);
  AppendBegin(2);
  log_.Flush();
  AppendBegin(3);  // volatile
  int n = 0;
  for (auto it = log_.NewIterator(kFirstLsn, false); it.Valid(); it.Next()) {
    n++;
  }
  EXPECT_EQ(n, 2);
}

TEST_F(LogManagerTest, IteratorReturnsRecordsInOrderWithLsns) {
  std::vector<Lsn> lsns;
  for (TxnId t = 1; t <= 5; t++) lsns.push_back(AppendBegin(t));
  log_.Flush();
  size_t i = 0;
  for (auto it = log_.NewIterator(kFirstLsn, false); it.Valid();
       it.Next(), i++) {
    ASSERT_LT(i, lsns.size());
    EXPECT_EQ(it.lsn(), lsns[i]);
    EXPECT_EQ(it.record().txn_id, i + 1);
  }
  EXPECT_EQ(i, 5u);
}

TEST_F(LogManagerTest, IteratorChargesPerLogPage) {
  // 128-byte log pages; a txn-begin record is ~15 bytes, so ~9 per page.
  for (TxnId t = 1; t <= 40; t++) AppendBegin(t);
  log_.Flush();
  const double before = clock_.NowMs();
  auto it = log_.NewIterator(kFirstLsn, /*charge_io=*/true);
  uint64_t n = 0;
  for (; it.Valid(); it.Next()) n++;
  EXPECT_EQ(n, 40u);
  EXPECT_GT(it.pages_read(), 2u);
  EXPECT_NEAR(clock_.NowMs() - before, it.pages_read() * 0.25, 1e-9);
}

TEST_F(LogManagerTest, IteratorSeekChargesEachPageOnce) {
  // One iterator seeking forward over records on 128-byte pages charges
  // each page the records it lands on touch once, and none of the pages
  // it seeks over.
  std::vector<Lsn> lsns;
  for (TxnId t = 1; t <= 40; t++) lsns.push_back(AppendBegin(t));
  log_.Flush();
  const uint64_t ps = log_.log_page_size();
  std::set<uint64_t> pages;
  auto it = log_.NewIterator(lsns[0], /*charge_io=*/true);
  for (const size_t i : {0, 1, 2, 3, 30, 31}) {
    it.Seek(lsns[i]);
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.record().txn_id, i + 1);
    for (uint64_t p = lsns[i] / ps; p <= (lsns[i + 1] - 1) / ps; p++) {
      pages.insert(p);
    }
  }
  ASSERT_LT(pages.size(), 6u) << "no two records share a page";
  EXPECT_EQ(it.pages_read(), pages.size());
  EXPECT_NEAR(clock_.NowMs(), pages.size() * 0.25, 1e-9);
}

TEST_F(LogManagerTest, IteratorWithoutChargingIsFree) {
  for (TxnId t = 1; t <= 40; t++) AppendBegin(t);
  log_.Flush();
  for (auto it = log_.NewIterator(kFirstLsn, false); it.Valid(); it.Next()) {
  }
  EXPECT_DOUBLE_EQ(clock_.NowMs(), 0.0);
}

TEST_F(LogManagerTest, IteratorFromMidLog) {
  AppendBegin(1);
  const Lsn second = AppendBegin(2);
  AppendBegin(3);
  log_.Flush();
  auto it = log_.NewIterator(second, false);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.record().txn_id, 2u);
}

TEST_F(LogManagerTest, ReadRecordAtRandomAccess) {
  AppendBegin(1);
  const Lsn b = AppendBegin(2);
  log_.Flush();
  LogRecord rec;
  ASSERT_TRUE(log_.ReadRecordAt(b, &rec).ok());
  EXPECT_EQ(rec.txn_id, 2u);
  EXPECT_EQ(rec.lsn, b);
}

TEST_F(LogManagerTest, ReadRecordAtVolatileTailWorks) {
  const Lsn a = AppendBegin(1);  // not flushed
  LogRecord rec;
  ASSERT_TRUE(log_.ReadRecordAt(a, &rec).ok());
  EXPECT_EQ(rec.txn_id, 1u);
}

TEST_F(LogManagerTest, ReadRecordAtChargesOnlyRecordsOnTheDevice) {
  // Before any crash every record is one this log appended: free.
  const Lsn a = AppendBegin(1);
  log_.Flush();
  LogRecord rec;
  ASSERT_TRUE(log_.ReadRecordAt(a, &rec).ok());
  EXPECT_DOUBLE_EQ(clock_.NowMs(), 0.0);
  // The crash leaves the stable prefix on the device: one log page per
  // record read back. A record appended since is still in the buffer.
  log_.Crash();
  const Lsn b = AppendBegin(2);
  ASSERT_TRUE(log_.ReadRecordAt(a, &rec).ok());
  EXPECT_DOUBLE_EQ(clock_.NowMs(), 0.25);
  ASSERT_TRUE(log_.ReadRecordAt(b, &rec).ok());
  EXPECT_DOUBLE_EQ(clock_.NowMs(), 0.25);
  // Restoring a snapshot reinstalls a device image the same way.
  log_.Flush();
  log_.RestoreSnapshot(log_.TakeSnapshot());
  ASSERT_TRUE(log_.ReadRecordAt(b, &rec).ok());
  EXPECT_DOUBLE_EQ(clock_.NowMs(), 0.5);
}

TEST_F(LogManagerTest, ReadRecordAtWithAPageMemoChargesEachPageOnce) {
  // Read back in descending LSN order, as undo reads its backchains,
  // through one memo: a page the reads stay on costs one read. Without a
  // memo every read of a record on the device pays.
  std::vector<Lsn> lsns;
  for (TxnId t = 1; t <= 40; t++) lsns.push_back(AppendBegin(t));
  log_.Flush();
  log_.Crash();
  LogManager::PageMemo memo;
  std::set<uint64_t> pages;
  LogRecord rec;
  for (size_t i = lsns.size(); i-- > 0;) {
    ASSERT_TRUE(log_.ReadRecordAt(lsns[i], &rec, &memo).ok());
    EXPECT_EQ(rec.txn_id, i + 1);
    pages.insert(lsns[i] / log_.log_page_size());
  }
  ASSERT_LT(pages.size(), lsns.size());
  EXPECT_EQ(memo.pages_charged, pages.size());
  EXPECT_NEAR(clock_.NowMs(), pages.size() * 0.25, 1e-9);
  const double before = clock_.NowMs();
  ASSERT_TRUE(log_.ReadRecordAt(lsns[0], &rec).ok());
  ASSERT_TRUE(log_.ReadRecordAt(lsns[0], &rec).ok());
  EXPECT_NEAR(clock_.NowMs() - before, 0.5, 1e-9);
}

TEST_F(LogManagerTest, ReadRecordAtInvalidLsnFails) {
  AppendBegin(1);
  log_.Flush();
  LogRecord rec;
  EXPECT_FALSE(log_.ReadRecordAt(0, &rec).ok());
  EXPECT_FALSE(log_.ReadRecordAt(log_.next_lsn() + 100, &rec).ok());
}

TEST_F(LogManagerTest, MasterRecordPersistsAcrossCrash) {
  MasterRecord m;
  m.bckpt_lsn = 10;
  m.eckpt_lsn = 20;
  m.checkpoint_count = 3;
  log_.WriteMaster(m);
  AppendBegin(1);
  log_.Crash();
  EXPECT_EQ(log_.master().bckpt_lsn, 10u);
  EXPECT_EQ(log_.master().checkpoint_count, 3u);
}

TEST_F(LogManagerTest, SnapshotRestoreRoundTrip) {
  AppendBegin(1);
  log_.Flush();
  MasterRecord m;
  m.bckpt_lsn = kFirstLsn;
  log_.WriteMaster(m);
  auto snap = log_.TakeSnapshot();

  AppendBegin(2);
  log_.Flush();
  log_.RestoreSnapshot(snap);
  int n = 0;
  for (auto it = log_.NewIterator(kFirstLsn, false); it.Valid(); it.Next()) {
    n++;
  }
  EXPECT_EQ(n, 1);
  EXPECT_EQ(log_.master().bckpt_lsn, kFirstLsn);
}

TEST_F(LogManagerTest, AppendsPastCapacityAfterCrashAndRestoreKeepEveryRecord) {
  // Crash() and RestoreSnapshot() keep the buffer's capacity without
  // zeroing the bytes past the log end, and growth does not zero them
  // either. Appending past the capacity afterwards must keep every record.
  std::vector<TxnId> want;
  TxnId next = 1;
  const auto append_past_capacity = [&](LogManager* log) {
    const uint64_t g = log->generation();
    for (int extra = 0; extra < 50; next++) {
      LogRecord r;
      r.type = LogRecordType::kTxnBegin;
      r.txn_id = next;
      log->Append(r);
      want.push_back(next);
      if (log->generation() != g) extra++;  // grown: go on past it
    }
    log->Flush();
  };
  const auto expect_every_record = [&](LogManager* log) {
    std::vector<TxnId> seen;
    for (auto it = log->NewIterator(kFirstLsn, false); it.Valid(); it.Next()) {
      seen.push_back(it.record().txn_id);
    }
    EXPECT_EQ(seen, want);
  };
  append_past_capacity(&log_);
  AppendBegin(next);  // an unflushed tail: the crash discards it
  log_.Crash();
  append_past_capacity(&log_);
  expect_every_record(&log_);

  // Restore into the larger buffer this log has now, and into a fresh
  // log's one-byte buffer; then append past either one's capacity.
  const LogManager::Snapshot snap = log_.TakeSnapshot();
  const std::vector<TxnId> at_snap = want;
  append_past_capacity(&log_);
  log_.RestoreSnapshot(snap);
  want = at_snap;
  append_past_capacity(&log_);
  expect_every_record(&log_);
  LogManager fresh(&clock_, /*log_page_size=*/128, 0.25);
  fresh.RestoreSnapshot(snap);
  want = at_snap;
  expect_every_record(&fresh);
  append_past_capacity(&fresh);
  expect_every_record(&fresh);
}

TEST_F(LogManagerTest, CorruptedRecordTerminatesScan) {
  const Lsn a = AppendBegin(1);
  const Lsn b = AppendBegin(2);
  AppendBegin(3);
  log_.Flush();
  // Flip a payload bit of the second record: the scan must deliver the
  // first record and stop at the corruption instead of mis-parsing.
  log_.CorruptByteForTest(b + 10);
  std::vector<Lsn> seen;
  for (auto it = log_.NewIterator(kFirstLsn, false); it.Valid(); it.Next()) {
    seen.push_back(it.lsn());
  }
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], a);
}

TEST_F(LogManagerTest, CorruptedLengthFieldTerminatesScan) {
  AppendBegin(1);
  const Lsn b = AppendBegin(2);
  log_.Flush();
  log_.CorruptByteForTest(b);  // length field
  int n = 0;
  for (auto it = log_.NewIterator(kFirstLsn, false); it.Valid(); it.Next()) {
    n++;
  }
  EXPECT_EQ(n, 1);
}

TEST_F(LogManagerTest, ReadRecordAtDetectsCorruption) {
  const Lsn a = AppendBegin(1);
  log_.Flush();
  log_.CorruptByteForTest(a + 5);  // CRC field itself
  LogRecord rec;
  EXPECT_FALSE(log_.ReadRecordAt(a, &rec).ok());
}

TEST_F(LogManagerTest, CheckpointRecordAttRoundTripsThroughLog) {
  LogRecord b;
  b.type = LogRecordType::kBeginCheckpoint;
  b.att_txn_ids = {7, 9};
  b.att_last_lsns = {100, 200};
  b.ckpt_dpt_pids = {4, 5, 6};
  b.ckpt_dpt_rlsns = {40, 50, 60};
  const Lsn lsn = log_.Append(b);
  log_.Flush();
  LogRecord out;
  ASSERT_TRUE(log_.ReadRecordAt(lsn, &out).ok());
  EXPECT_EQ(out.att_txn_ids, (std::vector<TxnId>{7, 9}));
  EXPECT_EQ(out.att_last_lsns, (std::vector<Lsn>{100, 200}));
  EXPECT_EQ(out.ckpt_dpt_pids, (std::vector<PageId>{4, 5, 6}));
  EXPECT_EQ(out.ckpt_dpt_rlsns, (std::vector<Lsn>{40, 50, 60}));
}

// ---------------------------------------------------------------------------
// LogRecordView: zero-copy aliasing rules.
// ---------------------------------------------------------------------------

TEST(LogRecordViewTest, DecodeAliasesPayloadBuffer) {
  LogRecord r;
  r.type = LogRecordType::kUpdate;
  r.txn_id = 7;
  r.table_id = 1;
  r.key = 11;
  r.before = "oldvalue";
  r.after = "newvalue";
  r.pid = 3;
  const std::string payload = r.EncodePayload();
  LogRecordView v;
  ASSERT_TRUE(
      LogRecordView::DecodePayload(LogRecordType::kUpdate, Slice(payload), &v)
          .ok());
  // The slices point INTO the payload — no copies were made.
  EXPECT_GE(v.before.data(), payload.data());
  EXPECT_LE(v.before.data() + v.before.size(),
            payload.data() + payload.size());
  EXPECT_GE(v.after.data(), payload.data());
  EXPECT_EQ(v.before.ToString(), "oldvalue");
  EXPECT_EQ(v.after.ToString(), "newvalue");
  LogRecord owned;
  v.CopyTo(&owned);
  EXPECT_EQ(owned.after, "newvalue");
}

TEST(LogRecordViewTest, SmoImagesAliasPayloadBuffer) {
  LogRecord r;
  r.type = LogRecordType::kSmo;
  r.alloc_hwm = 9;
  r.smo_pages.push_back({5, std::string(128, 'a')});
  const std::string payload = r.EncodePayload();
  LogRecordView v;
  ASSERT_TRUE(
      LogRecordView::DecodePayload(LogRecordType::kSmo, Slice(payload), &v)
          .ok());
  ASSERT_EQ(v.smo_pages.size(), 1u);
  EXPECT_EQ(v.smo_pages[0].pid, 5u);
  EXPECT_EQ(v.smo_pages[0].image.size(), 128u);
  EXPECT_GE(v.smo_pages[0].image.data(), payload.data());
  EXPECT_LE(v.smo_pages[0].image.data() + 128,
            payload.data() + payload.size());
}

TEST(LogRecordViewTest, ScratchVectorsKeepCapacityAcrossReset) {
  LogRecordView v;
  v.dirty_set.assign(64, 1);
  v.att_txn_ids.assign(16, 2);
  const size_t cap = v.dirty_set.capacity();
  v.Reset();
  EXPECT_TRUE(v.dirty_set.empty());
  EXPECT_TRUE(v.att_txn_ids.empty());
  EXPECT_GE(v.dirty_set.capacity(), cap);  // clear(), not shrink
}

TEST_F(LogManagerTest, ViewFieldsStayValidAcrossFullRecoveryScan) {
  // Append a mix of record shapes, then verify every view field against an
  // owned re-read WHILE other views from the same scan are outstanding —
  // the recovery-time usage pattern.
  std::vector<Lsn> lsns;
  for (int i = 0; i < 50; i++) {
    LogRecord r;
    r.type = LogRecordType::kUpdate;
    r.txn_id = static_cast<TxnId>(i + 1);
    r.table_id = 1;
    r.key = static_cast<Key>(i * 10);
    r.before = "before-" + std::to_string(i);
    r.after = "after-" + std::to_string(i);
    r.pid = static_cast<PageId>(i);
    lsns.push_back(log_.Append(r));
  }
  log_.Flush();
  size_t i = 0;
  for (auto it = log_.NewIterator(kFirstLsn, false); it.Valid();
       it.Next(), i++) {
    const LogRecordView& v = it.record();
    ASSERT_LT(i, lsns.size());
    EXPECT_EQ(v.lsn, lsns[i]);
    EXPECT_EQ(v.txn_id, i + 1);
    EXPECT_EQ(v.key, i * 10);
    EXPECT_EQ(v.before.ToString(), "before-" + std::to_string(i));
    EXPECT_EQ(v.after.ToString(), "after-" + std::to_string(i));
    // Cross-check against the owning reader.
    LogRecord owned;
    ASSERT_TRUE(log_.ReadRecordAt(v.lsn, &owned).ok());
    EXPECT_EQ(owned.after, v.after.ToString());
  }
  EXPECT_EQ(i, 50u);
}

TEST_F(LogManagerTest, GenerationBumpsOnEveryViewInvalidatingMutation) {
  // Contract (PR 8): the generation bumps exactly when outstanding views
  // can dangle — buffer growth that relocates storage, Crash(),
  // RestoreSnapshot(). An append whose window fits in committed capacity
  // leaves views intact (the bytes they alias never move).
  const uint64_t g0 = log_.generation();
  AppendBegin(1);  // grows the 1-byte pad buffer: storage may relocate
  const uint64_t g1 = log_.generation();
  EXPECT_GT(g1, g0);
  log_.Flush();
  EXPECT_EQ(log_.generation(), g1);  // flush moves no bytes
  AppendBegin(2);
  EXPECT_EQ(log_.generation(), g1);  // fits in capacity: views stay valid
  log_.Crash();  // discards the unflushed tail
  const uint64_t g2 = log_.generation();
  EXPECT_GT(g2, g1);
  const auto snap = log_.TakeSnapshot();
  EXPECT_EQ(log_.generation(), g2);  // snapshot reads only
  log_.RestoreSnapshot(snap);
  EXPECT_GT(log_.generation(), g2);
}

TEST_F(LogManagerTest, IteratorCapturesGenerationAtParseTime) {
  AppendBegin(1);
  AppendBegin(2);
  log_.Flush();
  auto it = log_.NewIterator(kFirstLsn, false);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.record().txn_id, 1u);  // valid: no mutation since parse
  it.Next();
  EXPECT_EQ(it.record().txn_id, 2u);  // Next() re-parses: valid again
}

#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
TEST_F(LogManagerTest, StaleViewAccessDiesInDebugBuilds) {
  AppendBegin(1);
  log_.Flush();
  auto it = log_.NewIterator(kFirstLsn, false);
  ASSERT_TRUE(it.Valid());
  log_.Crash();  // invalidates the outstanding view
  EXPECT_DEATH((void)it.record(), "LogRecordView used across log mutation");
}
#endif

TEST_F(LogManagerTest, StatsCountByTypeAndBytes) {
  AppendBegin(1);
  LogRecord d;
  d.type = LogRecordType::kDeltaRecord;
  d.dirty_set = {1, 2, 3};
  d.tc_lsn = 5;
  log_.Append(d);
  EXPECT_EQ(log_.stats().records_appended, 2u);
  EXPECT_EQ(
      log_.stats().by_type[static_cast<size_t>(LogRecordType::kTxnBegin)],
      1u);
  EXPECT_EQ(
      log_.stats().by_type[static_cast<size_t>(LogRecordType::kDeltaRecord)],
      1u);
  EXPECT_GT(log_.stats().delta_bytes, 0u);
  EXPECT_EQ(log_.stats().bw_bytes, 0u);
}

}  // namespace
}  // namespace deutero
