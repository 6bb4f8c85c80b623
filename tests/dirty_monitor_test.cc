// Unit tests for the Δ/BW-record monitor: field semantics of §3.3 and §4.1
// (FW-LSN capture, FirstDirty index, emission cadence, force emit) and the
// App. D mode variations.
#include <gtest/gtest.h>

#include <vector>

#include "dc/dirty_monitor.h"
#include "sim/clock.h"
#include "wal/log_manager.h"

namespace deutero {
namespace {

class DirtyMonitorTest : public ::testing::Test {
 protected:
  DirtyMonitorTest() : log_(&clock_, 8192, 0.25) {}

  void Make(DptMode mode, uint32_t dirty_cap = 100, uint32_t written_cap = 4) {
    EngineOptions o;
    o.dpt_mode = mode;
    o.delta_dirty_capacity = dirty_cap;
    o.bw_written_capacity = written_cap;
    monitor_ = std::make_unique<DirtyPageMonitor>(&log_, o);
    monitor_->set_elsn_provider([this] { return elsn_; });
  }

  std::vector<LogRecord> Records(LogRecordType type) {
    log_.Flush();
    std::vector<LogRecord> out;
    for (auto it = log_.NewIterator(kFirstLsn, false); it.Valid(); it.Next()) {
      if (it.record().type == type) it.record().CopyTo(&out.emplace_back());
    }
    return out;
  }

  SimClock clock_;
  LogManager log_;
  Lsn elsn_ = 100;
  std::unique_ptr<DirtyPageMonitor> monitor_;
};

TEST_F(DirtyMonitorTest, AtomicScopeDefersCapacityTriggeredDeltaEmission) {
  Make(DptMode::kStandard, /*dirty_cap=*/2);
  {
    DirtyPageMonitor::AtomicScope scope(monitor_.get());
    monitor_->OnPageDirtied(1, 101);
    monitor_->OnPageDirtied(2, 102);  // reaches capacity — must NOT emit yet
    monitor_->OnPageDirtied(3, 103);  // still captured while deferred
    EXPECT_EQ(monitor_->stats().delta_records, 0u);
  }
  // Outermost scope exit performs the deferred emission with every entry.
  EXPECT_EQ(monitor_->stats().delta_records, 1u);
  auto deltas = Records(LogRecordType::kDeltaRecord);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].dirty_set, (std::vector<PageId>{1, 2, 3}));
}

TEST_F(DirtyMonitorTest, AtomicScopeDefersBwEmissionAndNests) {
  Make(DptMode::kStandard, /*dirty_cap=*/100, /*written_cap=*/1);
  {
    DirtyPageMonitor::AtomicScope outer(monitor_.get());
    {
      DirtyPageMonitor::AtomicScope inner(monitor_.get());
      monitor_->OnPageDirtied(5, 101);
      monitor_->OnPageFlushed(5, 101);  // reaches BW capacity — deferred
    }
    // Inner scope exit must not emit: the outer scope is still open.
    EXPECT_EQ(monitor_->stats().bw_records, 0u);
  }
  // Δ-before-BW order is preserved on the deferred emission (§5.2).
  EXPECT_EQ(monitor_->stats().delta_records, 1u);
  EXPECT_EQ(monitor_->stats().bw_records, 1u);
}

TEST_F(DirtyMonitorTest, AtomicScopeOnNullMonitorIsANoOp) {
  DirtyPageMonitor::AtomicScope scope(nullptr);  // must not crash
}

TEST_F(DirtyMonitorTest, DirtySetCapturesEveryUpdateIncludingDuplicates) {
  Make(DptMode::kStandard);
  monitor_->OnPageDirtied(7, 101);
  monitor_->OnPageDirtied(7, 102);  // duplicate PIDs allowed (App. D.2)
  monitor_->OnPageDirtied(9, 103);
  monitor_->ForceEmit();
  auto deltas = Records(LogRecordType::kDeltaRecord);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].dirty_set, (std::vector<PageId>{7, 7, 9}));
}

TEST_F(DirtyMonitorTest, FwLsnAndFirstDirtyCapturedAtFirstFlush) {
  Make(DptMode::kStandard);
  monitor_->OnPageDirtied(1, 101);
  monitor_->OnPageDirtied(2, 102);
  elsn_ = 150;
  monitor_->OnPageFlushed(1, 101);  // first flush of the interval
  monitor_->OnPageDirtied(3, 160);  // dirtied AFTER the first flush
  elsn_ = 170;
  monitor_->ForceEmit();
  auto deltas = Records(LogRecordType::kDeltaRecord);
  ASSERT_EQ(deltas.size(), 1u);
  const LogRecord& d = deltas[0];
  EXPECT_EQ(d.fw_lsn, 150u);       // eLSN at the time of the first write
  EXPECT_EQ(d.first_dirty, 2u);    // index of PID 3 in the DirtySet
  EXPECT_EQ(d.tc_lsn, 170u);       // eLSN when the Δ-record was written
  EXPECT_EQ(d.written_set, (std::vector<PageId>{1}));
}

TEST_F(DirtyMonitorTest, NoFlushMeansFirstDirtyCoversWholeSet) {
  Make(DptMode::kStandard);
  monitor_->OnPageDirtied(1, 101);
  monitor_->OnPageDirtied(2, 102);
  monitor_->ForceEmit();
  auto deltas = Records(LogRecordType::kDeltaRecord);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].first_dirty, 2u);  // == dirty_set.size()
  EXPECT_TRUE(deltas[0].written_set.empty());
}

TEST_F(DirtyMonitorTest, DirtyCapacityTriggersDeltaOnlyRecord) {
  Make(DptMode::kStandard, /*dirty_cap=*/3, /*written_cap=*/100);
  for (PageId p = 0; p < 7; p++) monitor_->OnPageDirtied(p, 200 + p);
  auto deltas = Records(LogRecordType::kDeltaRecord);
  ASSERT_EQ(deltas.size(), 2u);  // two full sets of 3; one pending
  EXPECT_EQ(deltas[0].dirty_set.size(), 3u);
  EXPECT_EQ(deltas[1].dirty_set.size(), 3u);
  EXPECT_EQ(monitor_->pending_dirty(), 1u);
  EXPECT_TRUE(Records(LogRecordType::kBwRecord).empty());
}

TEST_F(DirtyMonitorTest, WrittenCapacityEmitsDeltaThenBw) {
  Make(DptMode::kStandard, /*dirty_cap=*/100, /*written_cap=*/2);
  monitor_->OnPageDirtied(1, 101);
  monitor_->OnPageFlushed(1, 101);
  monitor_->OnPageFlushed(2, 90);
  // Both records exist and the Δ precedes the BW (§5.2 fairness).
  log_.Flush();
  std::vector<LogRecordType> order;
  for (auto it = log_.NewIterator(kFirstLsn, false); it.Valid(); it.Next()) {
    order.push_back(it.record().type);
  }
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], LogRecordType::kDeltaRecord);
  EXPECT_EQ(order[1], LogRecordType::kBwRecord);
  auto bws = Records(LogRecordType::kBwRecord);
  EXPECT_EQ(bws[0].written_set, (std::vector<PageId>{1, 2}));
  EXPECT_EQ(bws[0].fw_lsn, 100u);  // eLSN when the BW set became non-empty
}

TEST_F(DirtyMonitorTest, IntervalStateResetsAfterEmission) {
  Make(DptMode::kStandard);
  monitor_->OnPageDirtied(1, 101);
  monitor_->OnPageFlushed(1, 101);
  monitor_->ForceEmit();
  // New interval: FW-LSN must be recaptured, not inherited.
  elsn_ = 500;
  monitor_->OnPageDirtied(2, 501);
  monitor_->OnPageFlushed(2, 501);
  monitor_->ForceEmit();
  auto deltas = Records(LogRecordType::kDeltaRecord);
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[1].fw_lsn, 500u);
  EXPECT_EQ(deltas[1].first_dirty, 1u);
  EXPECT_EQ(deltas[1].dirty_set, (std::vector<PageId>{2}));
}

TEST_F(DirtyMonitorTest, ForceEmitWithNothingPendingEmitsNothing) {
  Make(DptMode::kStandard);
  monitor_->ForceEmit();
  EXPECT_TRUE(Records(LogRecordType::kDeltaRecord).empty());
  EXPECT_TRUE(Records(LogRecordType::kBwRecord).empty());
}

TEST_F(DirtyMonitorTest, DisabledMonitorCapturesNothing) {
  Make(DptMode::kStandard);
  monitor_->set_enabled(false);
  monitor_->OnPageDirtied(1, 101);
  monitor_->OnPageFlushed(1, 101);
  monitor_->ForceEmit();
  EXPECT_TRUE(Records(LogRecordType::kDeltaRecord).empty());
}

TEST_F(DirtyMonitorTest, ResetDropsPendingState) {
  Make(DptMode::kStandard);
  monitor_->OnPageDirtied(1, 101);
  monitor_->Reset();
  monitor_->ForceEmit();
  EXPECT_TRUE(Records(LogRecordType::kDeltaRecord).empty());
}

TEST_F(DirtyMonitorTest, PerfectModeRecordsPerUpdateLsns) {
  Make(DptMode::kPerfect);
  monitor_->OnPageDirtied(1, 101);
  monitor_->OnPageDirtied(2, 107);
  monitor_->OnPageDirtied(1, 113);
  monitor_->ForceEmit();
  auto deltas = Records(LogRecordType::kDeltaRecord);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].dirty_lsns, (std::vector<Lsn>{101, 107, 113}));
}

TEST_F(DirtyMonitorTest, ReducedModeOmitsFwFields) {
  Make(DptMode::kReduced);
  monitor_->OnPageDirtied(1, 101);
  monitor_->OnPageFlushed(1, 101);
  monitor_->ForceEmit();
  auto deltas = Records(LogRecordType::kDeltaRecord);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_FALSE(deltas[0].has_fw_fields);
  EXPECT_TRUE(deltas[0].dirty_lsns.empty());
}

TEST_F(DirtyMonitorTest, ReducedModeLogsFewerBytesThanPerfect) {
  // App. D: the spectrum trades Δ-record bytes for DPT accuracy.
  Make(DptMode::kReduced);
  for (PageId p = 0; p < 50; p++) monitor_->OnPageDirtied(p, 200 + p);
  monitor_->ForceEmit();
  const uint64_t reduced_bytes = log_.stats().delta_bytes;

  Make(DptMode::kPerfect);
  for (PageId p = 0; p < 50; p++) monitor_->OnPageDirtied(p, 200 + p);
  monitor_->ForceEmit();
  const uint64_t perfect_bytes = log_.stats().delta_bytes - reduced_bytes;
  EXPECT_LT(reduced_bytes, perfect_bytes);
}

TEST_F(DirtyMonitorTest, StatsCountEntriesAndRecords) {
  Make(DptMode::kStandard, 2, 2);
  monitor_->OnPageDirtied(1, 101);
  monitor_->OnPageDirtied(2, 102);  // triggers Δ
  monitor_->OnPageFlushed(1, 101);
  monitor_->OnPageFlushed(2, 102);  // triggers Δ+BW
  EXPECT_EQ(monitor_->stats().dirty_entries, 2u);
  EXPECT_EQ(monitor_->stats().written_entries, 2u);
  EXPECT_EQ(monitor_->stats().delta_records, 2u);
  EXPECT_EQ(monitor_->stats().bw_records, 1u);
}

}  // namespace
}  // namespace deutero
