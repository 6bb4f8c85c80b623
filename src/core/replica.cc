// Hot-standby applier: one thread scans the mirror log in order, buffering
// in-flight transactions, mapping each committed op to a leaf of the
// standby's own geometry, and applying it there before it reads the next.
// Replay is not partitioned: its leaf writes charge no CPU that partitions
// could overlap, and its demand reads serialize on the one shared
// SimClock, so apply workers would only add wall time. The
// ReplicationChannel is its only feed (PumpChunk); there is no pull API
// over a primary's log. The differences from redo:
//
//  * Replay is FORWARD operation, not redo: each applied transaction is
//    re-logged through TC::LogReplayOp into the standby's own WAL (its own
//    LSN space stamps the pages), so a standby crash recovers with the
//    ordinary RecoveryManager under any method.
//  * Splits cannot be replayed from the stream (primary SMOs describe the
//    wrong geometry), so the applier PREDICTS them: it tracks each leaf's
//    projected row count for the current window and only a would-overflow
//    insert runs PrepareInsert's logged split first.
//  * Deletes queue merge candidates; each transaction's candidates are
//    swept (MaybeMergeLeaf) BEFORE its commit record is logged, so a
//    commit-durable transaction implies merge-durable SMOs — no empty
//    leaves can outlive a standby crash.
//  * Resume state is data: the applier folds a cursor-row update
//    (applied-through / replay-from mirror offsets) into every applied
//    transaction, making replay progress exactly as durable as the data.
#include "core/replica.h"

#include <cassert>
#include <chrono>
#include <thread>
#include <utility>

#include "btree/btree.h"
#include "btree/node.h"
#include "common/coding.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace deutero {

namespace {

/// Cursor row payload: [u64 applied_through][u64 replay_from], both mirror
/// offsets (== primary LSNs).
constexpr uint32_t kCursorValueSize = 16;
constexpr Key kCursorKey = 0;

/// Progressive wait of the continuous-replay thread while no chunk is
/// ready: spin briefly, then yield, then (when the scheduler is clearly
/// starving us — oversubscribed cores, sanitizer slowdown) sleep, so an
/// idle standby does not burn a core the primary needs.
void SpinWait(uint32_t* spins) {
  ++*spins;
  if (*spins < 32) return;
  if (*spins < 2048) {
    std::this_thread::yield();
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(50));
  *spins = 2048;  // stay in the sleep regime until progress resets us
}

void EncodeCursor(Lsn applied_through, Lsn replay_from, std::string* out) {
  out->resize(kCursorValueSize);
  EncodeFixed64(&(*out)[0], applied_through);
  EncodeFixed64(&(*out)[8], replay_from);
}

/// Replay's leaf write of one committed op under its standby record
/// `lsn`: the pLSN test, the leaf operation and the stamp. Replay applies
/// every committed op, so there are no DPT tests.
Status ApplyReplayOp(BufferPool* pool, PageId pid, LogRecordType type,
                     Key key, uint32_t value_size, Slice after, Lsn lsn) {
  PageHandle leaf;
  DEUTERO_RETURN_NOT_OK(pool->Get(pid, PageClass::kData, &leaf));
  PageView page = leaf.view();
  // Idempotence across resumes: a recovered standby re-applies the tail
  // from replay_from; ops whose effects recovery already installed are
  // provably stamped (their standby records redo under every method).
  if (lsn <= page.plsn()) return Status::OK();
  int64_t delta = 0;  // row accounting is scan-complete in the applier
  DEUTERO_RETURN_NOT_OK(
      LeafApplyRecord(page, value_size, type, key, after, &delta));
  leaf.MarkDirty(lsn);
  return Status::OK();
}

}  // namespace

// ---- InFlightOps ----

void LogicalReplica::InFlightOps::BeginTxn(TxnId id, Lsn lsn) {
  for (const Slot& s : slots) {
    if (s.id == id) return;
  }
  slots.push_back(Slot{id, lsn, -1, -1});
}

void LogicalReplica::InFlightOps::AddOp(TxnId id, LogRecordType kind,
                                        TableId table, Key key, Lsn lsn) {
  Slot* slot = nullptr;
  for (Slot& s : slots) {
    if (s.id == id) {
      slot = &s;
      break;
    }
  }
  if (slot == nullptr) {
    // Resume re-scan can start past the kTxnBegin record; the first op
    // stands in for it.
    slots.push_back(Slot{id, lsn, -1, -1});
    slot = &slots.back();
  }
  int32_t idx;
  if (free_head >= 0) {
    idx = free_head;
    free_head = ops[idx].next;
  } else {
    ops.emplace_back();
    idx = static_cast<int32_t>(ops.size()) - 1;
  }
  ops[idx] = Op{table, key, lsn, kind, -1};
  if (slot->tail >= 0) {
    ops[slot->tail].next = idx;
  } else {
    slot->head = idx;
  }
  slot->tail = idx;
}

int32_t LogicalReplica::InFlightOps::Take(TxnId id) {
  for (size_t i = 0; i < slots.size(); i++) {
    if (slots[i].id == id) {
      const int32_t head = slots[i].head;
      slots[i] = slots.back();
      slots.pop_back();
      return head;
    }
  }
  return -1;
}

void LogicalReplica::InFlightOps::FreeChain(int32_t head) {
  while (head >= 0) {
    const int32_t next = ops[head].next;
    ops[head].next = free_head;
    free_head = head;
    head = next;
  }
}

Lsn LogicalReplica::InFlightOps::MinFirstLsn() const {
  Lsn min = kInvalidLsn;
  for (const Slot& s : slots) {
    if (min == kInvalidLsn || s.first_lsn < min) min = s.first_lsn;
  }
  return min;
}

void LogicalReplica::InFlightOps::Clear() {
  slots.clear();
  ops.clear();
  free_head = -1;
}

// ---- lifecycle ----

Status LogicalReplica::Open(const EngineOptions& options,
                            std::unique_ptr<LogicalReplica>* out) {
  std::unique_ptr<LogicalReplica> r(new LogicalReplica());
  DEUTERO_RETURN_NOT_OK(Engine::Open(options, &r->engine_));
  r->mirror_ = std::make_unique<LogManager>(
      &r->engine_->clock(), r->engine_->options().log_page_size,
      /*log_page_read_ms=*/0.0);
  // The node-private cursor row, written inside every applied transaction
  // from then on. Bootstrapped through the plain TC path (the standby's own
  // forward operation) before the read-only gate drops.
  TransactionComponent& tc = r->engine_->tc();
  DEUTERO_RETURN_NOT_OK(
      r->engine_->dc().CreateTable(kStandbyCursorTableId, kCursorValueSize));
  TxnId boot = kInvalidTxnId;
  DEUTERO_RETURN_NOT_OK(tc.Begin(&boot));
  {
    // Nobody else can hold the lock on a not-yet-published object; taken
    // anyway because the analysis cannot see that.
    MutexLock lock(&r->apply_mu_);
    EncodeCursor(kInvalidLsn, kFirstLsn, &r->cursor_after_);
    DEUTERO_RETURN_NOT_OK(tc.Write(LogRecordType::kInsert, boot,
                                   kStandbyCursorTableId, kCursorKey,
                                   r->cursor_after_));
  }
  DEUTERO_RETURN_NOT_OK(tc.Commit(boot));
  {
    MutexLock lock(&r->apply_mu_);
    r->applied_boundary_ = kFirstLsn;
  }
  r->engine_->SetReadOnly(true);
  *out = std::move(r);
  return Status::OK();
}

LogicalReplica::~LogicalReplica() { (void)StopContinuousReplay(); }

// ---- the applier core ----

Status LogicalReplica::ProjectedLeafRows(PageId pid, int64_t** count) {
  for (auto& entry : window_) {
    if (entry.first == pid) {
      *count = &entry.second;
      return Status::OK();
    }
  }
  // First slot-mutating op on this leaf in the window: its base count is
  // read once; the window tracks it from then on.
  PageHandle h;
  DEUTERO_RETURN_NOT_OK(engine_->dc().pool().Get(pid, PageClass::kData, &h));
  window_.emplace_back(pid, h.view().num_slots());
  *count = &window_.back().second;
  return Status::OK();
}

Status LogicalReplica::ApplyCommittedTxn(TxnId primary_txn, Lsn commit_lsn,
                                         bool* stop_injected) {
  DataComponent& dc = engine_->dc();
  TransactionComponent& tc = engine_->tc();
  const int32_t head = in_flight_.Take(primary_txn);

  TxnId local = kInvalidTxnId;
  DEUTERO_RETURN_NOT_OK(tc.Begin(&local));

  for (int32_t i = head; i >= 0; i = in_flight_.ops[i].next) {
    const InFlightOps::Op op = in_flight_.ops[i];
    // Re-decode the shipped record by source offset: both images come from
    // the primary (valid under strict 2PL + commit order), zero copies.
    DEUTERO_RETURN_NOT_OK(mirror_->ViewRecordAt(op.lsn, &view_scratch_));
    const BTree* tree = dc.FindTable(op.table);
    if (tree == nullptr) {
      return Status::NotFound("replay of op on unknown table");
    }
    const uint32_t value_size = tree->value_size();
    // Logical->physical mapping under the standby's own geometry, fence-
    // memoized exactly like logical redo.
    PageId pid = kInvalidPageId;
    if (memo_.Hit(op.table, op.key)) {
      pid = memo_.pid;
    } else {
      DEUTERO_RETURN_NOT_OK(dc.FindLeafRanged(op.table, op.key, &pid,
                                              &memo_.lo, &memo_.hi,
                                              &memo_.bounded));
      memo_.table = op.table;
      memo_.pid = pid;
      memo_.valid = true;
    }

    // Inserts and deletes change slot counts: both go through the window.
    // Split prediction: only a would-overflow insert runs the logged split
    // first. Everything else applies straight through.
    if (op.kind != LogRecordType::kUpdate) {
      int64_t* count = nullptr;
      DEUTERO_RETURN_NOT_OK(ProjectedLeafRows(pid, &count));
      if (op.kind == LogRecordType::kDelete) {
        (*count)--;
      } else {
        const auto capacity = static_cast<int64_t>(LeafNodeView::Capacity(
            engine_->options().page_size, value_size));
        if (*count + 1 > capacity) {
          DEUTERO_RETURN_NOT_OK(dc.PrepareInsert(op.table, op.key, &pid));
          window_.clear();  // the split moved rows; every count is stale
          memo_.valid = false;
          DEUTERO_RETURN_NOT_OK(ProjectedLeafRows(pid, &count));
        }
        (*count)++;
      }
    }

    Lsn lsn = kInvalidLsn;
    DEUTERO_RETURN_NOT_OK(tc.LogReplayOp(local, op.kind, op.table, op.key,
                                         view_scratch_.before,
                                         view_scratch_.after, pid, &lsn));
    // Δ-capture BEFORE the apply. Algorithm 4 gives a page first captured
    // by Δ-record N the proxy rLSN of record N-1's TC-LSN — sound only if
    // the pid enters the DirtySet before the next Δ-record after its
    // update. The apply's own pool miss can flush a victim and emit a
    // Δ-record before its MarkDirty lands, which would inflate the proxy
    // past this record and lose the update under a Log1/Log2 standby
    // recovery. Duplicate capture (the apply still marks the page) is
    // explicitly allowed (App. D.2).
    dc.monitor().OnPageDirtied(pid, lsn);
    DEUTERO_RETURN_NOT_OK(ApplyReplayOp(&dc.pool(), pid, op.kind, op.key,
                                        value_size, view_scratch_.after, lsn));
    // Scan-complete row accounting here (the leaf write never touches the
    // counters during replay).
    if (op.kind == LogRecordType::kInsert) {
      dc.AdjustTableRowCount(op.table, 1);
    } else if (op.kind == LogRecordType::kDelete) {
      dc.AdjustTableRowCount(op.table, -1);
      merge_keys_.emplace_back(op.table, op.key);
    }
    ops_applied_++;
    ops_since_checkpoint_++;
    if (apply_stop_after_ops_ > 0 && --apply_stop_after_ops_ == 0) {
      *stop_injected = true;
      break;
    }
  }
  in_flight_.FreeChain(head);

  if (*stop_injected) {
    // Die mid-transaction: make every appended record stable (so local
    // recovery sees the open transaction and undoes it), leave the txn
    // open, and refuse further work until crash + recover.
    tc.ForceLog();
    apply_stopped_ = true;
    return Status::OK();
  }

  // Merge sweep BEFORE the commit record: a commit-durable transaction
  // implies its delete-side SMOs are durable too, so no standby crash can
  // strand empty leaves behind the applied-through mark.
  if (!merge_keys_.empty()) {
    for (const auto& [table, key] : merge_keys_) {
      bool merged = false;
      DEUTERO_RETURN_NOT_OK(dc.MaybeMergeLeaf(table, key, &merged));
      if (merged) agg_.standby_merges++;
    }
    merge_keys_.clear();
    window_.clear();  // merges moved rows across leaves
    memo_.valid = false;
  }

  // Fold the replay cursor into the transaction: applied-through is this
  // commit; replay-from backs up to the earliest still-in-flight op.
  const Lsn min_in_flight = in_flight_.MinFirstLsn();
  const Lsn replay_from =
      (min_in_flight == kInvalidLsn || min_in_flight > commit_lsn)
          ? commit_lsn
          : min_in_flight;
  EncodeCursor(commit_lsn, replay_from, &cursor_after_);
  PageId cursor_pid = kInvalidPageId;
  DEUTERO_RETURN_NOT_OK(dc.LocateForUpdate(kStandbyCursorTableId, kCursorKey,
                                           &cursor_pid, &cursor_before_));
  Lsn cursor_lsn = kInvalidLsn;
  DEUTERO_RETURN_NOT_OK(tc.LogReplayOp(
      local, LogRecordType::kUpdate, kStandbyCursorTableId, kCursorKey,
      cursor_before_, cursor_after_, cursor_pid, &cursor_lsn));
  DEUTERO_RETURN_NOT_OK(dc.Apply(kStandbyCursorTableId, cursor_pid,
                                 LogRecordType::kUpdate, kCursorKey,
                                 cursor_after_, cursor_lsn));
  DEUTERO_RETURN_NOT_OK(tc.Commit(local));
  txns_applied_++;
  return Status::OK();
}

Status LogicalReplica::ApplyMirror(Lsn* next) {
  DataComponent& dc = engine_->dc();

  // The scan's record views and the images it applies alias the mirror:
  // nothing may append to it for the whole apply (the standby's own WAL is
  // a different manager and grows freely).
  LogManager::AliasGuard alias(mirror_.get());

  window_.clear();
  merge_keys_.clear();
  memo_.valid = false;

  Status st;
  bool stop_injected = false;
  auto it = mirror_->NewIterator(mirror_next_, /*charge_io=*/false);
  for (; it.Valid(); it.Next()) {
    const LogRecordView& rec = it.record();
    switch (rec.type) {
      case LogRecordType::kTxnBegin:
        in_flight_.BeginTxn(rec.txn_id, rec.lsn);
        break;
      case LogRecordType::kUpdate:
      case LogRecordType::kInsert:
      case LogRecordType::kDelete:
        // Node-private system tables (a predecessor's replication cursor)
        // never replicate.
        if (rec.table_id >= kStandbySystemTableBase) break;
        in_flight_.AddOp(rec.txn_id, rec.type, rec.table_id, rec.key,
                         rec.lsn);
        break;
      case LogRecordType::kClr:
        // Belongs to a transaction that ends in kTxnAbort; dropped there.
        break;
      case LogRecordType::kTxnAbort:
        in_flight_.Drop(rec.txn_id);
        break;
      case LogRecordType::kCreateTable:
        // DDL replicates logically: same table id and schema, this node's
        // geometry.
        if (rec.table_id >= kStandbySystemTableBase) break;
        if (dc.FindTable(rec.table_id) == nullptr) {
          st = dc.CreateTable(rec.table_id, rec.ddl_value_size);
        }
        break;
      case LogRecordType::kTxnCommit:
        // Commits at or below the recovered applied-through mark were
        // durably applied before the last standby crash.
        if (rec.lsn <= skip_commits_at_or_below_) {
          in_flight_.Drop(rec.txn_id);
          break;
        }
        st = ApplyCommittedTxn(rec.txn_id, rec.lsn, &stop_injected);
        break;
      default:
        // Primary-physical records (Δ, BW, SMOs, checkpoints, RSSP acks)
        // describe the wrong geometry; this node forms its own pages.
        break;
    }
    if (!st.ok() || stop_injected) break;
  }

  assert(alias.Intact());
  if (!st.ok()) {
    failed_ = true;
    return st;
  }
  if (stop_injected) return Status::OK();  // apply_stopped_ is set

  // it.lsn() when the scan ends is the first offset NOT consumed — the
  // start of a torn frame or the stable end: the resume point.
  *next = it.lsn();
  // The lazy writer runs once per applied chunk.
  DEUTERO_RETURN_NOT_OK(dc.Tick());

  // Standby checkpoints happen at ship boundaries only — same cadence knob
  // as the primary.
  if (ops_since_checkpoint_ >=
      engine_->options().checkpoint_interval_updates) {
    DEUTERO_RETURN_NOT_OK(engine_->tc().Checkpoint());
    ops_since_checkpoint_ = 0;
    agg_.checkpoints++;
  }
  return Status::OK();
}

// ---- continuous replay ----

Status LogicalReplica::PumpChunk(ReplicationChannel* channel,
                                 size_t max_chunk_bytes, bool* progressed) {
  MutexLock lock(&apply_mu_);
  if (progressed != nullptr) *progressed = false;
  if (promoted_) return Status::InvalidArgument("standby was promoted");
  if (failed_) {
    return Status::InvalidArgument("standby applier failed; crash+recover");
  }
  if (apply_stopped_) {
    return Status::InvalidArgument("apply stopped; crash+recover the standby");
  }
  if (!engine_->running()) return Status::InvalidArgument("standby is crashed");

  const size_t pulled =
      channel->Pull(mirror_->next_lsn(), max_chunk_bytes, &chunk_buf_);
  if (pulled > 0) {
    mirror_->AppendShipped(Slice(chunk_buf_.data(), chunk_buf_.size()));
    agg_.chunks_shipped++;
    agg_.bytes_shipped += pulled;
  }
  agg_.published_end = channel->published_end();
  agg_.published_txns = channel->published_txns();

  Lsn next = mirror_next_;
  DEUTERO_RETURN_NOT_OK(ApplyMirror(&next));
  if (apply_stopped_) {
    if (progressed != nullptr) *progressed = true;
    return Status::OK();  // partial: resume state is on the cursor row
  }
  const bool moved = pulled > 0 || next != mirror_next_;
  mirror_next_ = next;
  applied_boundary_ = next;
  if (progressed != nullptr) *progressed = moved;
  return Status::OK();
}

Status LogicalReplica::Pump(ReplicationChannel* channel,
                            size_t max_chunk_bytes) {
  bool progressed = true;
  while (progressed) {
    DEUTERO_RETURN_NOT_OK(PumpChunk(channel, max_chunk_bytes, &progressed));
    MutexLock lock(&apply_mu_);
    if (apply_stopped_) break;
  }
  return Status::OK();
}

Status LogicalReplica::StartContinuousReplay(ReplicationChannel* channel,
                                             size_t max_chunk_bytes) {
  if (replay_running_) {
    return Status::InvalidArgument("continuous replay already running");
  }
  {
    MutexLock lock(&apply_mu_);
    if (promoted_) return Status::InvalidArgument("standby was promoted");
  }
  replay_stop_.store(false, std::memory_order_release);
  replay_error_ = Status::OK();
  replay_thread_ = std::thread([this, channel, max_chunk_bytes] {
    uint32_t spins = 0;
    while (!replay_stop_.load(std::memory_order_acquire)) {
      bool progressed = false;
      const Status st = PumpChunk(channel, max_chunk_bytes, &progressed);
      if (!st.ok()) {
        replay_error_ = st;
        break;
      }
      if (progressed) {
        spins = 0;
        continue;
      }
      SpinWait(&spins);
    }
  });
  replay_running_ = true;
  return Status::OK();
}

Status LogicalReplica::StopContinuousReplay() {
  if (!replay_running_) return Status::OK();
  replay_stop_.store(true, std::memory_order_release);
  replay_thread_.join();
  replay_running_ = false;
  return replay_error_;
}

// ---- reads gated at the applied boundary ----

Status LogicalReplica::SnapshotRead(TableId table, Key key,
                                    std::string* value) {
  MutexLock lock(&apply_mu_);
  return engine_->Read(table, key, value);
}

Status LogicalReplica::SnapshotScan(
    TableId table, Key lo, Key hi,
    const std::function<void(Key, Slice)>& fn) {
  MutexLock lock(&apply_mu_);
  ScanCursor cursor;
  DEUTERO_RETURN_NOT_OK(engine_->Scan(table, lo, hi, &cursor));
  while (cursor.Valid()) {
    fn(cursor.key(), cursor.value());
    DEUTERO_RETURN_NOT_OK(cursor.Next());
  }
  return Status::OK();
}

Lsn LogicalReplica::read_boundary() const {
  MutexLock lock(&apply_mu_);
  return applied_boundary_;
}

ReplicationStats LogicalReplica::stats() const {
  MutexLock lock(&apply_mu_);
  ReplicationStats s = agg_;
  s.shipped_end = mirror_ != nullptr ? mirror_->stable_end() : kInvalidLsn;
  s.applied_boundary = applied_boundary_;
  s.txns_applied = txns_applied_;
  s.ops_applied = ops_applied_;
  s.lsn_lag = s.published_end > applied_boundary_
                  ? s.published_end - applied_boundary_
                  : 0;
  s.txn_lag =
      s.published_txns > txns_applied_ ? s.published_txns - txns_applied_ : 0;
  return s;
}

// ---- standby crash / failover ----

void LogicalReplica::CrashStandby() {
  (void)StopContinuousReplay();
  MutexLock lock(&apply_mu_);
  if (engine_->running()) engine_->SimulateCrash();
  apply_stopped_ = false;
  apply_stop_after_ops_ = 0;
  failed_ = false;
}

Status LogicalReplica::RecoverStandbyLocked(RecoveryMethod method,
                                            RecoveryStats* stats) {
  if (engine_->running()) {
    return Status::InvalidArgument("standby is not crashed");
  }
  RecoveryStats local;
  DEUTERO_RETURN_NOT_OK(
      engine_->Recover(method, stats != nullptr ? stats : &local));
  engine_->SetReadOnly(true);
  // The durable cursor is the resume contract: drop everything applied at
  // or below applied_through, rebuild in-flight txns from replay_from.
  std::string cursor;
  DEUTERO_RETURN_NOT_OK(engine_->Read(kStandbyCursorTableId, kCursorKey,
                                      &cursor));
  if (cursor.size() != kCursorValueSize) {
    return Status::Corruption("replication cursor row has a bad size");
  }
  const Lsn applied_through = DecodeFixed64(cursor.data());
  const Lsn replay_from = DecodeFixed64(cursor.data() + 8);
  skip_commits_at_or_below_ = applied_through;
  mirror_next_ = replay_from;
  applied_boundary_ = applied_through;
  in_flight_.Clear();
  window_.clear();
  merge_keys_.clear();
  memo_.valid = false;
  apply_stopped_ = false;
  apply_stop_after_ops_ = 0;
  failed_ = false;
  return Status::OK();
}

Status LogicalReplica::RecoverStandby(RecoveryMethod method,
                                      RecoveryStats* stats) {
  (void)StopContinuousReplay();
  MutexLock lock(&apply_mu_);
  return RecoverStandbyLocked(method, stats);
}

Status LogicalReplica::Promote(RecoveryMethod method, RecoveryStats* stats) {
  (void)StopContinuousReplay();
  MutexLock lock(&apply_mu_);
  if (promoted_) return Status::OK();
  // A half-applied chunk (stopped applier, poisoned applier) only exists
  // in volatile state: crash it away and let local recovery reconstruct
  // the durable prefix — the same path a crashed standby takes.
  if (engine_->running() && (apply_stopped_ || failed_)) {
    engine_->SimulateCrash();
  }
  if (!engine_->running()) {
    DEUTERO_RETURN_NOT_OK(RecoverStandbyLocked(method, stats));
  }
  in_flight_.Clear();
  engine_->SetReadOnly(false);
  promoted_ = true;
  return Status::OK();
}

// ---- remote repair ----

Status StandbyRepairSource::FetchRows(TableId table, Key lo, Key hi,
                                      std::vector<std::pair<Key, std::string>>*
                                          rows,
                                      Lsn* as_of) {
  rows->clear();
  // Sample the boundary first: the scan below reflects AT LEAST this much
  // (replay only moves it forward), and an under-reported boundary makes
  // the caller replay a few extra transactions idempotently.
  *as_of = standby_->read_boundary();
  return standby_->SnapshotScan(table, lo, hi, [rows](Key key, Slice value) {
    rows->emplace_back(key, std::string(value.data(), value.size()));
  });
}

}  // namespace deutero
