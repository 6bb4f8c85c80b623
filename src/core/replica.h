// Logical log shipping and hot standby — the paper's second motivation for
// logical recovery (§1.1): "the data can be replicated in a database using
// a different kind of stable storage, e.g. a disk with different page size
// ... Because the log records shipped to the replica are logical, they can
// be applied to disparate physical system configurations."
//
// Three pieces:
//
//  * ReplicationChannel — the stable shipping medium between a primary and
//    its standbys, and a standby's only feed (there is no pull API that
//    reads a primary's log directly). Publish() snapshots the primary's
//    newly-stable log bytes (published bytes survive a primary crash: the
//    stable log never shrinks); Pull() hands out bounded chunks. Chunk
//    boundaries need no framing negotiation — a chunk may cut a record
//    mid-frame, and the log's CRC check makes the torn tail invisible until
//    the next chunk lands.
//
//  * LogicalReplica — a full engine with its own (possibly different) page
//    geometry that consumes the stream CONTINUOUSLY: each pulled chunk is
//    appended to a local mirror log (same byte offsets as the primary) and
//    applied one op at a time on the pumping thread.
//    Only the logical content of committed transactions is applied:
//    (table, key, after-image), re-logged as the standby's OWN WAL records
//    (TC::LogReplayOp) so standby pLSNs never mix with primary LSNs.
//    Primary Δ/BW-records, SMOs and checkpoints are meaningless under the
//    standby's geometry and are skipped; the standby forms its own pages,
//    runs its own splits/merges, and takes its own checkpoints.
//
//  * Failover — Promote() turns the standby into a writable primary at an
//    arbitrary ship boundary: stop replay, run LOCAL crash recovery (any
//    RecoveryMethod) for the tail of partially-applied work, drop the
//    read-only gate. Resume state (how far the mirror was applied) rides in
//    a node-private cursor row updated inside every applied transaction, so
//    it is exactly as durable as the data it describes.
//
// Reads on the standby are gated at the last applied ship boundary:
// SnapshotRead/SnapshotScan serialize against chunk application, so a
// reader never observes a half-applied chunk.
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/options.h"
#include "common/status.h"
#include "core/engine.h"
#include "recovery/redo.h"
#include "wal/log_manager.h"

namespace deutero {

/// Table ids at or above this base are node-private system tables (the
/// standby's replication cursor). They are never replicated: the applier
/// skips shipped records naming them, so a promoted standby's own cursor
/// does not leak into the stream it ships to its successors.
inline constexpr TableId kStandbySystemTableBase = 0xFFFFFF00u;
/// Single-row table holding the standby's replication cursor (key 0).
inline constexpr TableId kStandbyCursorTableId = kStandbySystemTableBase;

/// The stable medium between a primary and its standbys. Thread-safe; a
/// publisher (the primary side) and any number of pullers may interleave.
/// Bytes are addressed by primary LSN: the internal buffer starts with the
/// same 1-byte pad as a LogManager, so offset == LSN throughout.
class ReplicationChannel {
 public:
  struct Stats {
    Lsn published_end = kFirstLsn;  ///< First LSN not yet published.
    uint64_t published_txns = 0;    ///< Primary commits covered by the above.
    uint64_t publishes = 0;
    uint64_t chunks_pulled = 0;
    uint64_t bytes_pulled = 0;
  };

  /// Ship every newly-stable primary log byte onto the channel. Callable
  /// any time the primary is running or crashed — the stable log never
  /// shrinks, so published bytes are always a prefix of stable bytes.
  void Publish(Engine& primary) {
    MutexLock lock(&mu_);
    const Slice fresh = primary.wal().StableBytes(buf_.size());
    if (!fresh.empty()) buf_.append(fresh.data(), fresh.size());
    published_txns_ = primary.tc().stats().committed;
    publishes_++;
  }

  /// Copy up to `max_bytes` published bytes starting at LSN `from` into
  /// *out (capacity reused across calls). Returns the byte count; 0 means
  /// the puller is caught up. The cut may land mid-record.
  size_t Pull(Lsn from, size_t max_bytes, std::string* out) {
    MutexLock lock(&mu_);
    out->clear();
    if (from >= buf_.size() || max_bytes == 0) return 0;
    const size_t n =
        std::min<size_t>(max_bytes, buf_.size() - static_cast<size_t>(from));
    out->append(buf_.data() + from, n);
    chunks_pulled_++;
    bytes_pulled_ += n;
    return n;
  }

  Lsn published_end() const {
    MutexLock lock(&mu_);
    return static_cast<Lsn>(buf_.size());
  }
  uint64_t published_txns() const {
    MutexLock lock(&mu_);
    return published_txns_;
  }
  Stats stats() const {
    MutexLock lock(&mu_);
    return Stats{static_cast<Lsn>(buf_.size()), published_txns_, publishes_,
                 chunks_pulled_, bytes_pulled_};
  }

 private:
  mutable Mutex mu_;
  /// buf_[lsn] is the published log byte at that primary LSN (1-byte pad,
  /// exactly like LogManager::buffer_).
  std::string buf_ GUARDED_BY(mu_) = std::string(1, '\0');
  uint64_t published_txns_ GUARDED_BY(mu_) = 0;
  uint64_t publishes_ GUARDED_BY(mu_) = 0;
  uint64_t chunks_pulled_ GUARDED_BY(mu_) = 0;
  uint64_t bytes_pulled_ GUARDED_BY(mu_) = 0;
};

/// Standby-side replication progress and lag, sampled under the apply lock.
struct ReplicationStats {
  Lsn published_end = kInvalidLsn;   ///< Channel end at the last pump.
  Lsn shipped_end = kInvalidLsn;     ///< Mirror stable end (bytes received).
  Lsn applied_boundary = kInvalidLsn;  ///< Last applied ship boundary.
  uint64_t lsn_lag = 0;   ///< published_end - applied_boundary (bytes).
  uint64_t txn_lag = 0;   ///< Primary commits not yet applied here.
  uint64_t published_txns = 0;  ///< Primary commits at the last pump.
  uint64_t chunks_shipped = 0;
  uint64_t bytes_shipped = 0;
  uint64_t txns_applied = 0;
  uint64_t ops_applied = 0;
  uint64_t standby_merges = 0;  ///< Local delete-side SMOs run on apply.
  uint64_t checkpoints = 0;     ///< Standby checkpoints at ship boundaries.
};

class LogicalReplica {
 public:
  /// Default chunk bound: a few log pages' worth per ship.
  static constexpr size_t kDefaultChunkBytes = 64 * 1024;

  /// Build a standby with its own geometry. `options.num_rows` must match
  /// the primary's initial load (the base snapshot the log stream extends).
  /// The standby engine opens read-only: external writes are refused until
  /// Promote().
  static Status Open(const EngineOptions& options,
                     std::unique_ptr<LogicalReplica>* out);

  ~LogicalReplica();

  // ---- continuous replay (channel-fed standby) ----

  /// Pull one chunk (≤ max_chunk_bytes) from the channel into the mirror
  /// log and apply every complete committed transaction now visible.
  /// *progressed reports whether any bytes arrived or records applied.
  Status PumpChunk(ReplicationChannel* channel, size_t max_chunk_bytes,
                   bool* progressed);

  /// Pump until caught up with everything currently published.
  Status Pump(ReplicationChannel* channel,
              size_t max_chunk_bytes = kDefaultChunkBytes);

  /// Background replay: a thread that pumps the channel continuously until
  /// StopContinuousReplay() (which returns the first replay error, if any).
  Status StartContinuousReplay(ReplicationChannel* channel,
                               size_t max_chunk_bytes = kDefaultChunkBytes);
  Status StopContinuousReplay();

  // ---- reads on the standby (gated at the applied boundary) ----

  /// Read `key` of `table` as of the last applied ship boundary.
  Status SnapshotRead(TableId table, Key key, std::string* value);
  /// Scan [lo, hi] of `table` as of the last applied ship boundary; rows
  /// stream through `fn` while the boundary is held.
  Status SnapshotScan(TableId table, Key lo, Key hi,
                      const std::function<void(Key, Slice)>& fn);
  /// Mirror LSN every SnapshotRead/SnapshotScan currently reflects.
  Lsn read_boundary() const;

  // ---- standby crash / failover ----

  /// Crash the standby engine (volatile state drops; the mirror log and
  /// the channel survive — the channel is the stable medium).
  void CrashStandby();

  /// Local crash recovery with any method, then resume replay exactly
  /// where the durable cursor says: re-apply nothing at or below the
  /// applied-through mark, rebuild in-flight transactions from replay_from.
  Status RecoverStandby(RecoveryMethod method, RecoveryStats* stats = nullptr);

  /// Fail over: stop replay, run local recovery for the partially-applied
  /// tail (crashing first if a partial chunk is in memory), and accept
  /// writes. The promoted engine's own WAL is a complete history — it can
  /// itself be published to a new standby.
  Status Promote(RecoveryMethod method, RecoveryStats* stats = nullptr);
  bool promoted() const {
    MutexLock lock(&apply_mu_);
    return promoted_;
  }

  ReplicationStats stats() const;

  Engine& engine() { return *engine_; }

  uint64_t txns_applied() const {
    MutexLock lock(&apply_mu_);
    return txns_applied_;
  }
  uint64_t ops_applied() const {
    MutexLock lock(&apply_mu_);
    return ops_applied_;
  }

  /// Test-only fault injection: stop applying (leaving the current replay
  /// transaction open and its records forced to the standby WAL) after
  /// `ops` more operations — the "standby dies mid-chunk" scenario. The
  /// standby then refuses further pumps until CrashStandby +
  /// RecoverStandby.
  void InjectApplyStopForTest(uint64_t ops) {
    MutexLock lock(&apply_mu_);
    apply_stop_after_ops_ = ops;
  }

 private:
  /// Pooled in-flight transaction table: per-txn chains of (table, key,
  /// source-log offset) triples in one flat arena with an intrusive free
  /// list. Images are NOT copied — the applier re-decodes each record from
  /// the mirror by offset at apply time (mirror offsets are stable
  /// forever), so steady-state chunk apply allocates nothing.
  struct InFlightOps {
    struct Op {
      TableId table = kInvalidTableId;
      Key key = 0;
      Lsn lsn = kInvalidLsn;  ///< Source-log offset of the data record.
      LogRecordType kind = LogRecordType::kInvalid;
      int32_t next = -1;
    };
    struct Slot {
      TxnId id = kInvalidTxnId;
      Lsn first_lsn = kInvalidLsn;
      int32_t head = -1;
      int32_t tail = -1;
    };

    void BeginTxn(TxnId id, Lsn lsn);
    void AddOp(TxnId id, LogRecordType kind, TableId table, Key key, Lsn lsn);
    /// Detach and return the op chain head (-1 if the txn is unknown or
    /// empty), removing the slot. Caller must FreeChain() the head.
    int32_t Take(TxnId id);
    void FreeChain(int32_t head);
    void Drop(TxnId id) { FreeChain(Take(id)); }
    /// Earliest first-LSN across live txns; kInvalidLsn if none.
    Lsn MinFirstLsn() const;
    void Clear();

    std::vector<Op> ops;
    std::vector<Slot> slots;
    int32_t free_head = -1;
  };

  LogicalReplica() = default;

  /// The applier core: scan the mirror from mirror_next_, buffer in-flight
  /// ops, apply committed transactions, and return the first unconsumed
  /// offset in *next.
  Status ApplyMirror(Lsn* next) REQUIRES(apply_mu_);
  Status ApplyCommittedTxn(TxnId primary_txn, Lsn commit_lsn,
                           bool* stop_injected) REQUIRES(apply_mu_);
  /// Projected row count of standby leaf `pid` this apply window (base
  /// count read once, then tracked by the applier).
  Status ProjectedLeafRows(PageId pid, int64_t** count) REQUIRES(apply_mu_);
  Status RecoverStandbyLocked(RecoveryMethod method, RecoveryStats* stats)
      REQUIRES(apply_mu_);

  std::unique_ptr<Engine> engine_;

  /// Mirror of the primary log: every pulled chunk is appended verbatim,
  /// so mirror LSN == primary LSN for every shipped record. Survives
  /// standby crashes (the channel is durable; the mirror is its local
  /// replica image).
  std::unique_ptr<LogManager> mirror_;
  Lsn mirror_next_ GUARDED_BY(apply_mu_) =
      kFirstLsn;  ///< First mirror offset not yet applied.
  Lsn applied_boundary_ GUARDED_BY(apply_mu_) =
      kInvalidLsn;  ///< Read gate (last applied boundary).
  /// Commits at or below this source LSN were durably applied before the
  /// last standby crash: the resume re-scan drops them.
  Lsn skip_commits_at_or_below_ GUARDED_BY(apply_mu_) = kInvalidLsn;

  InFlightOps in_flight_ GUARDED_BY(apply_mu_);

  // Applier scratch, all capacity-reused across chunks (zero steady-state
  // allocation; proven by hotpath_alloc_test).
  std::string chunk_buf_ GUARDED_BY(apply_mu_);
  LogRecordView view_scratch_ GUARDED_BY(apply_mu_);
  std::vector<std::pair<PageId, int64_t>> window_
      GUARDED_BY(apply_mu_);  ///< Leaf count window.
  std::vector<std::pair<TableId, Key>> merge_keys_ GUARDED_BY(apply_mu_);
  RedoLeafMemo memo_ GUARDED_BY(apply_mu_);
  std::string cursor_before_ GUARDED_BY(apply_mu_);
  std::string cursor_after_ GUARDED_BY(apply_mu_);

  uint64_t txns_applied_ GUARDED_BY(apply_mu_) = 0;
  uint64_t ops_applied_ GUARDED_BY(apply_mu_) = 0;
  uint64_t ops_since_checkpoint_ GUARDED_BY(apply_mu_) = 0;
  /// Monotonic counters (derived fields unused).
  ReplicationStats agg_ GUARDED_BY(apply_mu_);

  /// Serializes chunk application against snapshot reads and control
  /// operations (crash/recover/promote).
  mutable Mutex apply_mu_;

  /// Replay-thread lifecycle: written by Start/StopContinuousReplay (which
  /// the caller serializes) and never by the replay thread itself, except
  /// replay_error_, which the thread writes before exiting and the stopper
  /// reads only after join() — ordered by the join, so none of these sit
  /// under apply_mu_.
  std::thread replay_thread_;
  std::atomic<bool> replay_stop_{false};
  bool replay_running_ = false;
  Status replay_error_;

  bool promoted_ GUARDED_BY(apply_mu_) = false;
  /// Injection tripped; crash+recover next.
  bool apply_stopped_ GUARDED_BY(apply_mu_) = false;
  /// An apply error poisoned the standby.
  bool failed_ GUARDED_BY(apply_mu_) = false;
  /// Countdown; 0 = disabled.
  uint64_t apply_stop_after_ops_ GUARDED_BY(apply_mu_) = 0;
};

/// Remote single-page repair over the replication channel: serves
/// PageRepairer::RepairFromSource with the committed rows of a key range
/// as seen by a hot standby at its applied ship boundary. The boundary is
/// sampled BEFORE the scan — with continuous replay running it may advance
/// underneath, and under-reporting is the safe direction (see
/// RepairSource's contract). Attach with Engine::SetRepairSource.
class StandbyRepairSource : public RepairSource {
 public:
  explicit StandbyRepairSource(LogicalReplica* standby) : standby_(standby) {}

  Status FetchRows(TableId table, Key lo, Key hi,
                   std::vector<std::pair<Key, std::string>>* rows,
                   Lsn* as_of) override;

 private:
  LogicalReplica* standby_;
};

}  // namespace deutero
