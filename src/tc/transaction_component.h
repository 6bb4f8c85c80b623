// Deuteronomy transactional component (TC): transactions, logical locking,
// logical logging, and the checkpoint protocol. The TC never names pages in
// its own records — updates are logged as (table, key, before, after). The
// page id present in update records exists solely because the experiments
// run both recovery families from one common log (paper §5.1); logical
// recovery ignores it.
//
// Checkpointing (§3.2 / §4.2, penultimate scheme):
//   1. append bCkpt, force the log, EOSL;
//   2. RSSP(bCkpt LSN) to the DC — it flushes everything dirtied by
//      operations at or before that point and logs an RSSP ack;
//   3. append eCkpt naming the bCkpt, force, update the master record.
// The redo scan start point of the NEXT recovery is this bCkpt.
//
// Every data operation goes through Write: lock, locate (the before-image),
// log, then DataComponent::Apply — so a record reaches the log only once
// every check that could refuse its apply has passed.
//
// Runtime rollback is not here: the engine runs recovery's undo pass on the
// one loser (recovery/undo.h), which writes the CLRs and the abort record,
// and the TC keeps only the abort's tail (FinishAbort).
//
// Hot-path allocation behaviour: data operations encode through a scratch
// LogRecord whose before/after strings keep their capacity across calls,
// and the active-transaction table is a flat vector with recycled capacity,
// so a steady-state operation performs no heap allocation in the TC.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/options.h"
#include "common/status.h"
#include "common/types.h"
#include "concurrency/sharded_lock_manager.h"
#include "dc/data_component.h"
#include "wal/log_manager.h"

namespace deutero {

class TransactionComponent {
 public:
  struct ActiveTxn {
    TxnId id = kInvalidTxnId;
    Lsn first_lsn = kInvalidLsn;
    Lsn last_lsn = kInvalidLsn;
  };

  struct Stats {
    uint64_t begun = 0;
    uint64_t committed = 0;
    uint64_t aborted = 0;
    uint64_t updates = 0;
    uint64_t inserts = 0;
    uint64_t deletes = 0;
    uint64_t checkpoints = 0;
    uint64_t log_forces = 0;
  };

  TransactionComponent(LogManager* log, DataComponent* dc,
                       const EngineOptions& options);

  Status Begin(TxnId* txn);
  /// The TC's one write, of `op` (kUpdate, kInsert or kDelete); `value` is
  /// the after-image, ignored for a delete. A write the DC would refuse —
  /// an unknown transaction, a wrong value size, a missing key for an
  /// update or delete, a present key for an insert — returns before
  /// anything is logged. A delete that leaves its leaf underfull merges it.
  Status Write(LogRecordType op, TxnId txn, TableId table, Key key,
               Slice value);
  Status Read(TxnId txn, TableId table, Key key, std::string* value);
  Status Commit(TxnId txn);

  /// Group-commit front half: append the commit record and detach the
  /// transaction (locks released, ATT entry erased) WITHOUT forcing the
  /// log. `*durable_point` receives the first log offset whose stability
  /// makes the commit durable — what the caller hands to
  /// GroupCommit::WaitDurable. Early lock release is sound because the log
  /// flushes in prefix order: any dependent writer's commit record lands
  /// at a higher LSN, so its durability implies this one's.
  Status CommitRequest(TxnId txn, Lsn* durable_point);

  /// Pre-acquire the (table, key) lock for an upcoming operation OUTSIDE
  /// the engine's forward gate. Blocking lock waits must never run under
  /// the gate — the holder that has to release needs the gate to commit.
  /// The operation's own Acquire then re-grants instantly.
  Status AcquireLock(TxnId txn, TableId table, Key key, bool exclusive) {
    return locks_.Acquire(txn, table, key,
                          exclusive ? ShardedLockManager::LockMode::kExclusive
                                    : ShardedLockManager::LockMode::kShared);
  }

  /// Cleanup for a failed pre-acquired lock: if `txn` is not in the active
  /// table (the gated operation rejected it as unknown), drop whatever the
  /// pre-gate AcquireLock granted so nothing leaks. Call under the gate.
  void ReleaseLocksIfInactive(TxnId txn) {
    if (FindActive(txn) == nullptr) locks_.ReleaseAll(txn);
  }

  /// Replication replay: append a data-op record (kUpdate/kInsert/kDelete)
  /// to an open transaction WITHOUT locking or applying it — the standby
  /// applier owns structure preparation (splits/merges) and the leaf apply,
  /// and the shipped primary images supply both the redo and the undo
  /// image (valid because the primary ran strict 2PL and the standby
  /// applies committed transactions in commit order). Chains prev_lsn,
  /// maintains the ATT entry, returns the record's LSN.
  Status LogReplayOp(TxnId txn, LogRecordType type, TableId table, Key key,
                     Slice before, Slice after, PageId pid, Lsn* lsn);

  /// LSN of `txn`'s last logged record: where a rollback's backchain walk
  /// starts. InvalidArgument if `txn` is not active.
  Status LastLsn(TxnId txn, Lsn* last);

  /// Re-point `txn`'s chain tail (a rollback cut short keeps the CLRs it
  /// wrote on the chain). No-op if `txn` is not active.
  void SetLastLsn(TxnId txn, Lsn last);

  /// Tail of a runtime abort, once the undo pass has written the CLRs and
  /// the abort record: force the log, release the locks, drop the
  /// transaction and count the abort.
  Status FinishAbort(TxnId txn);

  /// Penultimate checkpoint. Reports pages flushed by the DC's RSSP.
  Status Checkpoint(uint64_t* pages_flushed = nullptr);

  /// WAL-force hook for the DC's buffer pool: ensure the log is stable at
  /// least through `lsn` and refresh the DC's eLSN.
  void ForceLogUpTo(Lsn lsn);

  /// Force the log and send EOSL (group commit boundary).
  void ForceLog();

  /// Drop volatile TC state (active transactions, locks).
  void SimulateCrash();

  /// Recovery hands back the transaction-id high-water mark it observed.
  void SetNextTxnId(TxnId next) { next_txn_ = next > next_txn_ ? next : next_txn_; }

  /// Test-only fault injection: make Checkpoint() stop at a protocol point.
  void set_crash_points(const CrashPoints& cp) { options_.crash_points = cp; }

  /// Live transactions, unordered. Entries are live only (no free slots).
  const std::vector<ActiveTxn>& active_txns() const { return active_; }
  ShardedLockManager& locks() { return locks_; }
  const Stats& stats() const { return stats_; }

 private:
  ActiveTxn* FindActive(TxnId txn);
  /// Remove `t` from the active list (swap-with-back; capacity retained).
  void EraseActive(ActiveTxn* t);
  /// Append `t`'s next data-op record through scratch_, whose `before`
  /// the caller has already filled; chains prev_lsn and returns the LSN.
  Lsn AppendDataOp(ActiveTxn* t, LogRecordType type, TableId table, Key key,
                   Slice after, PageId pid);
  /// Count one data op (kUpdate, kInsert or kDelete) in stats_.
  void CountOp(LogRecordType type);

  LogManager* log_;
  DataComponent* dc_;
  EngineOptions options_;
  ShardedLockManager locks_;
  std::vector<ActiveTxn> active_;
  TxnId next_txn_ = 1;
  /// Scratch for data-op logging: before/after capacity is reused across
  /// operations so the append path stays allocation-free.
  LogRecord scratch_;
  Stats stats_;
};

}  // namespace deutero
