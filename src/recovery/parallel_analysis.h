// Partitioned parallel DPT construction (ISSUE 9 tentpole): the two
// analysis-side scans — SQL Server's integrated analysis pass (Algorithm 3)
// and the logical DC recovery pass (Algorithm 4) — re-expressed on the
// PR 4 dispatcher/worker skeleton (pipeline_util.h).
//
// Shape. One log-scanning dispatcher resolves every DPT mutation to a
// (pid, lsn) event and routes it by RedoPartitionOf(pid) to N shard
// workers over SPSC rings; each worker owns a private DirtyPageTable
// shard it mutates with no locking at all. DPT operations on distinct
// PIDs commute (the table is logically a map keyed by PID) and every
// PID's events land in one FIFO, so per-page event order — the only
// order the DPT semantics depend on — is exactly the serial scan's.
//
// What stays on the dispatcher, in log order: the ActiveTxnTable and
// max_txn_id (assembled in LSN order, as undo requires), redo_start_lsn,
// the prev-Δ TC-LSN chain that resolves each dirty-set entry's rLSN proxy
// before routing, and all scan counters. Workers see only resolved
// scalars, so no log-buffer Slice ever crosses a thread boundary and no
// alias guard is needed. The DC pass's structure replay touches the buffer
// pool and the simulated clock, which workers never do: the dispatcher
// runs it after the shards are merged, through the same ReplayDcStructure
// as the serial pass, so it filters by the final DPT.
//
// PF-list (App. A.2): global first-mention DirtySet order. The dispatcher
// stamps every routed dirty-set entry with a global sequence number; a
// worker records (seq, pid) at its shard-local first mention — which IS
// the global first mention, since a PID maps to exactly one shard — and
// the merged list is sorted by seq.
//
// Simulated time. The serial passes charge cpu_per_dpt_update_us per DPT
// mutation event, folded once at pass end (inline-equivalent: nothing in
// an analysis pass depends on absolute time between records). The
// parallel pass counts events per shard and folds only the slowest
// shard's share — deterministic, independent of thread scheduling — so
// DPT construction scales with recovery_threads in simulated time the
// same way parallel redo's apply CPU does. Log-page read I/O stays on
// the dispatcher's iterator (charge_io), identical to serial.
//
// recovery_threads == 1 does not go through this code at all; the
// RecoveryManager calls the serial passes, bit-exactly as before.
#pragma once

#include <cstdint>

#include "common/options.h"
#include "common/status.h"
#include "common/types.h"
#include "dc/data_component.h"
#include "recovery/analysis.h"
#include "sim/clock.h"
#include "wal/log_manager.h"

namespace deutero {

/// Parallel counterpart of RunSqlAnalysis (same contract, plus the shard
/// worker count). Falls back to the serial pass when threads < 2. The DPT,
/// ATT, redo_start_lsn and every counter are identical to the serial
/// pass's on the same log.
Status RunSqlAnalysisParallel(LogManager* log, Lsn bckpt_lsn,
                              uint32_t threads, SqlAnalysisResult* out,
                              SimClock* clock = nullptr,
                              double cpu_per_dpt_update_us = 0);

/// Parallel counterpart of RunDcRecovery (same contract, plus the shard
/// worker count). Falls back to the serial pass when threads < 2 or when
/// build_dpt is false (no DPT work to shard — Log0 only needs the serial
/// SMO replay). DPT, PF-list (exact order) and counters match serial.
Status RunDcRecoveryParallel(LogManager* log, DataComponent* dc,
                             Lsn bckpt_lsn, DptMode mode, bool build_dpt,
                             bool preload_index, uint32_t threads,
                             DcRecoveryResult* out);

}  // namespace deutero
