// The five redo engines of the paper's evaluation (§5.2), on one
// partitioned pipeline (cf. Wu et al., "Fast Failure Recovery for
// Main-Memory DBMSs on Multicores"):
//
//   RunLogicalRedo covers Log0 (Algorithm 2: basic logical redo), Log1
//   (Algorithm 5: DPT-assisted with the tail-of-log fallback) and Log2
//   (Algorithm 5 + PF-list prefetch). Log2's index preload is done before
//   redo starts: it ran under the DC pass's scan and structure replay, and
//   the pass ended once every internal page of the final tree was loaded
//   (analysis.h). Log2 builds the PF-list from the final DPT in claim
//   order, then the log tail's pages the DC pass listed (prefetch.h), and
//   charges cpu_per_dpt_update_us per listed page.
//
//   RunSqlRedo covers SQL1 (Algorithm 1: physiological redo with DPT and
//   rLSN test) and SQL2 (+ log-driven prefetch).
//
// Both also maintain the active-transaction table for the logical families
// (the SQL family gets it from analysis) and replay CLRs (redo-only, ARIES).
//
// Shape. One log-scan DISPATCHER maps each data record to the leaf it
// applies to — the PID named by the record (physiological), or the PID
// its fence-memoized index traversal finds (logical; the tree's structure
// is frozen during the pass) — and hands it to the partition that owns
// that leaf, Hash(pid) -> partition. Every page is owned by exactly one
// partition and per-page log order is preserved, which is the whole
// correctness argument: redo's effects are per-page state transitions
// guarded by the pLSN test, and both are per-page serial here.
//
// `threads` is the partition count. With one partition the dispatcher
// runs the partition's apply body inline — no thread, ring, gate or DPT
// shard — and charges the simulated clock exactly where the paper's
// serial pass does: the log iterator its pages, each record its scan CPU,
// each re-execution its apply CPU. No pin outlives its record.
//
// Read-ahead is the paper's own prefetcher at every partition count
// (prefetch.h: the PF-list for Log2, the log-driven window for SQL2). The
// dispatcher pumps it as it scans, under the pool gate beside workers.
//
// With N >= 2 partitions a crew of workers applies (apply_worker.h), and
// the pass-wide contracts are re-drawn:
//  * Buffer pool — NOT thread-safe by itself; every pool call (Get, pin
//    release, MarkDirty bookkeeping, prefetch, eviction/flush) is
//    serialized by a pass-wide pool gate (one mutex). The leaf binary
//    search/shift/copy and the pLSN read run OUTSIDE the gate on the
//    pinned frame, which is safe because the page belongs to the applying
//    partition. Small per-worker pin caches amortize the gate over
//    same-leaf runs.
//  * DPT — read-only during redo; each worker receives its own shard
//    (exactly the entries whose PIDs hash to its partition).
//  * RedoResult — each worker fills a private shard; the dispatcher merges
//    them after the join. Scan-order state (ATT maintenance, the leaf
//    memo, records_scanned/examined) lives on the dispatcher.
//  * WAL iterator hand-off — work items carry Slices that alias the log
//    buffer, valid across threads exactly while the log's generation
//    counter is unchanged; a LogManager::AliasGuard holds over the pass
//    (redo never appends).
//  * SMO/DDL barrier (SQL family) — a kSmo/kSmoMerge/kCreateTable record
//    spans partitions, so the dispatcher drops every worker's pins, waits
//    until every queue is fully APPLIED, replays the record itself, then
//    resumes. The logical family needs no barrier: the DC pass already
//    replayed its SMOs.
//  * Read-ahead — one window for the pass, on the dispatcher. Its slots
//    free as workers claim their pages, so it keeps to the pace of the
//    pass as a whole. The escape hatch that frees a stalled slot counts
//    only the pumps after which the clock moved (PrefetchWindow::Drain):
//    the dispatcher pumps many times at one simulated instant.
//  * Simulated time — I/O waits stay on the global clock (the device is
//    shared and its queue is serialized under the gate), and the
//    dispatcher's scan CPU is charged to it live in small batches so
//    absolute completion times (prefetch!) keep their meaning. Worker
//    apply CPU is accumulated per partition and folded once at pass end as
//    max(worker CPU) MINUS the I/O stall time the pass already waited out,
//    clamped at zero: while one partition stalls the others keep applying,
//    so an I/O-gated pass converges to the data I/O floor and a
//    cache-resident pass shows the 1/N CPU scaling.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/options.h"
#include "common/status.h"
#include "common/types.h"
#include "dc/data_component.h"
#include "recovery/analysis.h"
#include "recovery/dpt.h"
#include "recovery/stats.h"
#include "wal/log_manager.h"

namespace deutero {

struct RedoResult {
  uint64_t records_scanned = 0;
  uint64_t log_pages = 0;
  uint64_t examined = 0;
  uint64_t applied = 0;
  uint64_t skipped_dpt = 0;
  uint64_t skipped_rlsn = 0;
  uint64_t skipped_plsn = 0;
  uint64_t tail_ops = 0;
  uint64_t smo_redone = 0;  ///< SQL family only (logical did them earlier).
  /// Logical family: index traversals skipped by the last-leaf memo.
  uint64_t leaf_memo_hits = 0;
  ActiveTxnTable att;       ///< Filled by the logical families.
  TxnId max_txn_id = 0;

  // Pipeline measurements.
  uint32_t threads_used = 1;       ///< Partitions (1 = inline apply).
  double dispatch_cpu_us = 0;      ///< Dispatcher scan CPU.
  /// Slowest partition's apply CPU. Folded into the clock at pass end with
  /// workers; with one partition it was charged per record instead.
  double worker_cpu_us_max = 0;
  double worker_cpu_us_total = 0;  ///< Sum of all partitions' apply CPU.
  uint64_t smo_barriers = 0;       ///< Drain barriers taken (SQL family).
};

/// Memo of the last logical-redo traversal: consecutive records whose keys
/// land inside the same leaf's fence range skip the index walk entirely.
/// Valid for a whole redo pass — the tree's structure is frozen then (all
/// SMOs were replayed by the DC pass; redo applies record ops only).
struct RedoLeafMemo {
  TableId table = kInvalidTableId;
  PageId pid = kInvalidPageId;
  Key lo = 0;
  Key hi = 0;
  bool bounded = false;
  bool valid = false;

  bool Hit(TableId t, Key key) const {
    return valid && t == table && key >= lo && (!bounded || key < hi);
  }
};

/// The data-prefetch window both redo families use, throttled by cache
/// size: read-ahead that fills the cache faster than redo consumes it
/// evicts pages before their use (the paper's "prefetching proceeds too
/// quickly" hazard, App. A.2).
inline uint32_t RedoPrefetchWindow(const BufferPool& pool,
                                   const EngineOptions& options) {
  return std::min<uint32_t>(
      options.prefetch_window,
      std::max<uint32_t>(4, static_cast<uint32_t>(pool.capacity() / 8)));
}

/// Split a finished DPT into per-partition shards along RedoPartitionOf.
/// rLSN/lastLSN are copied exactly; the union of the shards is the input.
void BuildDptShards(const DirtyPageTable& dpt, uint32_t partitions,
                    std::vector<DirtyPageTable>* shards);

/// TC redo pass for the logical family over `threads` partitions.
///   use_dpt=false  -> Log0 semantics (every op fetches its page).
///   use_dpt=true   -> Algorithm 5; `dpt` and `last_delta_tc_lsn` required.
///   prefetch=true  -> Log2 read-ahead (with `dpt`): the PF-list.
/// `count_rows_from` bounds the scan-complete row-count accounting (see
/// RunSqlRedo); it defaults to the scan start. `tail_pages`
/// (DcRecoveryResult::tail_pages) go at the end of the PF-list.
Status RunLogicalRedo(LogManager* log, DataComponent* dc, Lsn bckpt_lsn,
                      bool use_dpt, const DirtyPageTable* dpt,
                      Lsn last_delta_tc_lsn, bool prefetch,
                      const EngineOptions& options, uint32_t threads,
                      RedoResult* out, Lsn count_rows_from = kInvalidLsn,
                      std::span<const PageId> tail_pages = {});

/// Redo pass for the SQL family (Algorithm 1) over `threads` partitions,
/// optionally with log-driven prefetch (SQL2). `count_rows_from` bounds
/// the scan-complete row-count accounting: records below it are already
/// reflected in the catalog's persisted counters (ARIES checkpointing
/// starts the scan before the bCkpt; penultimate starts at it). Defaults
/// to the scan start.
Status RunSqlRedo(LogManager* log, DataComponent* dc, Lsn bckpt_lsn,
                  const DirtyPageTable* dpt, bool prefetch,
                  const EngineOptions& options, uint32_t threads,
                  RedoResult* out, Lsn count_rows_from = kInvalidLsn);

}  // namespace deutero
