// Per-recovery measurement record: everything the paper's evaluation plots
// (Fig. 2(a)-(c), Fig. 3, App. B cost-model terms) plus diagnostics.
#pragma once

#include <cstdint>

#include "common/options.h"

namespace deutero {

struct PassTiming {
  double ms = 0;            ///< Simulated duration of the pass.
  uint64_t log_pages = 0;   ///< Log pages read by the pass's scan.
  uint64_t records = 0;     ///< Log records examined by the pass.
};

struct RecoveryStats {
  RecoveryMethod method = RecoveryMethod::kLog0;

  PassTiming dc_pass;    ///< Logical families: SMO redo + DPT build.
  PassTiming analysis;   ///< SQL family: Algorithm 3.
  PassTiming redo;
  PassTiming undo;       ///< Records and log pages: backchain reads.
  double total_ms = 0;

  // DPT / analysis products.
  uint64_t dpt_size = 0;              ///< Entries after construction.
  uint64_t delta_records_seen = 0;    ///< Δ-records in the analysis window.
  uint64_t bw_records_seen = 0;       ///< BW-records in the analysis window.
  uint64_t smo_redone = 0;
  uint64_t smo_pages_skipped = 0;     ///< Logical: SMO images the DC pass's
                                      ///< DPT proved durable (never fetched).

  // Redo outcome counters.
  uint64_t redo_examined = 0;       ///< Data-op records considered.
  uint64_t redo_applied = 0;        ///< Operations re-executed.
  uint64_t redo_skipped_dpt = 0;    ///< Bypassed: page not in DPT.
  uint64_t redo_skipped_rlsn = 0;   ///< Bypassed: LSN < rLSN (no fetch).
  uint64_t redo_skipped_plsn = 0;   ///< Bypassed: pLSN test after fetch.
  uint64_t redo_tail_ops = 0;       ///< Handled in tail-of-log mode (§4.3).
  uint64_t redo_leaf_memo_hits = 0; ///< Traversals skipped by the leaf memo.

  // Redo pipeline (recovery_threads partitions; 1 applies inline).
  uint32_t redo_threads = 1;           ///< Partitions used by redo.
  double redo_dispatch_cpu_ms = 0;     ///< Dispatcher-side simulated CPU.
  double redo_worker_cpu_ms_max = 0;   ///< Slowest partition's CPU (folded
                                       ///< into the simulated redo time;
                                       ///< charged per record inline).
  double redo_worker_cpu_ms_total = 0; ///< Sum over partitions.
  uint64_t redo_smo_barriers = 0;      ///< Drain barriers for SMO/DDL
                                       ///< (taken only beside workers).

  // DPT construction (one pass at every recovery_threads; Log0 builds
  // no DPT).
  uint64_t dpt_updates = 0;            ///< DPT mutation events charged at
                                       ///< cpu_per_dpt_update_us each.

  // I/O behaviour during recovery (buffer pool deltas).
  uint64_t data_page_fetches = 0;
  uint64_t index_page_fetches = 0;
  uint64_t demand_reads = 0;  ///< Demand misses: synchronous page reads.
  uint64_t stall_count = 0;
  double stall_ms = 0;
  double undo_stall_ms = 0;  ///< The part of stall_ms inside the undo pass.
  double data_stall_ms = 0;
  double index_stall_ms = 0;
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_used = 0;
  uint64_t prefetch_wasted = 0;
  uint64_t pages_flushed = 0;  ///< Eviction writes during recovery.
  // Device reads during recovery: read_pages counts the data and index
  // fetches above plus gap_pages; read_ios < read_pages when prefetch
  // spans batch them.
  uint64_t read_ios = 0;       ///< Read I/Os issued (a span counts 1).
  uint64_t undo_read_ios = 0;  ///< The part of read_ios inside undo.
  uint64_t read_pages = 0;     ///< Pages those reads transferred.
  uint64_t gap_pages = 0;      ///< Pages a span read through and dropped.

  // Media-failure handling during recovery (PR 7).
  uint64_t io_retries = 0;         ///< Transient-error retries issued.
  double backoff_ms = 0;           ///< Simulated backoff the retries cost.
  uint64_t checksum_failures = 0;  ///< Corrupt page images detected.
  uint64_t pages_repaired = 0;     ///< Rebuilt in place from the archive.

  // Undo outcome.
  uint64_t txns_undone = 0;
  uint64_t undo_ops = 0;
};

}  // namespace deutero
