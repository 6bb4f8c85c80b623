#include "recovery/recovery_manager.h"

#include <algorithm>

#include "recovery/analysis.h"
#include "recovery/dpt.h"
#include "recovery/redo.h"
#include "recovery/undo.h"

namespace deutero {

Status RecoveryManager::Recover(RecoveryMethod method, RecoveryStats* stats) {
  *stats = RecoveryStats();
  stats->method = method;

  // Recovery passes must not feed the normal-operation monitoring, and the
  // lazy writer stays quiet until the system is open for business again.
  dc_->monitor().set_enabled(false);
  dc_->pool().set_callbacks_enabled(false);
  const uint64_t saved_watermark = dc_->pool().dirty_watermark();
  dc_->pool().set_dirty_watermark(0);
  // Re-arm normal operation on EVERY exit path: a media failure aborts
  // recovery mid-pass, and the engine retries after repairing the page —
  // the retry must not inherit a half-disabled pool.
  struct RearmNormalOperation {
    DataComponent* dc;
    uint64_t watermark;
    ~RearmNormalOperation() {
      dc->pool().set_dirty_watermark(watermark);
      dc->pool().set_callbacks_enabled(true);
      dc->monitor().set_enabled(true);
    }
  } rearm{dc_, saved_watermark};

  dc_->pool().ResetStats();
  dc_->disk().ResetStats();

  // A restarted process re-reads the catalog before anything else.
  DEUTERO_RETURN_NOT_OK(dc_->OpenDatabase());
  // The crash reset the DC's eLSN, but every record on the surviving log is
  // stable: republish that before any redo-dirtied page can be flushed, or
  // the WAL-rule check in BufferPool::FlushFrame sees each redone page's
  // pLSN as beyond the stable log. stable_end() is where the first undo CLR
  // will be appended, so the last stable LSN is one below it: a page that
  // CLR dirties must still force the log before it is written.
  if (log_->stable_end() > kFirstLsn) dc_->Eosl(log_->stable_end() - 1);

  // Redo scan start point: bCkpt of the last completed checkpoint (§3.2).
  const MasterRecord& master = log_->master();
  const Lsn start =
      master.bckpt_lsn == kInvalidLsn ? kFirstLsn : master.bckpt_lsn;
  // Scan-complete row accounting must not re-add deltas the catalog's
  // persisted counters already include. Normally that boundary is the
  // bCkpt, but a catalog persisted at the END of a previous recovery
  // covers the whole log while the master still names the pre-crash
  // checkpoint — the catalog records how far its counters reach
  // (kInvalidLsn == 0, so max() handles never-stamped catalogs).
  const Lsn count_rows_from =
      std::max(start, dc_->catalog().rows_covered_lsn());

  // Every pass runs on this thread, one after the other.
  const double t0 = clock_->NowMs();
  ActiveTxnTable att;
  TxnId max_txn_id = 0;
  RedoResult redo;

  const bool logical = method == RecoveryMethod::kLog0 ||
                       method == RecoveryMethod::kLog1 ||
                       method == RecoveryMethod::kLog2;
  if (logical &&
      options_.checkpoint_scheme != CheckpointScheme::kPenultimate) {
    // The Δ-record DPT construction (§4.2) builds on the RSSP flush
    // contract: pages dirtied at or before the redo scan start point are
    // clean. ARIES fuzzy checkpoints give no such guarantee.
    return Status::InvalidArgument(
        "logical recovery requires the penultimate checkpoint scheme");
  }
  if (logical) {
    const bool build_dpt = method != RecoveryMethod::kLog0;
    const bool preload = method == RecoveryMethod::kLog2;
    DcRecoveryResult dcr;
    DEUTERO_RETURN_NOT_OK(RunDcRecovery(log_, dc_, start, options_.dpt_mode,
                                        build_dpt, preload, &dcr));
    const double t1 = clock_->NowMs();
    stats->dc_pass = {t1 - t0, dcr.log_pages, dcr.records_scanned};
    stats->dpt_size = dcr.dpt.size();
    stats->delta_records_seen = dcr.delta_records_seen;
    stats->bw_records_seen = dcr.bw_records_seen;
    stats->smo_redone = dcr.smo_redone;
    stats->smo_pages_skipped = dcr.smo_pages_skipped;
    stats->dpt_updates = dcr.dpt_updates;

    DEUTERO_RETURN_NOT_OK(RunLogicalRedo(
        log_, dc_, start, build_dpt, build_dpt ? &dcr.dpt : nullptr,
        dcr.last_delta_tc_lsn, preload, options_, &redo, count_rows_from,
        dcr.tail_pages));
    const double t2 = clock_->NowMs();
    stats->redo = {t2 - t1, redo.log_pages, redo.records_scanned};
    att = std::move(redo.att);
    max_txn_id = redo.max_txn_id;
  } else {
    SqlAnalysisResult ar;
    DEUTERO_RETURN_NOT_OK(RunSqlAnalysis(log_, start, &ar, clock_,
                                         options_.io.cpu_per_dpt_update_us));
    const double t1 = clock_->NowMs();
    stats->analysis = {t1 - t0, ar.log_pages, ar.records_scanned};
    stats->dpt_size = ar.dpt.size();
    stats->delta_records_seen = ar.delta_records_seen;
    stats->bw_records_seen = ar.bw_records_seen;
    stats->dpt_updates = ar.dpt_updates;

    // Row accounting starts at the covered boundary (the ARIES redo SCAN
    // may reach back to the oldest captured rLSN, before the bCkpt).
    DEUTERO_RETURN_NOT_OK(RunSqlRedo(log_, dc_, ar.redo_start_lsn, &ar.dpt,
                                     method == RecoveryMethod::kSql2, options_,
                                     &redo, count_rows_from));
    const double t2 = clock_->NowMs();
    stats->redo = {t2 - t1, redo.log_pages, redo.records_scanned};
    stats->smo_redone = redo.smo_redone;
    att = std::move(ar.att);
    max_txn_id = ar.max_txn_id;
  }

  stats->redo_examined = redo.examined;
  stats->redo_applied = redo.applied;
  stats->redo_skipped_dpt = redo.skipped_dpt;
  stats->redo_skipped_rlsn = redo.skipped_rlsn;
  stats->redo_skipped_plsn = redo.skipped_plsn;
  stats->redo_tail_ops = redo.tail_ops;
  stats->redo_leaf_memo_hits = redo.leaf_memo_hits;

  // Undo pass — identical machinery for every method (§2.1).
  const double t_undo0 = clock_->NowMs();
  const double undo_stall0 = dc_->pool().stats().stall_ms;
  const uint64_t undo_read_ios0 = dc_->disk().stats().read_ios;
  UndoResult ur;
  DEUTERO_RETURN_NOT_OK(RunUndo(log_, dc_, att, &ur));
  const double t_undo1 = clock_->NowMs();
  // Undo reads its log by backchain, charging each page it stays on once.
  stats->undo = {t_undo1 - t_undo0, ur.log_pages, ur.records_read};
  stats->txns_undone = ur.txns_undone;
  stats->undo_ops = ur.ops_undone;
  stats->total_ms = t_undo1 - t0;

  // Buffer-pool and device counters cover exactly the recovery epoch.
  const BufferPool::Stats& ps = dc_->pool().stats();
  stats->data_page_fetches = ps.data_fetches;
  stats->index_page_fetches = ps.index_fetches;
  stats->demand_reads = ps.misses;
  stats->stall_count = ps.stall_count;
  stats->stall_ms = ps.stall_ms;
  stats->undo_stall_ms = ps.stall_ms - undo_stall0;
  stats->data_stall_ms = ps.data_stall_ms;
  stats->index_stall_ms = ps.index_stall_ms;
  stats->prefetch_issued = ps.prefetch_issued;
  stats->prefetch_used = ps.prefetch_used;
  stats->prefetch_wasted = ps.prefetch_wasted;
  stats->pages_flushed = ps.flushes;
  stats->io_retries = ps.io_retries;
  stats->backoff_ms = ps.backoff_ms;
  stats->checksum_failures = ps.checksum_failures;
  stats->pages_repaired = ps.repairs;
  const SimDisk::Stats& ds = dc_->disk().stats();
  stats->read_ios = ds.read_ios;
  stats->undo_read_ios = ds.read_ios - undo_read_ios0;
  stats->read_pages = ds.pages_read;
  stats->gap_pages = ds.gap_pages;

  // Back to normal operation (RearmNormalOperation re-enables the pool).
  tc_->SetNextTxnId(max_txn_id + 1);
  log_->Flush();
  dc_->Eosl(log_->stable_end());
  dc_->PersistCatalog();
  return Status::OK();
}

}  // namespace deutero
