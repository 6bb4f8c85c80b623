#include "recovery/redo.h"

#include <cstdint>
#include <memory>
#include <vector>

#include "btree/btree.h"
#include "recovery/prefetch.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace deutero {

namespace {

/// The tests a pass runs on a data record before it fetches the page.
struct RedoTests {
  /// Logical family, Algorithm 5: the DPT tests below the last Δ-record,
  /// the basic algorithm on the tail (§4.3).
  bool use_dpt = false;
  Lsn last_delta_tc_lsn = kInvalidLsn;
  /// SQL family, Algorithm 1: the DPT tests on every record.
  bool sql_dpt_tests = false;
  const DirtyPageTable* dpt = nullptr;
};

/// What the DPT says about one data record — Algorithm 5 lines 5-8 /
/// Algorithm 1 lines 4-8.
enum class DptOutcome : uint8_t {
  kFetch,      ///< Page must be fetched for the pLSN test.
  kTailFetch,  ///< Same, via the tail-of-log fallback (§4.3).
  kSkipDpt,    ///< Not in the DPT: cannot need redo, no fetch.
  kSkipRlsn,   ///< LSN < rLSN: effect provably durable, no fetch.
};

DptOutcome Classify(const RedoTests& tests, Lsn lsn, PageId pid) {
  if (tests.use_dpt) {
    if (lsn >= tests.last_delta_tc_lsn) return DptOutcome::kTailFetch;
  } else if (!tests.sql_dpt_tests) {
    return DptOutcome::kFetch;  // Log0: every op fetches its page
  }
  const DirtyPageTable::Entry* e = tests.dpt->Find(pid);
  if (e == nullptr) return DptOutcome::kSkipDpt;
  if (lsn < e->rlsn) return DptOutcome::kSkipRlsn;
  return DptOutcome::kFetch;
}

/// The apply step both families share: the DPT tests, then the pLSN test
/// on the fetched leaf `pid` and the re-execution, which charges its apply
/// CPU. The page is pinned for this record alone: a held pin keeps its
/// frame out of the clock sweep's reach and would change which page it
/// evicts.
Status ApplyRecord(DataComponent* dc, const RedoTests& tests,
                   double cpu_per_redo_apply_us, const LogRecordView& rec,
                   PageId pid, RedoResult* out) {
  switch (Classify(tests, rec.lsn, pid)) {
    case DptOutcome::kSkipDpt:
      out->skipped_dpt++;
      return Status::OK();
    case DptOutcome::kSkipRlsn:
      out->skipped_rlsn++;
      return Status::OK();
    case DptOutcome::kTailFetch:
      out->tail_ops++;  // tail of the log (§4.3): basic algorithm
      break;
    case DptOutcome::kFetch:
      break;
  }

  PageHandle leaf;
  DEUTERO_RETURN_NOT_OK(dc->pool().Get(pid, PageClass::kData, &leaf));
  PageView page = leaf.view();
  if (rec.lsn <= page.plsn()) {
    out->skipped_plsn++;
    return Status::OK();
  }
  const BTree* tree = dc->FindTable(rec.table_id);
  if (tree == nullptr) return Status::NotFound("redo of op on unknown table");
  int64_t delta = 0;  // row accounting is scan-complete, in the scan loop
  DEUTERO_RETURN_NOT_OK(LeafApplyRecord(page, tree->value_size(), rec.type,
                                        rec.key, rec.after, &delta));
  leaf.MarkDirty(rec.lsn);
  dc->clock().AdvanceUs(cpu_per_redo_apply_us);
  out->applied++;
  return Status::OK();
}

}  // namespace

Status RunLogicalRedo(LogManager* log, DataComponent* dc, Lsn bckpt_lsn,
                      bool use_dpt, const DirtyPageTable* dpt,
                      Lsn last_delta_tc_lsn, bool prefetch,
                      const EngineOptions& options, RedoResult* out,
                      Lsn count_rows_from,
                      std::span<const PageId> tail_pages) {
  *out = RedoResult();
  const Lsn count_from =
      count_rows_from == kInvalidLsn ? bckpt_lsn : count_rows_from;
  RecoveryPassQuiescence quiesce(dc);
  RedoTests tests;
  tests.use_dpt = use_dpt;
  tests.last_delta_tc_lsn = last_delta_tc_lsn;
  tests.dpt = use_dpt ? dpt : nullptr;
  // The scan charges its own log pages, from the first one on.
  LogManager::Iterator it = log->NewIterator(bckpt_lsn, /*charge_io=*/true);
  std::vector<PageId> pf_list;
  std::unique_ptr<PfListPrefetcher> prefetcher;
  if (prefetch && dpt != nullptr) {  // Log2
    // Ordering the list visits every DPT entry once more: one DPT unit of
    // CPU per listed page, tail pages included.
    pf_list = BuildPfList(*dpt, tail_pages);
    dc->clock().AdvanceUs(static_cast<double>(pf_list.size()) *
                          options.io.cpu_per_dpt_update_us);
    prefetcher = std::make_unique<PfListPrefetcher>(
        &dc->pool(), dpt, &pf_list, RedoPrefetchWindow(dc->pool(), options),
        pf_list.size() - tail_pages.size());
  }

  RedoLeafMemo memo;
  const Status scan_status = [&]() -> Status {
    for (; it.Valid(); it.Next()) {
      const LogRecordView& rec = it.record();
      out->records_scanned++;
      dc->clock().AdvanceUs(options.io.cpu_per_log_record_us);
      ObserveForAtt(rec, &out->att, &out->max_txn_id);
      if (!rec.IsRedoableDataOp()) continue;  // SMOs: done by the DC pass

      if (prefetcher != nullptr) prefetcher->Pump();
      out->examined++;
      // Scan-complete row accounting (see RecordRowDelta), in log order:
      // the counter must reflect every windowed operation whether or not
      // the redo tests skip its re-execution — and none the persisted
      // catalog counters already cover (records below count_from).
      if (rec.lsn >= count_from) {
        dc->AdjustTableRowCount(rec.table_id, RecordRowDelta(rec));
      }

      // The TC re-submits the operation; the DC traverses the index with
      // the record's key to discover the page (Algorithm 2 line 8 / Alg. 5
      // line 4). The traversal is memoized: log locality makes consecutive
      // records hit the same leaf far more often than not.
      PageId pid = kInvalidPageId;
      if (options.redo_leaf_memo && memo.Hit(rec.table_id, rec.key)) {
        pid = memo.pid;
        out->leaf_memo_hits++;
      } else {
        DEUTERO_RETURN_NOT_OK(dc->FindLeafRanged(rec.table_id, rec.key, &pid,
                                                 &memo.lo, &memo.hi,
                                                 &memo.bounded));
        memo.table = rec.table_id;
        memo.pid = pid;
        memo.valid = true;
      }
      DEUTERO_RETURN_NOT_OK(ApplyRecord(
          dc, tests, options.io.cpu_per_redo_apply_us, rec, pid, out));
    }
    return Status::OK();
  }();
  out->log_pages = it.pages_read();  // filled on error exits too
  return scan_status;
}

Status RunSqlRedo(LogManager* log, DataComponent* dc, Lsn bckpt_lsn,
                  const DirtyPageTable* dpt, bool prefetch,
                  const EngineOptions& options, RedoResult* out,
                  Lsn count_rows_from) {
  *out = RedoResult();
  const Lsn count_from =
      count_rows_from == kInvalidLsn ? bckpt_lsn : count_rows_from;
  RecoveryPassQuiescence quiesce(dc);
  RedoTests tests;
  tests.sql_dpt_tests = true;
  tests.dpt = dpt;
  // The scan charges its own log pages, from the first one on.
  LogManager::Iterator it = log->NewIterator(bckpt_lsn, /*charge_io=*/true);
  std::unique_ptr<LogDrivenPrefetcher> prefetcher;
  if (prefetch) {
    const uint32_t window = RedoPrefetchWindow(dc->pool(), options);
    prefetcher = std::make_unique<LogDrivenPrefetcher>(
        &dc->pool(), dpt, log, bckpt_lsn, window,
        /*lookahead_records=*/window * 8);
  }

  const Status scan_status = [&]() -> Status {
    for (; it.Valid(); it.Next()) {
      const LogRecordView& rec = it.record();
      out->records_scanned++;
      dc->clock().AdvanceUs(options.io.cpu_per_log_record_us);
      if (prefetcher != nullptr) prefetcher->Pump(out->records_scanned);

      if (rec.type == LogRecordType::kSmo) {
        // Physiological replay in LSN order; skip without any fetch when
        // the DPT proves no touched page can need redo (Algorithm 1 lines
        // 4-8 applied per page).
        bool any = false;
        for (const SmoPageImageRef& p : rec.smo_pages) {
          const DirtyPageTable::Entry* e = dpt->Find(p.pid);
          if (e != nullptr && rec.lsn >= e->rlsn) {
            any = true;
            break;
          }
        }
        if (any) {
          DEUTERO_RETURN_NOT_OK(dc->RedoSmo(rec));
          out->smo_redone++;
        } else {
          // The image install is skippable; the allocator bookkeeping is
          // not. Without this, a fully-flushed (BW-pruned) split left the
          // high-water mark stale and a post-recovery Allocate() could
          // hand out a live page.
          dc->NoteSmoAllocation(rec);
        }
        continue;
      }
      if (rec.type == LogRecordType::kSmoMerge) {
        // Delete-side SMO: replay unconditionally (the per-page pLSN test
        // inside keeps it idempotent) so every method converges on the
        // same images AND the same allocator free-list — the freed page
        // must be re-freed even when the surviving pages' images are
        // already durable.
        DEUTERO_RETURN_NOT_OK(dc->RedoSmoMerge(rec));
        out->smo_redone++;
        continue;
      }
      if (rec.type == LogRecordType::kCreateTable) {
        // DDL must re-register the table even when its root image is
        // already durable (RedoCreateTable is idempotent on both fronts).
        DEUTERO_RETURN_NOT_OK(dc->RedoCreateTable(rec));
        continue;
      }
      if (!rec.IsRedoableDataOp()) continue;
      out->examined++;
      // Scan-complete row accounting, in log order; the catalog counter
      // already covers records below count_from (ARIES reaches back
      // before the bCkpt).
      if (rec.lsn >= count_from) {
        dc->AdjustTableRowCount(rec.table_id, RecordRowDelta(rec));
      }

      // Algorithm 1: the log record names the page — no index traversal.
      DEUTERO_RETURN_NOT_OK(ApplyRecord(
          dc, tests, options.io.cpu_per_redo_apply_us, rec, rec.pid, out));
    }
    return Status::OK();
  }();
  out->log_pages = it.pages_read();  // filled on error exits too
  return scan_status;
}

}  // namespace deutero
