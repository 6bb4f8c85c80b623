#include "recovery/redo.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "common/mutex.h"
#include "recovery/apply_worker.h"
#include "recovery/pipeline_util.h"
#include "recovery/prefetch.h"
#include "storage/page.h"

namespace deutero {

namespace {

/// One routed redo operation. Slices alias the log buffer — valid for the
/// pass lifetime under the LogManager::AliasGuard the dispatcher holds.
/// A default-constructed item (pid == kInvalidPageId) is the release-pins
/// control token.
struct RedoWorkItem {
  LogRecordType type = LogRecordType::kInvalid;
  TableId table_id = kInvalidTableId;
  Key key = 0;
  Lsn lsn = kInvalidLsn;
  PageId pid = kInvalidPageId;
  Slice after;
};

RedoWorkItem WorkItemOf(const LogRecordView& rec, PageId pid) {
  RedoWorkItem item;
  item.type = rec.type;
  item.table_id = rec.table_id;
  item.key = rec.key;
  item.lsn = rec.lsn;
  item.pid = pid;
  item.after = rec.after;
  return item;
}

/// Pass-wide facts every partition's apply body reads.
struct RedoShared {
  TableRegistry tables;
  double cpu_per_redo_apply_us = 0;
  /// Logical family, Algorithm 5: the DPT tests below the last Δ-record,
  /// the basic algorithm on the tail (§4.3).
  bool use_dpt = false;
  Lsn last_delta_tc_lsn = kInvalidLsn;
  /// SQL family, Algorithm 1: the DPT tests on every record.
  bool sql_dpt_tests = false;
};

/// The apply body of one redo partition: the DPT tests against its DPT
/// (the partition's shard, or the whole table with one partition), then
/// the pLSN idempotence test and the leaf re-execution.
class RedoApplier {
 public:
  using Item = RedoWorkItem;

  /// `live_clock` is set with one partition: apply CPU then advances the
  /// clock per record, where the paper's serial pass charges it. Workers
  /// leave it null and accumulate it for the end-of-pass fold.
  RedoApplier(const RedoShared* shared, const DirtyPageTable* dpt,
              SimClock* live_clock)
      : shared_(shared), dpt_(dpt), live_clock_(live_clock) {}

  /// Read-ahead takes exactly the pages the apply path will fetch.
  bool Fetches(const Item& item) const {
    const DptOutcome o = Classify(item);
    return o == DptOutcome::kFetch || o == DptOutcome::kTailFetch;
  }

  Status Apply(const Item& item, PinCache* pins) {
    switch (Classify(item)) {
      case DptOutcome::kSkipDpt:
        counts_.skipped_dpt++;
        return Status::OK();
      case DptOutcome::kSkipRlsn:
        counts_.skipped_rlsn++;
        return Status::OK();
      case DptOutcome::kTailFetch:
        counts_.tail_ops++;  // tail of the log (§4.3): basic algorithm
        break;
      case DptOutcome::kFetch:
        break;
    }

    PinCache::Pin* pin = nullptr;
    DEUTERO_RETURN_NOT_OK(pins->FindOrPin(item.pid, &pin));
    PageView page = pin->handle.view();
    if (item.lsn <= page.plsn()) {
      counts_.skipped_plsn++;
      return Status::OK();
    }

    uint32_t value_size = 0;
    if (!shared_->tables.Lookup(item.table_id, &value_size)) {
      return Status::NotFound("redo of op on unknown table");
    }
    int64_t delta = 0;  // row accounting is scan-complete on the dispatcher
    DEUTERO_RETURN_NOT_OK(LeafApplyRecord(page, value_size, item.type,
                                          item.key, item.after, &delta));
    pins->Stamp(pin, item.lsn);
    cpu_us_ += shared_->cpu_per_redo_apply_us;
    if (live_clock_ != nullptr) {
      live_clock_->AdvanceUs(shared_->cpu_per_redo_apply_us);
    }
    counts_.applied++;
    return Status::OK();
  }

  const RedoResult& counts() const { return counts_; }
  double cpu_us() const { return cpu_us_; }

 private:
  /// What the DPT says about one routed record — Algorithm 5 lines 5-8 /
  /// Algorithm 1 lines 4-8.
  enum class DptOutcome : uint8_t {
    kFetch,      ///< Page must be fetched for the pLSN test.
    kTailFetch,  ///< Same, via the tail-of-log fallback (§4.3).
    kSkipDpt,    ///< Not in the DPT: cannot need redo, no fetch.
    kSkipRlsn,   ///< LSN < rLSN: effect provably durable, no fetch.
  };

  DptOutcome Classify(const Item& item) const {
    if (shared_->use_dpt) {
      if (item.lsn >= shared_->last_delta_tc_lsn) return DptOutcome::kTailFetch;
    } else if (!shared_->sql_dpt_tests) {
      return DptOutcome::kFetch;  // Log0: every op fetches its page
    }
    const DirtyPageTable::Entry* e = dpt_->Find(item.pid);
    if (e == nullptr) return DptOutcome::kSkipDpt;
    if (item.lsn < e->rlsn) return DptOutcome::kSkipRlsn;
    return DptOutcome::kFetch;
  }

  const RedoShared* shared_;
  const DirtyPageTable* dpt_;
  SimClock* live_clock_;
  RedoResult counts_;
  double cpu_us_ = 0;
};

/// Batches a crew dispatcher's simulated charges — per-record scan CPU and
/// sequential log-page reads (its iterator runs charge_io=false; every
/// OTHER clock touch happens under the pool gate, which the dispatcher
/// cannot hold per record without serializing the pipeline) — onto the
/// global clock every `kFlushEvery` events. Keeping the clock moving
/// during the scan matters: prefetch completion times are absolute, so a
/// clock frozen for the whole dispatch would make every prefetched page
/// look "not yet landed" and re-introduce the stalls the read-ahead
/// exists to hide. 32-record granularity (~160 simulated µs) is far below
/// device latencies.
class DispatchClockMeter {
 public:
  DispatchClockMeter(SimClock* clock, Mutex* gate)
      : clock_(clock), gate_(gate) {}

  void AddUs(double us) {
    pending_us_ += us;
    if (++pending_events_ >= kFlushEvery) Flush();
  }
  void Flush() {
    if (pending_events_ == 0) return;
    MutexLock lock(gate_);
    clock_->AdvanceUs(pending_us_);
    pending_us_ = 0;
    pending_events_ = 0;
  }

 private:
  static constexpr uint32_t kFlushEvery = 32;
  SimClock* clock_;
  Mutex* gate_;
  double pending_us_ = 0;
  uint32_t pending_events_ = 0;
};

/// The dispatcher half both families share: the scan and its clock
/// charges, the hand-off of each data record, SMO/DDL barriers and the
/// epilogue. One partition applies inline; N >= 2 start a worker crew.
class RedoDispatch {
 public:
  RedoDispatch(LogManager* log, DataComponent* dc, Lsn start,
               const EngineOptions& options, uint32_t threads,
               const DirtyPageTable* dpt, const RedoShared& shared,
               bool read_ahead)
      : dc_(dc),
        options_(options),
        shared_(shared),
        alias_(log),
        meter_(&dc->clock(), &gate_),
        inline_pins_(&dc->pool(), nullptr, 1),
        // One partition: the iterator charges its own log pages, as the
        // paper's serial pass does. Workers: the meter, under the gate.
        it_(log->NewIterator(start, /*charge_io=*/threads < 2)) {
    shared_.tables.Refresh(dc);
    shared_.cpu_per_redo_apply_us = options.io.cpu_per_redo_apply_us;
    if (threads < 2) {
      inline_body_ =
          std::make_unique<RedoApplier>(&shared_, dpt, &dc->clock());
      return;
    }
    if (dpt != nullptr) {
      BuildDptShards(*dpt, threads, &shards_);
    } else {
      shards_.resize(threads);
    }
    std::vector<RedoApplier> bodies;
    bodies.reserve(threads);
    for (const DirtyPageTable& shard : shards_) {
      bodies.emplace_back(&shared_, &shard, nullptr);
    }
    stall_ms_at_start_ = dc->pool().stats().stall_ms;
    crew_ = std::make_unique<ApplyCrew<RedoApplier>>(
        std::move(bodies), &dc->pool(), &gate_,
        read_ahead
            ? ReadAheadBudget(RedoPrefetchWindow(dc->pool(), options), threads)
            : 0);
  }

  LogManager::Iterator& scan() { return it_; }
  bool inline_apply() const { return crew_ == nullptr; }
  /// The pool gate for dispatcher-side pool touches; null when inline.
  Mutex* gate() { return crew_ == nullptr ? nullptr : &gate_; }

  /// Per scanned record: count it and charge its scan CPU — live with one
  /// partition, batched (with the log pages the iterator newly touched)
  /// beside workers.
  void ChargeScan(RedoResult* out) {
    const double cpu_us = options_.io.cpu_per_log_record_us;
    out->records_scanned++;
    out->dispatch_cpu_us += cpu_us;
    if (crew_ == nullptr) {
      dc_->clock().AdvanceUs(cpu_us);
      return;
    }
    meter_.AddUs(cpu_us + (it_.pages_read() - log_pages_metered_) *
                              options_.io.log_page_read_ms * 1e3);
    log_pages_metered_ = it_.pages_read();
  }

  /// Apply `item` inline, or route it to its partition.
  Status Apply(const RedoWorkItem& item) {
    if (crew_ != nullptr) {
      crew_->Route(item);
      return Status::OK();
    }
    const Status st = inline_body_->Apply(item, &inline_pins_);
    // No pin outlives its record: a held pin keeps its frame out of the
    // clock sweep's reach and would change which page it evicts.
    inline_pins_.ReleaseAll();
    return st;
  }

  /// A worker failed: stop scanning, Finish surfaces the error.
  bool WorkerFailed() const { return crew_ != nullptr && crew_->AnyFailed(); }

  /// Before a record whose page images span partitions (SMO, DDL): it must
  /// apply at its log position — after every routed record before it,
  /// before any after it — on frames no worker holds.
  void Barrier(RedoResult* out) {
    if (crew_ == nullptr) return;
    meter_.Flush();
    crew_->DrainBarrier();
    out->smo_barriers++;
  }

  /// After replaying DDL, while no worker is applying: apply bodies must
  /// see the new table.
  void RefreshTables() { shared_.tables.Refresh(dc_); }

  /// Epilogue, one for both families so the cost model cannot drift
  /// between them: join and merge the partitions' counts and, with
  /// workers, charge the scan's residual log pages, verify the aliasing
  /// contract held, then fold the slowest partition's apply CPU into the
  /// clock. I/O waits were charged live under the gate, and the pipeline
  /// overlaps apply work with them, so only the worker CPU exceeding the
  /// already-waited stall time extends the pass.
  Status Finish(const Status& scan_status, RedoResult* out) {
    out->log_pages = it_.pages_read();  // filled on error exits too
    auto merge = [out](const RedoApplier& body) {
      const RedoResult& c = body.counts();
      out->applied += c.applied;
      out->skipped_dpt += c.skipped_dpt;
      out->skipped_rlsn += c.skipped_rlsn;
      out->skipped_plsn += c.skipped_plsn;
      out->tail_ops += c.tail_ops;
      out->worker_cpu_us_total += body.cpu_us();
      out->worker_cpu_us_max = std::max(out->worker_cpu_us_max, body.cpu_us());
    };
    if (crew_ == nullptr) {
      merge(*inline_body_);
      return scan_status;
    }
    meter_.AddUs((it_.pages_read() - log_pages_metered_) *
                 options_.io.log_page_read_ms * 1e3);
    const Status worker_status = crew_->Finish();
    crew_->ForEachBody(merge);
    out->threads_used = crew_->size();
    assert(alias_.Intact());
    meter_.Flush();
    const double stall_waited_us =
        (dc_->pool().stats().stall_ms - stall_ms_at_start_) * 1e3;
    dc_->clock().AdvanceUs(
        std::max(0.0, out->worker_cpu_us_max - stall_waited_us));
    DEUTERO_RETURN_NOT_OK(scan_status);
    return worker_status;
  }

 private:
  DataComponent* dc_;
  const EngineOptions& options_;
  RedoShared shared_;
  LogManager::AliasGuard alias_;
  Mutex gate_;  ///< Serializes EVERY pool/disk/clock touch beside workers.
  DispatchClockMeter meter_;
  uint64_t log_pages_metered_ = 0;
  double stall_ms_at_start_ = 0;
  std::unique_ptr<RedoApplier> inline_body_;  ///< One partition.
  PinCache inline_pins_;
  std::vector<DirtyPageTable> shards_;        ///< N partitions.
  std::unique_ptr<ApplyCrew<RedoApplier>> crew_;
  LogManager::Iterator it_;
};

}  // namespace

void BuildDptShards(const DirtyPageTable& dpt, uint32_t partitions,
                    std::vector<DirtyPageTable>* shards) {
  shards->clear();
  shards->resize(partitions);
  dpt.ForEach([&](PageId pid, const DirtyPageTable::Entry& e) {
    (*shards)[RedoPartitionOf(pid, partitions)].AddExact(pid, e.rlsn,
                                                         e.last_lsn);
  });
}

Status RunLogicalRedo(LogManager* log, DataComponent* dc, Lsn bckpt_lsn,
                      bool use_dpt, const DirtyPageTable* dpt,
                      Lsn last_delta_tc_lsn, bool prefetch,
                      const EngineOptions& options, uint32_t threads,
                      RedoResult* out, Lsn count_rows_from,
                      std::span<const PageId> tail_pages) {
  *out = RedoResult();
  const Lsn count_from =
      count_rows_from == kInvalidLsn ? bckpt_lsn : count_rows_from;
  RecoveryPassQuiescence quiesce(dc);
  RedoShared shared;
  shared.use_dpt = use_dpt;
  shared.last_delta_tc_lsn = last_delta_tc_lsn;
  const bool read_ahead = prefetch && dpt != nullptr;  // Log2
  RedoDispatch dispatch(log, dc, bckpt_lsn, options, threads,
                        use_dpt ? dpt : nullptr, shared, read_ahead);
  std::vector<PageId> pf_list;
  std::unique_ptr<PfListPrefetcher> prefetcher;
  if (read_ahead && dispatch.inline_apply()) {
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
    for (LogManager::Iterator& it = dispatch.scan(); it.Valid(); it.Next()) {
      const LogRecordView& rec = it.record();
      dispatch.ChargeScan(out);
      ObserveForAtt(rec, &out->att, &out->max_txn_id);
      if (!rec.IsRedoableDataOp()) continue;  // SMOs: done by the DC pass

      if (prefetcher != nullptr) prefetcher->Pump();
      out->examined++;
      // Scan-complete row accounting (see RecordRowDelta), on the
      // dispatcher in log order: the counter must reflect every windowed
      // operation whether or not the redo tests skip its re-execution —
      // and none the persisted catalog counters already cover (records
      // below count_from).
      if (rec.lsn >= count_from) {
        dc->AdjustTableRowCount(rec.table_id, RecordRowDelta(rec));
      }

      // The TC re-submits the operation; the DC traverses the index with
      // the record's key to discover the page (Algorithm 2 line 8 / Alg. 5
      // line 4), which also names the owning partition. The traversal is
      // memoized: log locality makes consecutive records hit the same leaf
      // far more often than not.
      PageId pid = kInvalidPageId;
      if (options.redo_leaf_memo && memo.Hit(rec.table_id, rec.key)) {
        pid = memo.pid;
        out->leaf_memo_hits++;
      } else {
        GateLock lock(dispatch.gate());
        DEUTERO_RETURN_NOT_OK(dc->FindLeafRanged(rec.table_id, rec.key, &pid,
                                                 &memo.lo, &memo.hi,
                                                 &memo.bounded));
        memo.table = rec.table_id;
        memo.pid = pid;
        memo.valid = true;
      }
      DEUTERO_RETURN_NOT_OK(dispatch.Apply(WorkItemOf(rec, pid)));
      if (dispatch.WorkerFailed()) break;  // stop scanning early
    }
    return Status::OK();
  }();
  return dispatch.Finish(scan_status, out);
}

Status RunSqlRedo(LogManager* log, DataComponent* dc, Lsn bckpt_lsn,
                  const DirtyPageTable* dpt, bool prefetch,
                  const EngineOptions& options, uint32_t threads,
                  RedoResult* out, Lsn count_rows_from) {
  *out = RedoResult();
  const Lsn count_from =
      count_rows_from == kInvalidLsn ? bckpt_lsn : count_rows_from;
  RecoveryPassQuiescence quiesce(dc);
  RedoShared shared;
  shared.sql_dpt_tests = true;
  RedoDispatch dispatch(log, dc, bckpt_lsn, options, threads, dpt, shared,
                        prefetch);
  std::unique_ptr<LogDrivenPrefetcher> prefetcher;
  if (prefetch && dispatch.inline_apply()) {
    const uint32_t window = RedoPrefetchWindow(dc->pool(), options);
    prefetcher = std::make_unique<LogDrivenPrefetcher>(
        &dc->pool(), dpt, log, bckpt_lsn, window,
        /*lookahead_records=*/window * 8);
  }

  const Status scan_status = [&]() -> Status {
    for (LogManager::Iterator& it = dispatch.scan(); it.Valid(); it.Next()) {
      const LogRecordView& rec = it.record();
      dispatch.ChargeScan(out);
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
          dispatch.Barrier(out);
          GateLock lock(dispatch.gate());
          DEUTERO_RETURN_NOT_OK(dc->RedoSmo(rec));
          out->smo_redone++;
        } else {
          // The image install is skippable; the allocator bookkeeping is
          // not. Without this, a fully-flushed (BW-pruned) split left the
          // high-water mark stale and a post-recovery Allocate() could
          // hand out a live page.
          GateLock lock(dispatch.gate());
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
        dispatch.Barrier(out);
        GateLock lock(dispatch.gate());
        DEUTERO_RETURN_NOT_OK(dc->RedoSmoMerge(rec));
        out->smo_redone++;
        continue;
      }
      if (rec.type == LogRecordType::kCreateTable) {
        // DDL must re-register the table even when its root image is
        // already durable (RedoCreateTable is idempotent on both fronts).
        dispatch.Barrier(out);
        {
          GateLock lock(dispatch.gate());
          DEUTERO_RETURN_NOT_OK(dc->RedoCreateTable(rec));
        }
        dispatch.RefreshTables();
        continue;
      }
      if (!rec.IsRedoableDataOp()) continue;
      out->examined++;
      // Scan-complete row accounting (dispatcher-side, log order); the
      // catalog counter already covers records below count_from (ARIES
      // reaches back before the bCkpt).
      if (rec.lsn >= count_from) {
        dc->AdjustTableRowCount(rec.table_id, RecordRowDelta(rec));
      }

      // Algorithm 1: the log record names the page — no index traversal.
      DEUTERO_RETURN_NOT_OK(dispatch.Apply(WorkItemOf(rec, rec.pid)));
      if (dispatch.WorkerFailed()) break;
    }
    return Status::OK();
  }();
  return dispatch.Finish(scan_status, out);
}

}  // namespace deutero
