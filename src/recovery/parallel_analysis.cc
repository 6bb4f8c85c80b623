#include "recovery/parallel_analysis.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "recovery/parallel_redo.h"
#include "recovery/pipeline_util.h"

namespace deutero {

namespace {

constexpr size_t kDptRingCapacity = 4096;  // power of two (SpscRing)

/// One resolved DPT mutation event. The dispatcher resolves every LSN
/// (record LSN, FW-LSN, prev-Δ TC-LSN, per-entry perfect LSN) before
/// routing, so a worker applies scalars with no per-mode logic of its own
/// beyond the prune comparison kind.
struct DptWorkItem {
  enum class Kind : uint8_t {
    kStop = 0,      ///< Control token: the pass is over (default-constructed).
    kUpsert,        ///< AddOrUpdate(pid, lsn); first mention may record seq.
    kSeed,          ///< Checkpoint DPT seed: AddExact(pid, lsn, lsn) if absent.
    kRemove,        ///< Remove(pid) (merge victim, free-list purge).
    kPruneSql,      ///< Algorithm 3 prune: lastLSN <= lsn removes.
    kPruneDc,       ///< Algorithm 4 prune: lastLSN <  lsn removes.
    kPruneReduced,  ///< App. D.2 prune: lastLSN < lsn removes, no rLSN bump.
  };
  Kind kind = Kind::kStop;
  PageId pid = kInvalidPageId;
  Lsn lsn = kInvalidLsn;
  uint64_t seq = 0;  ///< Global DirtySet mention order (PF-list; DC pass).
};

/// One shard: a thread draining its ring into a private DirtyPageTable.
/// No locks anywhere — the shard is the only state this thread touches.
class DptShardWorker {
 public:
  explicit DptShardWorker(bool track_first_mentions)
      : ring_(kDptRingCapacity), track_(track_first_mentions) {}

  void Start() {
    thread_ = std::thread([this] { Run(); });
  }

  void Push(const DptWorkItem& item) {
    uint32_t spins = 0;
    while (!ring_.TryPush(item)) SpinWait(&spins);  // backpressure
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  const DirtyPageTable& dpt() const { return dpt_; }
  uint64_t ops() const { return ops_; }
  const std::vector<std::pair<uint64_t, PageId>>& first_mentions() const {
    return first_mentions_;
  }

 private:
  void Run() {
    DptWorkItem item;
    uint32_t spins = 0;
    while (true) {
      if (!ring_.TryPop(&item)) {
        SpinWait(&spins);
        continue;
      }
      spins = 0;
      if (item.kind == DptWorkItem::Kind::kStop) return;
      Process(item);
    }
  }

  void Process(const DptWorkItem& item) {
    ops_++;
    switch (item.kind) {
      case DptWorkItem::Kind::kUpsert:
        if (track_ && dpt_.Find(item.pid) == nullptr) {
          first_mentions_.emplace_back(item.seq, item.pid);
        }
        dpt_.AddOrUpdate(item.pid, item.lsn);
        break;
      case DptWorkItem::Kind::kSeed:
        if (dpt_.Find(item.pid) == nullptr) {
          dpt_.AddExact(item.pid, item.lsn, item.lsn);
        }
        break;
      case DptWorkItem::Kind::kRemove:
        dpt_.Remove(item.pid);
        break;
      case DptWorkItem::Kind::kPruneSql: {
        DirtyPageTable::Entry* e = dpt_.Find(item.pid);
        if (e == nullptr) break;
        if (e->last_lsn <= item.lsn) {
          dpt_.Remove(item.pid);
        } else if (e->rlsn < item.lsn) {
          e->rlsn = item.lsn;
        }
        break;
      }
      case DptWorkItem::Kind::kPruneDc: {
        DirtyPageTable::Entry* e = dpt_.Find(item.pid);
        if (e == nullptr) break;
        if (e->last_lsn < item.lsn) {
          dpt_.Remove(item.pid);
        } else if (e->rlsn < item.lsn) {
          e->rlsn = item.lsn;
        }
        break;
      }
      case DptWorkItem::Kind::kPruneReduced: {
        DirtyPageTable::Entry* e = dpt_.Find(item.pid);
        if (e != nullptr && e->last_lsn < item.lsn) dpt_.Remove(item.pid);
        break;
      }
      case DptWorkItem::Kind::kStop:
        break;  // handled by Run()
    }
  }

  SpscRing<DptWorkItem> ring_;
  std::thread thread_;
  DirtyPageTable dpt_;
  std::vector<std::pair<uint64_t, PageId>> first_mentions_;
  uint64_t ops_ = 0;
  const bool track_;
};

/// The shard fleet plus the merge/fold epilogue shared by both passes.
class DptShardPool {
 public:
  DptShardPool(uint32_t threads, bool track_first_mentions) {
    workers_.reserve(threads);
    for (uint32_t i = 0; i < threads; i++) {
      workers_.push_back(
          std::make_unique<DptShardWorker>(track_first_mentions));
    }
    for (auto& w : workers_) w->Start();
  }

  void Route(const DptWorkItem& item) {
    workers_[RedoPartitionOf(item.pid,
                             static_cast<uint32_t>(workers_.size()))]
        ->Push(item);
  }

  /// Stop and join every worker, merge the shards into `dpt`, and report
  /// each shard's op count (indexed by partition) in `*shard_ops`.
  void Finish(DirtyPageTable* dpt, std::vector<uint64_t>* shard_ops,
              std::vector<PageId>* pf_list) {
    for (auto& w : workers_) w->Push(DptWorkItem());  // kStop
    for (auto& w : workers_) w->Join();
    shard_ops->clear();
    std::vector<std::pair<uint64_t, PageId>> mentions;
    for (auto& w : workers_) {
      shard_ops->push_back(w->ops());
      w->dpt().ForEach([&](PageId pid, const DirtyPageTable::Entry& e) {
        dpt->AddExact(pid, e.rlsn, e.last_lsn);
      });
      mentions.insert(mentions.end(), w->first_mentions().begin(),
                      w->first_mentions().end());
    }
    if (pf_list != nullptr) {
      std::sort(mentions.begin(), mentions.end());
      pf_list->reserve(mentions.size());
      for (const auto& [seq, pid] : mentions) pf_list->push_back(pid);
    }
  }

 private:
  std::vector<std::unique_ptr<DptShardWorker>> workers_;
};

/// Fold per-shard op counts: `*total` is the serial-equivalent event count,
/// `*max` the slowest shard's (the parallel pass's critical path).
void FoldShardOps(const std::vector<uint64_t>& shard_ops, uint64_t* total,
                  uint64_t* max) {
  *total = 0;
  *max = 0;
  for (const uint64_t ops : shard_ops) {
    *total += ops;
    *max = std::max(*max, ops);
  }
}

}  // namespace

Status RunSqlAnalysisParallel(LogManager* log, Lsn bckpt_lsn,
                              uint32_t threads, SqlAnalysisResult* out,
                              SimClock* clock, double cpu_per_dpt_update_us) {
  if (threads < 2) {
    return RunSqlAnalysis(log, bckpt_lsn, out, clock, cpu_per_dpt_update_us);
  }
  *out = SqlAnalysisResult();
  out->redo_start_lsn = bckpt_lsn;
  DptShardPool pool(threads, /*track_first_mentions=*/false);
  DptWorkItem item;
  auto it = log->NewIterator(bckpt_lsn, /*charge_io=*/true);
  for (; it.Valid(); it.Next()) {
    const LogRecordView& rec = it.record();
    out->records_scanned++;
    ObserveForAtt(rec, &out->att, &out->max_txn_id);
    switch (rec.type) {
      case LogRecordType::kBeginCheckpoint:
        item.kind = DptWorkItem::Kind::kSeed;
        for (size_t i = 0; i < rec.ckpt_dpt_pids.size(); i++) {
          item.pid = rec.ckpt_dpt_pids[i];
          item.lsn = rec.ckpt_dpt_rlsns[i];
          pool.Route(item);
          if (item.lsn != kInvalidLsn && item.lsn < out->redo_start_lsn) {
            out->redo_start_lsn = item.lsn;
          }
        }
        break;
      case LogRecordType::kUpdate:
      case LogRecordType::kInsert:
      case LogRecordType::kDelete:
      case LogRecordType::kClr:
        item.kind = DptWorkItem::Kind::kUpsert;
        item.pid = rec.pid;
        item.lsn = rec.lsn;
        pool.Route(item);
        break;
      case LogRecordType::kSmo:
      case LogRecordType::kCreateTable:
        item.kind = DptWorkItem::Kind::kUpsert;
        item.lsn = rec.lsn;
        for (const SmoPageImageRef& p : rec.smo_pages) {
          item.pid = p.pid;
          pool.Route(item);
        }
        break;
      case LogRecordType::kSmoMerge:
        item.kind = DptWorkItem::Kind::kUpsert;
        item.lsn = rec.lsn;
        for (const SmoPageImageRef& p : rec.smo_pages) {
          if (p.pid == rec.pid) continue;
          item.pid = p.pid;
          pool.Route(item);
        }
        item.kind = DptWorkItem::Kind::kRemove;
        item.pid = rec.pid;
        pool.Route(item);
        break;
      case LogRecordType::kBwRecord:
        out->bw_records_seen++;
        item.kind = DptWorkItem::Kind::kPruneSql;
        item.lsn = rec.fw_lsn;
        for (PageId pid : rec.written_set) {
          item.pid = pid;
          pool.Route(item);
        }
        break;
      case LogRecordType::kDeltaRecord:
        out->delta_records_seen++;  // common-log artifact; SQL ignores it
        break;
      default:
        break;
    }
  }
  out->log_pages = it.pages_read();
  std::vector<uint64_t> shard_ops;
  pool.Finish(&out->dpt, &shard_ops, nullptr);
  uint64_t max_ops = 0;
  FoldShardOps(shard_ops, &out->dpt_updates, &max_ops);
  out->threads_used = threads;
  out->shard_cpu_us_max =
      static_cast<double>(max_ops) * cpu_per_dpt_update_us;
  out->shard_cpu_us_total =
      static_cast<double>(out->dpt_updates) * cpu_per_dpt_update_us;
  if (clock != nullptr && out->shard_cpu_us_max > 0) {
    clock->AdvanceUs(out->shard_cpu_us_max);
  }
  return Status::OK();
}

Status RunDcRecoveryParallel(LogManager* log, DataComponent* dc,
                             Lsn bckpt_lsn, DptMode mode, bool build_dpt,
                             bool preload_index, uint32_t threads,
                             DcRecoveryResult* out) {
  if (threads < 2 || !build_dpt) {
    // Log0 has no DPT to shard; its DC pass is the serial SMO replay.
    return RunDcRecovery(log, dc, bckpt_lsn, mode, build_dpt, preload_index,
                         out);
  }
  *out = DcRecoveryResult();
  RecoveryPassQuiescence quiesce(dc);
  DptShardPool pool(threads, /*track_first_mentions=*/true);
  DptWorkItem item;
  uint64_t seq = 0;
  Lsn prev_delta_lsn = bckpt_lsn;  // §4.2: rsspLSN before the first Δ
  std::vector<Lsn> structure_lsns;  // replayed once the DPT is final
  auto it = log->NewIterator(bckpt_lsn, /*charge_io=*/true);
  const Status scan_status = [&]() -> Status {
    for (; it.Valid(); it.Next()) {
      const LogRecordView& rec = it.record();
      out->records_scanned++;
      switch (rec.type) {
        case LogRecordType::kSmo:
        case LogRecordType::kCreateTable:
          structure_lsns.push_back(rec.lsn);
          break;
        case LogRecordType::kSmoMerge:
          structure_lsns.push_back(rec.lsn);
          item.kind = DptWorkItem::Kind::kRemove;
          item.pid = rec.pid;
          pool.Route(item);
          break;
        case LogRecordType::kDeltaRecord: {
          out->delta_records_seen++;
          // Dirty set: resolve each entry's conservative rLSN proxy here
          // (it depends on scan-order state: the prev-Δ TC-LSN chain),
          // stamp the global mention sequence, and route.
          item.kind = DptWorkItem::Kind::kUpsert;
          for (size_t i = 0; i < rec.dirty_set.size(); i++) {
            item.pid = rec.dirty_set[i];
            item.seq = seq++;
            switch (mode) {
              case DptMode::kPerfect:
                item.lsn = rec.dirty_lsns.at(i);
                break;
              case DptMode::kStandard:
                item.lsn = (rec.has_fw_fields && i >= rec.first_dirty)
                               ? rec.fw_lsn
                               : prev_delta_lsn;
                break;
              case DptMode::kReduced:
                item.lsn = prev_delta_lsn;
                break;
            }
            pool.Route(item);
          }
          // Written set: prune, with the serial pass's per-mode comparison.
          switch (mode) {
            case DptMode::kStandard:
            case DptMode::kPerfect:
              if (!rec.has_fw_fields) break;
              item.kind = DptWorkItem::Kind::kPruneDc;
              item.lsn = rec.fw_lsn;
              for (PageId pid : rec.written_set) {
                item.pid = pid;
                pool.Route(item);
              }
              break;
            case DptMode::kReduced:
              item.kind = DptWorkItem::Kind::kPruneReduced;
              item.lsn = prev_delta_lsn;
              for (PageId pid : rec.written_set) {
                item.pid = pid;
                pool.Route(item);
              }
              break;
          }
          prev_delta_lsn = rec.tc_lsn;
          out->last_delta_tc_lsn = rec.tc_lsn;
          break;
        }
        case LogRecordType::kBwRecord:
          out->bw_records_seen++;  // SQL-Server artifact; the DC ignores it
          break;
        default:
          break;  // TC records are not the DC's concern in this pass
      }
    }
    return Status::OK();
  }();
  out->log_pages = it.pages_read();  // filled on error exits too
  std::vector<uint64_t> shard_ops;
  pool.Finish(&out->dpt, &shard_ops, &out->pf_list);
  DEUTERO_RETURN_NOT_OK(scan_status);
  // Structure redo touches the pool and clock, so it runs here on the
  // dispatcher, against the merged (final) DPT.
  DEUTERO_RETURN_NOT_OK(ReplayDcStructure(log, dc, structure_lsns, out));
  // Free-list purge on the merged DPT, charged to the shard owning each
  // pid: the serial pass performs it after every scan event too.
  for (const PageId pid : dc->allocator().free_list()) {
    out->dpt.Remove(pid);
    shard_ops[RedoPartitionOf(pid, threads)]++;
  }
  uint64_t max_ops = 0;
  FoldShardOps(shard_ops, &out->dpt_updates, &max_ops);
  out->threads_used = threads;
  const double cpu_us = dc->options().io.cpu_per_dpt_update_us;
  out->shard_cpu_us_max = static_cast<double>(max_ops) * cpu_us;
  out->shard_cpu_us_total = static_cast<double>(out->dpt_updates) * cpu_us;
  if (out->shard_cpu_us_max > 0) {
    dc->clock().AdvanceUs(out->shard_cpu_us_max);
  }
  if (preload_index) {
    DEUTERO_RETURN_NOT_OK(dc->PreloadIndex());
  }
  return Status::OK();
}

}  // namespace deutero
