#include "recovery/analysis.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "recovery/pipeline_util.h"

namespace deutero {

namespace {

constexpr size_t kDptRingCapacity = 4096;  // power of two (SpscRing)

/// One resolved DPT mutation event. The dispatcher resolves every LSN
/// (record LSN, FW-LSN, prev-Δ TC-LSN, per-entry perfect LSN) before
/// handing it on, so the applier needs no per-mode logic of its own
/// beyond the prune comparison kind.
struct DptWorkItem {
  enum class Kind : uint8_t {
    kStop = 0,      ///< Control token: the pass is over (default-constructed).
    kUpsert,        ///< AddOrUpdate(pid, lsn); first mention may record seq.
    kSeed,          ///< Checkpoint DPT seed: AddExact(pid, lsn, lsn) if absent.
    kRemove,        ///< Remove(pid) (merge victim).
    kPruneSql,      ///< Algorithm 3 prune: lastLSN <= lsn removes.
    kPruneDc,       ///< Algorithm 4 prune: lastLSN <  lsn removes.
    kPruneReduced,  ///< App. D.2 prune: lastLSN < lsn removes, no rLSN bump.
  };
  Kind kind = Kind::kStop;
  PageId pid = kInvalidPageId;
  Lsn lsn = kInvalidLsn;
  uint64_t seq = 0;  ///< Global DirtySet mention order (PF-list; DC pass).
};

/// The one DPT event applier, for a shard worker and for the inline
/// partition alike. Returns true when an upsert was a first mention.
bool ApplyDptEvent(const DptWorkItem& item, DirtyPageTable* dpt) {
  switch (item.kind) {
    case DptWorkItem::Kind::kUpsert:
      return dpt->AddOrUpdate(item.pid, item.lsn);
    case DptWorkItem::Kind::kSeed:
      if (dpt->Find(item.pid) == nullptr) {
        dpt->AddExact(item.pid, item.lsn, item.lsn);
      }
      break;
    case DptWorkItem::Kind::kRemove:
      dpt->Remove(item.pid);
      break;
    case DptWorkItem::Kind::kPruneSql: {
      DirtyPageTable::Entry* e = dpt->Find(item.pid);
      if (e == nullptr) break;
      if (e->last_lsn <= item.lsn) {
        dpt->Remove(item.pid);
      } else if (e->rlsn < item.lsn) {
        e->rlsn = item.lsn;
      }
      break;
    }
    case DptWorkItem::Kind::kPruneDc: {
      DirtyPageTable::Entry* e = dpt->Find(item.pid);
      if (e == nullptr) break;
      if (e->last_lsn < item.lsn) {
        dpt->Remove(item.pid);
      } else if (e->rlsn < item.lsn) {
        e->rlsn = item.lsn;
      }
      break;
    }
    case DptWorkItem::Kind::kPruneReduced: {
      DirtyPageTable::Entry* e = dpt->Find(item.pid);
      if (e != nullptr && e->last_lsn < item.lsn) dpt->Remove(item.pid);
      break;
    }
    case DptWorkItem::Kind::kStop:
      break;  // handled by the shard's run loop
  }
  return false;
}

/// One shard: a thread draining its ring into a private DirtyPageTable.
/// No locks anywhere — the shard is the only state this thread touches.
class DptShardWorker {
 public:
  explicit DptShardWorker(bool track_first_mentions)
      : ring_(kDptRingCapacity), track_(track_first_mentions) {}
  /// Normally a no-op: DptEventSink::Finish already stopped and joined.
  ~DptShardWorker() {
    if (!thread_.joinable()) return;
    Push(DptWorkItem());  // kStop
    Join();
  }
  DptShardWorker(const DptShardWorker&) = delete;
  DptShardWorker& operator=(const DptShardWorker&) = delete;

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
      ops_++;
      if (ApplyDptEvent(item, &dpt_) && track_) {
        first_mentions_.emplace_back(item.seq, item.pid);
      }
    }
  }

  SpscRing<DptWorkItem> ring_;
  DirtyPageTable dpt_;
  std::vector<std::pair<uint64_t, PageId>> first_mentions_;
  uint64_t ops_ = 0;
  const bool track_;
  std::thread thread_;  ///< Last: it runs over every member above.
};

/// Where the dispatcher's resolved events go, and the per-partition event
/// counts the DPT CPU charge folds. One partition applies each event
/// straight to the result DPT (and each first mention straight to the
/// PF-list) in scan order; N >= 2 route them to shard workers, merged by
/// Finish.
class DptEventSink {
 public:
  /// `pf_list` == nullptr: no PF-list (the SQL pass).
  DptEventSink(uint32_t partitions, DirtyPageTable* dpt,
               std::vector<PageId>* pf_list)
      : dpt_(dpt), pf_list_(pf_list), shard_ops_(std::max(1u, partitions)) {
    if (partitions < 2) return;
    workers_.reserve(partitions);
    for (uint32_t i = 0; i < partitions; i++) {
      workers_.push_back(
          std::make_unique<DptShardWorker>(pf_list != nullptr));
    }
    for (auto& w : workers_) w->Start();
  }

  void Route(const DptWorkItem& item) {
    if (workers_.empty()) {
      shard_ops_[0]++;
      if (ApplyDptEvent(item, dpt_) && pf_list_ != nullptr) {
        pf_list_->push_back(item.pid);  // first mention (App. A.2)
      }
      return;
    }
    workers_[RedoPartitionOf(item.pid, partitions())]->Push(item);
  }

  /// Stop and join every shard, merge them into the result DPT (and the
  /// PF-list, in global first-mention order). Returns the event count of
  /// each partition, indexed by partition.
  std::vector<uint64_t>& Finish() {
    if (workers_.empty()) return shard_ops_;
    for (auto& w : workers_) w->Push(DptWorkItem());  // kStop
    for (auto& w : workers_) w->Join();
    std::vector<std::pair<uint64_t, PageId>> mentions;
    for (size_t i = 0; i < workers_.size(); i++) {
      const DptShardWorker& w = *workers_[i];
      shard_ops_[i] = w.ops();
      w.dpt().ForEach([&](PageId pid, const DirtyPageTable::Entry& e) {
        dpt_->AddExact(pid, e.rlsn, e.last_lsn);
      });
      mentions.insert(mentions.end(), w.first_mentions().begin(),
                      w.first_mentions().end());
    }
    if (pf_list_ != nullptr) {
      std::sort(mentions.begin(), mentions.end());
      pf_list_->reserve(mentions.size());
      for (const auto& [seq, pid] : mentions) pf_list_->push_back(pid);
    }
    return shard_ops_;
  }

  uint32_t partitions() const {
    return static_cast<uint32_t>(shard_ops_.size());
  }

 private:
  DirtyPageTable* dpt_;
  std::vector<PageId>* pf_list_;
  std::vector<uint64_t> shard_ops_;
  std::vector<std::unique_ptr<DptShardWorker>> workers_;
};

/// Fold per-partition event counts into `out` (dpt_updates is the total;
/// the partition count, and the slowest and summed DPT CPU) and charge the
/// slowest partition's share to `clock`, if any.
template <typename Result>
void ChargeDptCpu(const std::vector<uint64_t>& shard_ops, double cpu_us,
                  SimClock* clock, Result* out) {
  uint64_t max_ops = 0;
  out->dpt_updates = 0;
  for (const uint64_t ops : shard_ops) {
    out->dpt_updates += ops;
    max_ops = std::max(max_ops, ops);
  }
  out->threads_used = static_cast<uint32_t>(shard_ops.size());
  out->shard_cpu_us_max = static_cast<double>(max_ops) * cpu_us;
  out->shard_cpu_us_total = static_cast<double>(out->dpt_updates) * cpu_us;
  if (clock != nullptr && out->shard_cpu_us_max > 0) {
    clock->AdvanceUs(out->shard_cpu_us_max);
  }
}

/// Replay one structure record so the B-tree is well-formed before logical
/// redo traverses it. `dpt` == nullptr replays unconditionally (Log0 has no
/// DPT); otherwise a kSmo below `last_delta_tc_lsn` installs only the
/// images of pages Algorithm 5's test keeps (see ReplayDcStructure).
template <typename RecordT>
Status ReplayStructureRecord(DataComponent* dc, const RecordT& rec,
                             const DirtyPageTable* dpt, Lsn last_delta_tc_lsn,
                             DcRecoveryResult* out) {
  switch (rec.type) {
    case LogRecordType::kSmo:
      if (dpt != nullptr && rec.lsn < last_delta_tc_lsn) {
        uint64_t skipped = 0;
        DEUTERO_RETURN_NOT_OK(dc->RedoSmo(rec, [&](PageId pid) {
          const DirtyPageTable::Entry* e = dpt->Find(pid);
          if (e != nullptr && rec.lsn >= e->rlsn) return true;
          skipped++;
          return false;
        }));
        out->smo_pages_skipped += skipped;
        if (skipped < rec.smo_pages.size()) out->smo_redone++;
        return Status::OK();
      }
      DEUTERO_RETURN_NOT_OK(dc->RedoSmo(rec));
      break;
    case LogRecordType::kSmoMerge:
      // Delete-side SMO: reinstall the merge images and re-free the victim
      // page, whether or not the survivors are durable.
      DEUTERO_RETURN_NOT_OK(dc->RedoSmoMerge(rec));
      break;
    case LogRecordType::kCreateTable:
      // DDL is a DC system transaction: re-register the table and its
      // root before logical redo routes operations to it.
      DEUTERO_RETURN_NOT_OK(dc->RedoCreateTable(rec));
      break;
    default:
      return Status::InvalidArgument("not a structure record");
  }
  out->smo_redone++;
  return Status::OK();
}

}  // namespace

Status RunSqlAnalysis(LogManager* log, Lsn bckpt_lsn, uint32_t threads,
                      SqlAnalysisResult* out, SimClock* clock,
                      double cpu_per_dpt_update_us) {
  *out = SqlAnalysisResult();
  out->redo_start_lsn = bckpt_lsn;
  DptEventSink sink(threads, &out->dpt, /*pf_list=*/nullptr);
  DptWorkItem item;
  auto it = log->NewIterator(bckpt_lsn, /*charge_io=*/true);
  for (; it.Valid(); it.Next()) {
    const LogRecordView& rec = it.record();
    out->records_scanned++;
    ObserveForAtt(rec, &out->att, &out->max_txn_id);
    switch (rec.type) {
      case LogRecordType::kBeginCheckpoint:
        // ARIES checkpointing (§3.1): seed the DPT from the captured table;
        // the redo scan must reach back to its oldest rLSN.
        item.kind = DptWorkItem::Kind::kSeed;
        for (size_t i = 0; i < rec.ckpt_dpt_pids.size(); i++) {
          item.pid = rec.ckpt_dpt_pids[i];
          item.lsn = rec.ckpt_dpt_rlsns[i];
          sink.Route(item);
          if (item.lsn != kInvalidLsn && item.lsn < out->redo_start_lsn) {
            out->redo_start_lsn = item.lsn;
          }
        }
        break;
      case LogRecordType::kUpdate:
      case LogRecordType::kInsert:
      case LogRecordType::kDelete:
      case LogRecordType::kClr:
        // Algorithm 3 lines 5-10: first mention adds (PID, rLSN = LSN);
        // later mentions advance lastLSN.
        item.kind = DptWorkItem::Kind::kUpsert;
        item.pid = rec.pid;
        item.lsn = rec.lsn;
        sink.Route(item);
        break;
      case LogRecordType::kSmo:
      case LogRecordType::kCreateTable:
        // SMO system transactions (and DDL) are page updates too; their
        // pages need redo consideration exactly like data updates.
        item.kind = DptWorkItem::Kind::kUpsert;
        item.lsn = rec.lsn;
        for (const SmoPageImageRef& p : rec.smo_pages) {
          item.pid = p.pid;
          sink.Route(item);
        }
        break;
      case LogRecordType::kSmoMerge:
        // The surviving pages need redo consideration; the freed victim
        // drops out of the DPT — it is dead as of this record, and its
        // free image installs unconditionally when the merge replays. A
        // later split re-allocating it re-adds it with that split's rLSN.
        item.kind = DptWorkItem::Kind::kUpsert;
        item.lsn = rec.lsn;
        for (const SmoPageImageRef& p : rec.smo_pages) {
          if (p.pid == rec.pid) continue;
          item.pid = p.pid;
          sink.Route(item);
        }
        item.kind = DptWorkItem::Kind::kRemove;
        item.pid = rec.pid;
        sink.Route(item);
        break;
      case LogRecordType::kBwRecord:
        // Algorithm 3 lines 11-18: prune by the flushed set. Every probe
        // counts as a DPT event — the lookup is the work, hit or miss.
        out->bw_records_seen++;
        item.kind = DptWorkItem::Kind::kPruneSql;
        item.lsn = rec.fw_lsn;
        for (PageId pid : rec.written_set) {
          item.pid = pid;
          sink.Route(item);
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
  ChargeDptCpu(sink.Finish(), cpu_per_dpt_update_us, clock, out);
  return Status::OK();
}

Status ReplayDcStructure(LogManager* log, DataComponent* dc,
                         const std::vector<Lsn>& lsns,
                         DcRecoveryResult* out) {
  for (const Lsn lsn : lsns) {
    // A one-record scan: like the DC scan, it charges (and counts) every log
    // page the record spans, and an SMO record's page images can span
    // several.
    auto it = log->NewIterator(lsn, /*charge_io=*/true);
    if (!it.Valid() || it.lsn() != lsn) {
      return Status::InvalidArgument("no valid structure record at lsn");
    }
    out->log_pages += it.pages_read();
    DEUTERO_RETURN_NOT_OK(ReplayStructureRecord(
        dc, it.record(), &out->dpt, out->last_delta_tc_lsn, out));
  }
  return Status::OK();
}

Status RunDcRecovery(LogManager* log, DataComponent* dc, Lsn bckpt_lsn,
                     DptMode mode, bool build_dpt, bool preload_index,
                     uint32_t threads, DcRecoveryResult* out) {
  *out = DcRecoveryResult();
  RecoveryPassQuiescence quiesce(dc);
  DptEventSink sink(build_dpt ? threads : 1, &out->dpt, &out->pf_list);
  DptWorkItem item;
  uint64_t seq = 0;
  // "For the first Δ-log record encountered after the RSSP, we use rsspLSN"
  // as the previous record's TC-LSN (§4.2).
  Lsn prev_delta_lsn = bckpt_lsn;
  std::vector<Lsn> structure_lsns;  // the replay's work list (DPT builds)
  auto it = log->NewIterator(bckpt_lsn, /*charge_io=*/true);
  const Status scan_status = [&]() -> Status {
    for (; it.Valid(); it.Next()) {
      const LogRecordView& rec = it.record();
      out->records_scanned++;
      switch (rec.type) {
        case LogRecordType::kSmo:
        case LogRecordType::kSmoMerge:
        case LogRecordType::kCreateTable:
          if (!build_dpt) {
            // Log0: nothing to filter by, so replay inline.
            DEUTERO_RETURN_NOT_OK(
                ReplayStructureRecord(dc, rec, nullptr, kInvalidLsn, out));
            break;
          }
          structure_lsns.push_back(rec.lsn);
          if (rec.type == LogRecordType::kSmoMerge) {
            // The victim drops out of the DPT under construction (it cannot
            // need data-op redo once merged away; a later in-window split
            // re-allocating it re-adds it).
            item.kind = DptWorkItem::Kind::kRemove;
            item.pid = rec.pid;
            sink.Route(item);
          }
          break;
        case LogRecordType::kDeltaRecord: {
          out->delta_records_seen++;
          if (build_dpt) {
            // Algorithm 4's DC-DPT-UPDATE plus the App. D variants. Dirty
            // set: resolve each entry's conservative rLSN proxy (it
            // depends on scan-order state: the prev-Δ TC-LSN chain), stamp
            // the global mention sequence, and hand it on.
            item.kind = DptWorkItem::Kind::kUpsert;
            for (size_t i = 0; i < rec.dirty_set.size(); i++) {
              item.pid = rec.dirty_set[i];
              item.seq = seq++;
              switch (mode) {
                case DptMode::kPerfect:
                  // App. D.1: the Δ-record carries the exact update LSNs.
                  item.lsn = rec.dirty_lsns.at(i);
                  break;
                case DptMode::kStandard:
                  // Algorithm 4 lines 10-15.
                  item.lsn = (rec.has_fw_fields && i >= rec.first_dirty)
                                 ? rec.fw_lsn
                                 : prev_delta_lsn;
                  break;
                case DptMode::kReduced:
                  // App. D.2: no FW-LSN/FirstDirty; everything gets the
                  // previous Δ-record's TC-LSN.
                  item.lsn = prev_delta_lsn;
                  break;
              }
              sink.Route(item);
            }
            // Written set: prune.
            switch (mode) {
              case DptMode::kStandard:
              case DptMode::kPerfect:
                // Algorithm 4 lines 16-22.
                if (!rec.has_fw_fields) break;
                item.kind = DptWorkItem::Kind::kPruneDc;
                item.lsn = rec.fw_lsn;
                for (PageId pid : rec.written_set) {
                  item.pid = pid;
                  sink.Route(item);
                }
                break;
              case DptMode::kReduced:
                // App. D.2: the flushed set may prune pages added by PRIOR
                // Δ-records only. Entries added by this record carry
                // lastLSN == prev_delta_lsn; strictly older proxies
                // identify prior-record entries.
                item.kind = DptWorkItem::Kind::kPruneReduced;
                item.lsn = prev_delta_lsn;
                for (PageId pid : rec.written_set) {
                  item.pid = pid;
                  sink.Route(item);
                }
                break;
            }
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
  std::vector<uint64_t>& shard_ops = sink.Finish();
  DEUTERO_RETURN_NOT_OK(scan_status);
  if (build_dpt) {
    // Structure redo touches the pool and clock, so it runs here on the
    // dispatcher, against the final DPT.
    DEUTERO_RETURN_NOT_OK(ReplayDcStructure(log, dc, structure_lsns, out));
    // Pages that ended the window on the free-list must not remain in the
    // DPT: a Δ-record logged AFTER a merge can still list the victim (its
    // DirtySet accumulated the merge-time dirtying), and a stale entry
    // would let the PF-list prefetcher fault the free page back into the
    // pool — where it would sit resident until a post-recovery split
    // re-allocates the pid and collides in BufferPool::Create. Each
    // removal is one more event of the partition owning the pid.
    for (const PageId pid : dc->allocator().free_list()) {
      out->dpt.Remove(pid);
      shard_ops[RedoPartitionOf(pid, sink.partitions())]++;
    }
  }
  ChargeDptCpu(shard_ops, dc->options().io.cpu_per_dpt_update_us,
               &dc->clock(), out);
  if (preload_index) {
    DEUTERO_RETURN_NOT_OK(dc->PreloadIndex());
  }
  return Status::OK();
}

}  // namespace deutero
