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

/// A prune event's claim stamp when no DirtySet entry of its Δ-record
/// names the page at or after FW-LSN: a raise keeps the entry's stamp.
constexpr uint32_t kNoClaim = UINT32_MAX;

/// One resolved DPT mutation event. The dispatcher resolves every LSN
/// (record LSN, FW-LSN, prev-Δ TC-LSN, per-entry perfect LSN) and claim
/// stamp before handing it on, so the applier needs no per-mode logic of
/// its own beyond the prune comparison kind.
struct DptWorkItem {
  enum class Kind : uint8_t {
    kStop = 0,      ///< Control token: the pass is over (default-constructed).
    kUpsert,        ///< AddOrUpdate(pid, lsn, claim_seq).
    kSeed,          ///< Checkpoint DPT seed: AddExact(pid, lsn, lsn) if absent.
    kRemove,        ///< Remove(pid) (merge victim).
    kPruneSql,      ///< Algorithm 3 prune: lastLSN <= lsn removes.
    kPruneDc,       ///< Algorithm 4 prune: lastLSN <  lsn removes.
    kPruneReduced,  ///< App. D.2 prune: lastLSN < lsn removes, no rLSN bump.
  };
  Kind kind = Kind::kStop;
  PageId pid = kInvalidPageId;
  /// DC pass: an upsert's DirtySet scan sequence number; a kPruneDc's
  /// stamp for the rLSN it may raise (kNoClaim: keep the entry's).
  uint32_t claim_seq = 0;
  Lsn lsn = kInvalidLsn;
};

/// The one DPT event applier, for a shard worker and for the inline
/// partition alike.
void ApplyDptEvent(const DptWorkItem& item, DirtyPageTable* dpt) {
  switch (item.kind) {
    case DptWorkItem::Kind::kUpsert:
      dpt->AddOrUpdate(item.pid, item.lsn, item.claim_seq);
      break;
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
        if (item.claim_seq != kNoClaim) e->claim_seq = item.claim_seq;
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
}

/// One shard: a thread draining its ring into a private DirtyPageTable.
/// No locks anywhere — the shard is the only state this thread touches.
class DptShardWorker {
 public:
  DptShardWorker() : ring_(kDptRingCapacity) {}
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
      ApplyDptEvent(item, &dpt_);
    }
  }

  SpscRing<DptWorkItem> ring_;
  DirtyPageTable dpt_;
  uint64_t ops_ = 0;
  std::thread thread_;  ///< Last: it runs over every member above.
};

/// Where the dispatcher's resolved events go, and the per-partition event
/// counts the DPT CPU charge folds. One partition applies each event
/// straight to the result DPT in scan order; N >= 2 route them to shard
/// workers, merged by Finish.
class DptEventSink {
 public:
  DptEventSink(uint32_t partitions, DirtyPageTable* dpt)
      : dpt_(dpt), shard_ops_(std::max(1u, partitions)) {
    if (partitions < 2) return;
    workers_.reserve(partitions);
    for (uint32_t i = 0; i < partitions; i++) {
      workers_.push_back(std::make_unique<DptShardWorker>());
    }
    for (auto& w : workers_) w->Start();
  }

  void Route(const DptWorkItem& item) {
    if (workers_.empty()) {
      shard_ops_[0]++;
      ApplyDptEvent(item, dpt_);
      return;
    }
    workers_[RedoPartitionOf(item.pid, partitions())]->Push(item);
  }

  /// Stop and join every shard and merge them, claim stamps included, into
  /// the result DPT. Returns the event count of each partition, indexed by
  /// partition.
  std::vector<uint64_t>& Finish() {
    if (workers_.empty()) return shard_ops_;
    for (auto& w : workers_) w->Push(DptWorkItem());  // kStop
    for (auto& w : workers_) w->Join();
    for (size_t i = 0; i < workers_.size(); i++) {
      const DptShardWorker& w = *workers_[i];
      shard_ops_[i] = w.ops();
      w.dpt().ForEach([&](PageId pid, const DirtyPageTable::Entry& e) {
        dpt_->AddExact(pid, e.rlsn, e.last_lsn, e.claim_seq);
      });
    }
    return shard_ops_;
  }

  uint32_t partitions() const {
    return static_cast<uint32_t>(shard_ops_.size());
  }

 private:
  DirtyPageTable* dpt_;
  std::vector<uint64_t> shard_ops_;
  std::vector<std::unique_ptr<DptShardWorker>> workers_;
};

/// The slowest partition's share of the DPT CPU: what a pass charges.
double SlowestShareUs(const std::vector<uint64_t>& shard_ops, double cpu_us) {
  return static_cast<double>(
             *std::max_element(shard_ops.begin(), shard_ops.end())) *
         cpu_us;
}

/// Fold per-partition event counts into `out` (dpt_updates is the total;
/// the partition count, and the slowest and summed DPT CPU) and charge the
/// slowest partition's share to `clock`, if any, less `charged_us`: the
/// part of it the pass charged already (RunDcRecovery's scan share).
template <typename Result>
void ChargeDptCpu(const std::vector<uint64_t>& shard_ops, double cpu_us,
                  SimClock* clock, Result* out, double charged_us = 0) {
  out->dpt_updates = 0;
  for (const uint64_t ops : shard_ops) out->dpt_updates += ops;
  out->threads_used = static_cast<uint32_t>(shard_ops.size());
  out->shard_cpu_us_max = SlowestShareUs(shard_ops, cpu_us);
  out->shard_cpu_us_total = static_cast<double>(out->dpt_updates) * cpu_us;
  if (clock != nullptr && out->shard_cpu_us_max > charged_us) {
    clock->AdvanceUs(out->shard_cpu_us_max - charged_us);
  }
}

/// Algorithm 5's test on a page image of the kSmo record at `lsn`: whether
/// the structure replay must install it. In the log's tail (at or after
/// the last Δ-record's TC-LSN, §4.3) it must; below it, only when the DPT
/// names the page with rLSN <= lsn, since every other page's stable copy
/// already carries the record's effects. The replay's filter and its
/// install read-ahead both call it.
bool SmoImageNeedsInstall(const DcRecoveryResult& dcr, Lsn lsn, PageId pid) {
  if (lsn >= dcr.last_delta_tc_lsn) return true;
  const DirtyPageTable::Entry* e = dcr.dpt.Find(pid);
  return e != nullptr && lsn >= e->rlsn;
}

/// Replay one structure record so the B-tree is well-formed before logical
/// redo traverses it. Without `use_dpt` it replays unconditionally (Log0
/// has no DPT); with it a kSmo installs only the images
/// SmoImageNeedsInstall keeps, by `out`'s final DPT.
template <typename RecordT>
Status ReplayStructureRecord(DataComponent* dc, const RecordT& rec,
                             bool use_dpt, DcRecoveryResult* out) {
  switch (rec.type) {
    case LogRecordType::kSmo:
      if (use_dpt) {
        uint64_t skipped = 0;
        DEUTERO_RETURN_NOT_OK(dc->RedoSmo(rec, [&](PageId pid) {
          if (SmoImageNeedsInstall(*out, rec.lsn, pid)) return true;
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

/// Log2's index preload under the DC pass: one no-wait descent per table
/// of the stable catalog (BTree::StartPreload), stepped by the dispatcher
/// as the pass goes, so each level goes out as soon as the one above it
/// has arrived. Internal pages are never freed or reused (index extents,
/// storage/allocator.h), so every page the descents read belongs to the
/// final tree, however stale the stable parent that named it; the waiting
/// PreloadIndex after the replay reads what they have not. Off (Log0,
/// Log1), it holds no descent and a step does nothing.
class IndexPreloadUnderScan {
 public:
  IndexPreloadUnderScan(DataComponent* dc, bool on) {
    if (!on) return;
    const std::vector<TableInfo>& tables = dc->catalog().tables();
    descents_.resize(tables.size());
    for (size_t i = 0; i < tables.size(); i++) {
      dc->FindTable(tables[i].id)->StartPreload(&descents_[i]);
    }
  }

  Status Step() {
    for (BTree::Descent& d : descents_) DEUTERO_RETURN_NOT_OK(d.Step());
    return Status::OK();
  }

 private:
  std::vector<BTree::Descent> descents_;
};

/// A page image the structure replay may install, as the scan meets it.
struct InstallCandidate {
  Lsn lsn = kInvalidLsn;
  PageId pid = kInvalidPageId;
  bool dpt_tested = false;  ///< A kSmo image: SmoImageNeedsInstall decides.
};

/// The replay's install pages out as one span Prefetch, once the DPT is
/// final: the candidates ReplayStructureRecord keeps, except pids past the
/// device end (the replay grows the device for them). A merge's victim is
/// no candidate: its free image is never installed (RedoSmoMerge). The
/// read-ahead takes no more pages than the pool has unused frames, so it
/// evicts nothing.
void PrefetchInstallPages(DataComponent* dc,
                          const std::vector<InstallCandidate>& candidates,
                          const DcRecoveryResult& dcr) {
  std::vector<PageId> pids;
  const uint64_t room = dc->pool().unused_frames();
  for (const InstallCandidate& c : candidates) {
    if (pids.size() == room) break;
    if (c.pid >= dc->disk().num_pages()) continue;
    if (c.dpt_tested && !SmoImageNeedsInstall(dcr, c.lsn, c.pid)) continue;
    pids.push_back(c.pid);
  }
  dc->pool().Prefetch(pids, PageClass::kIndex);
}

/// Phase 2 of the DC pass with a DPT: once `out->dpt` and
/// `out->last_delta_tc_lsn` are final, re-read each structure record at
/// `lsns` (ascending) and replay it through ReplayStructureRecord,
/// stepping the preload before each. One cursor seeks from record to
/// record, so each log page a record spans is charged once across the
/// replay: an SMO record's page images can span several pages, and
/// consecutive records can share one.
Status ReplayDcStructure(LogManager* log, DataComponent* dc,
                         const std::vector<Lsn>& lsns,
                         IndexPreloadUnderScan* preload,
                         DcRecoveryResult* out) {
  if (lsns.empty()) return Status::OK();
  auto it = log->NewIterator(lsns.front(), /*charge_io=*/true);
  uint64_t pages_counted = 0;
  for (const Lsn lsn : lsns) {
    it.Seek(lsn);
    if (!it.Valid()) {
      return Status::InvalidArgument("no valid structure record at lsn");
    }
    out->log_pages += it.pages_read() - pages_counted;
    pages_counted = it.pages_read();
    DEUTERO_RETURN_NOT_OK(preload->Step());
    DEUTERO_RETURN_NOT_OK(
        ReplayStructureRecord(dc, it.record(), /*use_dpt=*/true, out));
  }
  return Status::OK();
}

/// A data-op record of the log's tail, as the scan meets it.
struct TailKey {
  Lsn lsn = kInvalidLsn;
  TableId table = kInvalidTableId;
  Key key = 0;
};

/// DcRecoveryResult::tail_pages from the tail's keys, in their order: the
/// leaf FindLeaf finds for each on the final tree, unless the DPT names it
/// or the list has it already.
Status ListTailPages(DataComponent* dc, const std::vector<TailKey>& keys,
                     DcRecoveryResult* out) {
  DirtyPageTable listed;  // used as a set
  for (const TailKey& k : keys) {
    PageId pid = kInvalidPageId;
    DEUTERO_RETURN_NOT_OK(dc->FindLeaf(k.table, k.key, &pid));
    if (out->dpt.Find(pid) != nullptr || listed.Find(pid) != nullptr) continue;
    listed.AddOrUpdate(pid, kInvalidLsn);
    out->tail_pages.push_back(pid);
  }
  return Status::OK();
}

}  // namespace

Status RunSqlAnalysis(LogManager* log, Lsn bckpt_lsn, uint32_t threads,
                      SqlAnalysisResult* out, SimClock* clock,
                      double cpu_per_dpt_update_us) {
  *out = SqlAnalysisResult();
  out->redo_start_lsn = bckpt_lsn;
  DptEventSink sink(threads, &out->dpt);
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

Status RunDcRecovery(LogManager* log, DataComponent* dc, Lsn bckpt_lsn,
                     DptMode mode, bool build_dpt, bool preload_index,
                     uint32_t threads, DcRecoveryResult* out) {
  *out = DcRecoveryResult();
  RecoveryPassQuiescence quiesce(dc);
  DptEventSink sink(build_dpt ? threads : 1, &out->dpt);
  DptWorkItem item;
  // DirtySet scan sequence number: the claim stamps' order. It would wrap
  // only past 2^32 entries in one window, and prefetch order is a hint.
  uint32_t seq = 0;
  // The current Δ-record's WrittenSet pages, each stamped with the record's
  // first DirtySet entry naming it at or after FW-LSN (kNoClaim if none):
  // the stamps its prune may raise to. Scratch reused across records.
  DirtyPageTable claims;
  // "For the first Δ-log record encountered after the RSSP, we use rsspLSN"
  // as the previous record's TC-LSN (§4.2).
  Lsn prev_delta_lsn = bckpt_lsn;
  std::vector<Lsn> structure_lsns;  // the replay's work list (DPT builds)
  // The replay's install candidates, collected when the pass preloads.
  std::vector<InstallCandidate> install;
  // The tail's data ops, for Log2's one-partition PF-list: those at or
  // after the latest Δ-record's TC-LSN the scan has met.
  const bool list_tail = build_dpt && preload_index && threads < 2;
  std::vector<TailKey> tail_keys;
  IndexPreloadUnderScan preload(dc, preload_index);
  auto it = log->NewIterator(bckpt_lsn, /*charge_io=*/true);
  const Status scan_status = [&]() -> Status {
    uint64_t pages_stepped = 0;
    for (; it.Valid(); it.Next()) {
      const LogRecordView& rec = it.record();
      out->records_scanned++;
      if (it.pages_read() != pages_stepped) {
        // The scan read a log page: the clock moved, and a level of the
        // preload may have arrived.
        pages_stepped = it.pages_read();
        DEUTERO_RETURN_NOT_OK(preload.Step());
      }
      switch (rec.type) {
        case LogRecordType::kSmo:
        case LogRecordType::kSmoMerge:
        case LogRecordType::kCreateTable:
          if (!build_dpt) {
            // Log0: nothing to filter by, so replay inline.
            DEUTERO_RETURN_NOT_OK(
                ReplayStructureRecord(dc, rec, /*use_dpt=*/false, out));
            break;
          }
          structure_lsns.push_back(rec.lsn);
          if (preload_index) {
            for (const SmoPageImageRef& p : rec.smo_pages) {
              if (rec.type != LogRecordType::kSmoMerge || p.pid != rec.pid) {
                install.push_back(
                    {rec.lsn, p.pid, rec.type == LogRecordType::kSmo});
              }
            }
          }
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
            const bool prune_raises = mode != DptMode::kReduced &&
                                      rec.has_fw_fields &&
                                      !rec.written_set.empty();
            if (prune_raises) {
              claims.Clear();
              for (PageId pid : rec.written_set) {
                claims.AddOrUpdate(pid, rec.fw_lsn, kNoClaim);
              }
            }
            item.kind = DptWorkItem::Kind::kUpsert;
            for (size_t i = 0; i < rec.dirty_set.size(); i++) {
              item.pid = rec.dirty_set[i];
              item.claim_seq = seq++;
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
              if (prune_raises && item.lsn >= rec.fw_lsn) {
                DirtyPageTable::Entry* c = claims.Find(item.pid);
                if (c != nullptr && c->claim_seq == kNoClaim) {
                  c->claim_seq = item.claim_seq;
                }
              }
            }
            // Written set: prune.
            switch (mode) {
              case DptMode::kStandard:
              case DptMode::kPerfect:
                // Algorithm 4 lines 16-22. A prune that raises a page's
                // rLSN to FW-LSN also moves its claim stamp to this
                // record's first entry naming it at or after FW-LSN: redo
                // claims the page there, not at its first mention.
                if (!rec.has_fw_fields) break;
                item.kind = DptWorkItem::Kind::kPruneDc;
                item.lsn = rec.fw_lsn;
                for (PageId pid : rec.written_set) {
                  item.pid = pid;
                  item.claim_seq = claims.Find(pid)->claim_seq;
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
          if (list_tail) {
            // TC-LSNs only grow: the records before this one's are out of
            // the tail for good.
            tail_keys.erase(
                tail_keys.begin(),
                std::find_if(tail_keys.begin(), tail_keys.end(),
                             [&](const TailKey& k) {
                               return k.lsn >= rec.tc_lsn;
                             }));
          }
          break;
        }
        case LogRecordType::kUpdate:
        case LogRecordType::kInsert:
        case LogRecordType::kDelete:
        case LogRecordType::kClr:
          if (list_tail) tail_keys.push_back({rec.lsn, rec.table_id, rec.key});
          break;
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
  const double cpu_us = dc->options().io.cpu_per_dpt_update_us;
  double charged_us = 0;
  if (build_dpt) {
    if (preload_index) {
      // The DPT is final: the replay's install pages go out now, and the
      // scan's DPT CPU is charged while they and the preload are in
      // flight. The waiting passes (Log1) keep it at pass end, where
      // nothing overlaps it either way.
      PrefetchInstallPages(dc, install, *out);
      charged_us = SlowestShareUs(shard_ops, cpu_us);
      dc->clock().AdvanceUs(charged_us);
    }
    // Structure redo touches the pool and clock, so it runs here on the
    // dispatcher, against the final DPT.
    DEUTERO_RETURN_NOT_OK(
        ReplayDcStructure(log, dc, structure_lsns, &preload, out));
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
  // The purge's events (and, for Log0 and Log1, the scan's).
  ChargeDptCpu(shard_ops, cpu_us, &dc->clock(), out, charged_us);
  if (preload_index) {
    // The correctness net: it reads what the descents under the scan could
    // not (pages the replay installed or linked in, tables it created) and
    // waits for what they still have in flight.
    DEUTERO_RETURN_NOT_OK(dc->PreloadIndex());
  }
  // The tree is final and its index loaded: the tail's leaves cost CPU.
  if (list_tail) DEUTERO_RETURN_NOT_OK(ListTailPages(dc, tail_keys, out));
  return Status::OK();
}

}  // namespace deutero
