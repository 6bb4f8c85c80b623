#include "recovery/analysis.h"

#include <algorithm>
#include <vector>

namespace deutero {

namespace {

/// A claim stamp of the current Δ-record's WrittenSet when no DirtySet
/// entry of the record names the page at or after FW-LSN: a prune that
/// raises the page's rLSN keeps the entry's stamp.
constexpr uint32_t kNoClaim = UINT32_MAX;

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

Status RunSqlAnalysis(LogManager* log, Lsn bckpt_lsn, SqlAnalysisResult* out,
                      SimClock* clock, double cpu_per_dpt_update_us) {
  *out = SqlAnalysisResult();
  out->redo_start_lsn = bckpt_lsn;
  DirtyPageTable& dpt = out->dpt;
  auto it = log->NewIterator(bckpt_lsn, /*charge_io=*/true);
  for (; it.Valid(); it.Next()) {
    const LogRecordView& rec = it.record();
    out->records_scanned++;
    ObserveForAtt(rec, &out->att, &out->max_txn_id);
    switch (rec.type) {
      case LogRecordType::kBeginCheckpoint:
        // ARIES checkpointing (§3.1): seed the DPT from the captured table;
        // the redo scan must reach back to its oldest rLSN.
        for (size_t i = 0; i < rec.ckpt_dpt_pids.size(); i++) {
          const PageId pid = rec.ckpt_dpt_pids[i];
          const Lsn rlsn = rec.ckpt_dpt_rlsns[i];
          out->dpt_updates++;
          if (dpt.Find(pid) == nullptr) dpt.AddExact(pid, rlsn, rlsn);
          if (rlsn != kInvalidLsn && rlsn < out->redo_start_lsn) {
            out->redo_start_lsn = rlsn;
          }
        }
        break;
      case LogRecordType::kUpdate:
      case LogRecordType::kInsert:
      case LogRecordType::kDelete:
      case LogRecordType::kClr:
        // Algorithm 3 lines 5-10: first mention adds (PID, rLSN = LSN);
        // later mentions advance lastLSN.
        out->dpt_updates++;
        dpt.AddOrUpdate(rec.pid, rec.lsn);
        break;
      case LogRecordType::kSmo:
      case LogRecordType::kCreateTable:
        // SMO system transactions (and DDL) are page updates too; their
        // pages need redo consideration exactly like data updates.
        for (const SmoPageImageRef& p : rec.smo_pages) {
          out->dpt_updates++;
          dpt.AddOrUpdate(p.pid, rec.lsn);
        }
        break;
      case LogRecordType::kSmoMerge:
        // The surviving pages need redo consideration; the freed victim
        // drops out of the DPT — it is dead as of this record, and its
        // free image installs unconditionally when the merge replays. A
        // later split re-allocating it re-adds it with that split's rLSN.
        for (const SmoPageImageRef& p : rec.smo_pages) {
          if (p.pid == rec.pid) continue;
          out->dpt_updates++;
          dpt.AddOrUpdate(p.pid, rec.lsn);
        }
        out->dpt_updates++;
        dpt.Remove(rec.pid);
        break;
      case LogRecordType::kBwRecord:
        // Algorithm 3 lines 11-18: prune by the flushed set. Every probe
        // counts as a DPT event — the lookup is the work, hit or miss.
        out->bw_records_seen++;
        for (const PageId pid : rec.written_set) {
          out->dpt_updates++;
          DirtyPageTable::Entry* e = dpt.Find(pid);
          if (e == nullptr) continue;
          if (e->last_lsn <= rec.fw_lsn) {
            dpt.Remove(pid);
          } else if (e->rlsn < rec.fw_lsn) {
            e->rlsn = rec.fw_lsn;
          }
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
  if (clock != nullptr) {
    clock->AdvanceUs(static_cast<double>(out->dpt_updates) *
                     cpu_per_dpt_update_us);
  }
  return Status::OK();
}

Status RunDcRecovery(LogManager* log, DataComponent* dc, Lsn bckpt_lsn,
                     DptMode mode, bool build_dpt, bool preload_index,
                     DcRecoveryResult* out) {
  *out = DcRecoveryResult();
  RecoveryPassQuiescence quiesce(dc);
  DirtyPageTable& dpt = out->dpt;
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
  // The tail's data ops, for Log2's PF-list: those at or after the latest
  // Δ-record's TC-LSN the scan has met.
  const bool list_tail = build_dpt && preload_index;
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
            out->dpt_updates++;
            dpt.Remove(rec.pid);
          }
          break;
        case LogRecordType::kDeltaRecord: {
          out->delta_records_seen++;
          if (build_dpt) {
            // Algorithm 4's DC-DPT-UPDATE plus the App. D variants. Dirty
            // set: each entry's conservative rLSN proxy (it depends on
            // scan-order state: the prev-Δ TC-LSN chain), stamped with the
            // global mention sequence.
            const bool prune_raises = mode != DptMode::kReduced &&
                                      rec.has_fw_fields &&
                                      !rec.written_set.empty();
            if (prune_raises) {
              claims.Clear();
              for (const PageId pid : rec.written_set) {
                claims.AddOrUpdate(pid, rec.fw_lsn, kNoClaim);
              }
            }
            for (size_t i = 0; i < rec.dirty_set.size(); i++) {
              const PageId pid = rec.dirty_set[i];
              const uint32_t claim = seq++;
              Lsn lsn = kInvalidLsn;
              switch (mode) {
                case DptMode::kPerfect:
                  // App. D.1: the Δ-record carries the exact update LSNs.
                  lsn = rec.dirty_lsns.at(i);
                  break;
                case DptMode::kStandard:
                  // Algorithm 4 lines 10-15.
                  lsn = (rec.has_fw_fields && i >= rec.first_dirty)
                            ? rec.fw_lsn
                            : prev_delta_lsn;
                  break;
                case DptMode::kReduced:
                  // App. D.2: no FW-LSN/FirstDirty; everything gets the
                  // previous Δ-record's TC-LSN.
                  lsn = prev_delta_lsn;
                  break;
              }
              out->dpt_updates++;
              dpt.AddOrUpdate(pid, lsn, claim);
              if (prune_raises && lsn >= rec.fw_lsn) {
                DirtyPageTable::Entry* c = claims.Find(pid);
                if (c != nullptr && c->claim_seq == kNoClaim) {
                  c->claim_seq = claim;
                }
              }
            }
            // Written set: prune. Every probe counts as a DPT event.
            switch (mode) {
              case DptMode::kStandard:
              case DptMode::kPerfect:
                // Algorithm 4 lines 16-22. A prune that raises a page's
                // rLSN to FW-LSN also moves its claim stamp to this
                // record's first entry naming it at or after FW-LSN: redo
                // claims the page there, not at its first mention.
                if (!rec.has_fw_fields) break;
                for (const PageId pid : rec.written_set) {
                  out->dpt_updates++;
                  DirtyPageTable::Entry* e = dpt.Find(pid);
                  if (e == nullptr) continue;
                  if (e->last_lsn < rec.fw_lsn) {
                    dpt.Remove(pid);
                  } else if (e->rlsn < rec.fw_lsn) {
                    e->rlsn = rec.fw_lsn;
                    const uint32_t claim = claims.Find(pid)->claim_seq;
                    if (claim != kNoClaim) e->claim_seq = claim;
                  }
                }
                break;
              case DptMode::kReduced:
                // App. D.2: the flushed set may prune pages added by PRIOR
                // Δ-records only. Entries added by this record carry
                // lastLSN == prev_delta_lsn; strictly older proxies
                // identify prior-record entries.
                for (const PageId pid : rec.written_set) {
                  out->dpt_updates++;
                  const DirtyPageTable::Entry* e = dpt.Find(pid);
                  if (e != nullptr && e->last_lsn < prev_delta_lsn) {
                    dpt.Remove(pid);
                  }
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
      charged_us = static_cast<double>(out->dpt_updates) * cpu_us;
      dc->clock().AdvanceUs(charged_us);
    }
    // Structure redo against the final DPT.
    DEUTERO_RETURN_NOT_OK(
        ReplayDcStructure(log, dc, structure_lsns, &preload, out));
    // Pages that ended the window on the free-list must not remain in the
    // DPT: a Δ-record logged AFTER a merge can still list the victim (its
    // DirtySet accumulated the merge-time dirtying), and a stale entry
    // would let the PF-list prefetcher fault the free page back into the
    // pool — where it would sit resident until a post-recovery split
    // re-allocates the pid and collides in BufferPool::Create. Each
    // removal is one more DPT event.
    for (const PageId pid : dc->allocator().free_list()) {
      out->dpt_updates++;
      dpt.Remove(pid);
    }
  }
  // The purge's events (and, for Log0 and Log1, the scan's).
  dc->clock().AdvanceUs(static_cast<double>(out->dpt_updates) * cpu_us -
                        charged_us);
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
