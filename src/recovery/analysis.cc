#include "recovery/analysis.h"

#include <cassert>

namespace deutero {

Status RunSqlAnalysis(LogManager* log, Lsn bckpt_lsn, SqlAnalysisResult* out,
                      SimClock* clock, double cpu_per_dpt_update_us) {
  *out = SqlAnalysisResult();
  out->redo_start_lsn = bckpt_lsn;
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
          if (out->dpt.Find(pid) == nullptr) {
            out->dpt.AddExact(pid, rlsn, rlsn);
          }
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
        out->dpt.AddOrUpdate(rec.pid, rec.lsn);
        break;
      case LogRecordType::kSmo:
      case LogRecordType::kCreateTable:
        // SMO system transactions (and DDL) are page updates too; their
        // pages need redo consideration exactly like data updates.
        for (const SmoPageImageRef& p : rec.smo_pages) {
          out->dpt_updates++;
          out->dpt.AddOrUpdate(p.pid, rec.lsn);
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
          out->dpt.AddOrUpdate(p.pid, rec.lsn);
        }
        out->dpt_updates++;
        out->dpt.Remove(rec.pid);
        break;
      case LogRecordType::kBwRecord: {
        // Algorithm 3 lines 11-18: prune by the flushed set. Every probe
        // counts as a DPT event — the lookup is the work, hit or miss.
        out->bw_records_seen++;
        for (PageId pid : rec.written_set) {
          out->dpt_updates++;
          DirtyPageTable::Entry* e = out->dpt.Find(pid);
          if (e == nullptr) continue;
          if (e->last_lsn <= rec.fw_lsn) {
            out->dpt.Remove(pid);
          } else if (e->rlsn < rec.fw_lsn) {
            e->rlsn = rec.fw_lsn;
          }
        }
        break;
      }
      case LogRecordType::kDeltaRecord:
        out->delta_records_seen++;  // common-log artifact; SQL ignores it
        break;
      default:
        break;
    }
  }
  out->log_pages = it.pages_read();
  out->shard_cpu_us_max = out->shard_cpu_us_total =
      static_cast<double>(out->dpt_updates) * cpu_per_dpt_update_us;
  if (clock != nullptr && out->shard_cpu_us_max > 0) {
    clock->AdvanceUs(out->shard_cpu_us_max);
  }
  return Status::OK();
}

namespace {

/// Algorithm 4's DC-DPT-UPDATE plus the App. D variants. `updates` counts
/// DPT mutation events (one per dirty-set entry, one per written-set probe)
/// for the cpu_per_dpt_update_us charge.
void ApplyDeltaToDpt(const LogRecordView& rec, Lsn prev_delta_lsn,
                     DptMode mode, DirtyPageTable* dpt,
                     std::vector<PageId>* pf_list, uint64_t* updates) {
  // Dirty set: assign conservative rLSN proxies.
  for (size_t i = 0; i < rec.dirty_set.size(); i++) {
    const PageId pid = rec.dirty_set[i];
    (*updates)++;
    if (pf_list != nullptr && dpt->Find(pid) == nullptr) {
      pf_list->push_back(pid);  // first mention (App. A.2)
    }
    switch (mode) {
      case DptMode::kPerfect:
        // App. D.1: the Δ-record carries the exact update LSNs.
        dpt->AddOrUpdate(pid, rec.dirty_lsns.at(i));
        break;
      case DptMode::kStandard:
        // Algorithm 4 lines 10-15.
        if (rec.has_fw_fields && i >= rec.first_dirty) {
          dpt->AddOrUpdate(pid, rec.fw_lsn);
        } else {
          dpt->AddOrUpdate(pid, prev_delta_lsn);
        }
        break;
      case DptMode::kReduced:
        // App. D.2: no FW-LSN/FirstDirty; everything gets the previous
        // Δ-record's TC-LSN.
        dpt->AddOrUpdate(pid, prev_delta_lsn);
        break;
    }
  }

  // Written set: prune.
  switch (mode) {
    case DptMode::kStandard:
    case DptMode::kPerfect:
      if (!rec.has_fw_fields) break;
      // Algorithm 4 lines 16-22.
      for (PageId pid : rec.written_set) {
        (*updates)++;
        DirtyPageTable::Entry* e = dpt->Find(pid);
        if (e == nullptr) continue;
        if (e->last_lsn < rec.fw_lsn) {
          dpt->Remove(pid);
        } else if (e->rlsn < rec.fw_lsn) {
          e->rlsn = rec.fw_lsn;
        }
      }
      break;
    case DptMode::kReduced:
      // App. D.2: the flushed set may prune pages added by PRIOR Δ-records
      // only. Entries added by this record carry lastLSN == prev_delta_lsn;
      // strictly older proxies identify prior-record entries.
      for (PageId pid : rec.written_set) {
        (*updates)++;
        DirtyPageTable::Entry* e = dpt->Find(pid);
        if (e != nullptr && e->last_lsn < prev_delta_lsn) dpt->Remove(pid);
      }
      break;
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
                     DcRecoveryResult* out) {
  *out = DcRecoveryResult();
  RecoveryPassQuiescence quiesce(dc);
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
            out->dpt_updates++;
            out->dpt.Remove(rec.pid);
          }
          break;
        case LogRecordType::kDeltaRecord:
          out->delta_records_seen++;
          if (build_dpt) {
            ApplyDeltaToDpt(rec, prev_delta_lsn, mode, &out->dpt,
                            &out->pf_list, &out->dpt_updates);
          }
          prev_delta_lsn = rec.tc_lsn;
          out->last_delta_tc_lsn = rec.tc_lsn;
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
  if (build_dpt) {
    DEUTERO_RETURN_NOT_OK(ReplayDcStructure(log, dc, structure_lsns, out));
    // Pages that ended the window on the free-list must not remain in the
    // DPT: a Δ-record logged AFTER a merge can still list the victim (its
    // DirtySet accumulated the merge-time dirtying), and a stale entry
    // would let the PF-list prefetcher fault the free page back into the
    // pool — where it would sit resident until a post-recovery split
    // re-allocates the pid and collides in BufferPool::Create.
    for (const PageId pid : dc->allocator().free_list()) {
      out->dpt_updates++;
      out->dpt.Remove(pid);
    }
  }
  // DPT-construction CPU, charged pass-complete (inline-equivalent: nothing
  // in this pass depends on absolute time between records). The parallel
  // pass charges only the slowest shard's share — see parallel_analysis.cc.
  out->shard_cpu_us_max = out->shard_cpu_us_total =
      static_cast<double>(out->dpt_updates) *
      dc->options().io.cpu_per_dpt_update_us;
  if (out->shard_cpu_us_max > 0) dc->clock().AdvanceUs(out->shard_cpu_us_max);
  if (preload_index) {
    DEUTERO_RETURN_NOT_OK(dc->PreloadIndex());
  }
  return Status::OK();
}

}  // namespace deutero
