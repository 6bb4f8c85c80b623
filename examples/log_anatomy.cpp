// Anatomy of the integrated common log (paper §5.1): runs a tiny mixed
// workload — DDL, transactions, a checkpoint, Δ/BW-records, an SMO — then
// dumps every stable record, annotating who wrote it (TC vs DC) and which
// recovery family consumes it. Exits non-zero if a call fails or the dump
// lacks the runtime rollback's CLR and abort record.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/engine.h"
#include "workload/driver.h"

using namespace deutero;  // NOLINT

namespace {

const char* Role(LogRecordType t) {
  switch (t) {
    case LogRecordType::kUpdate:
    case LogRecordType::kInsert:
    case LogRecordType::kDelete:
      return "TC data op     logical key for Log*, PID for SQL*";
    case LogRecordType::kClr:
      return "TC compensation redo-only, skipped by undo";
    case LogRecordType::kTxnBegin:
    case LogRecordType::kTxnCommit:
    case LogRecordType::kTxnAbort:
      return "TC txn control  drives the active-transaction table";
    case LogRecordType::kBeginCheckpoint:
      return "TC checkpoint   carries the captured ATT (+DPT if ARIES)";
    case LogRecordType::kEndCheckpoint:
      return "TC checkpoint   names its bCkpt; master record target";
    case LogRecordType::kBwRecord:
      return "DC (SQL path)   flushed PIDs, prunes the SQL DPT (Alg. 3)";
    case LogRecordType::kDeltaRecord:
      return "DC (Log path)   DirtySet/WrittenSet/FW-LSN (Alg. 4)";
    case LogRecordType::kRsspAck:
      return "DC control      records the redo scan start point";
    case LogRecordType::kSmo:
      return "DC system txn   page-split images, redone before TC redo";
    case LogRecordType::kCreateTable:
      return "DC system txn   DDL: table id + schema + root image";
    default:
      return "";
  }
}

void Check(const Status& s, const char* what) {
  if (s.ok()) return;
  std::fprintf(stderr, "%s failed: %s\n", what, s.ToString().c_str());
  std::exit(1);
}

}  // namespace

int main() {
  EngineOptions o;
  o.page_size = 1024;
  o.num_rows = 500;
  o.cache_pages = 32;
  o.lazy_writer_reference_cache_pages = 32;
  o.bw_written_capacity = 8;
  o.delta_dirty_capacity = 20;

  std::unique_ptr<Engine> db;
  Check(Engine::Open(o, &db), "Open");

  // Some activity of every flavor.
  Check(db->CreateTable(7, 16), "CreateTable");
  WorkloadDriver driver(db.get(), WorkloadConfig{});
  Check(driver.RunOps(40), "RunOps");
  Table side_table;
  Check(db->OpenTable(7, &side_table), "OpenTable");
  {
    Txn t;
    Check(db->Begin(&t), "Begin");
    for (Key k = 0; k < 30; k++) {
      // Forces a split.
      Check(t.Insert(side_table, k, std::string(16, 'a')), "Insert");
    }
    // A kDelete record with a before-image.
    Check(t.Delete(side_table, 5), "Delete");
    Check(t.Commit(), "Commit");
  }
  Check(db->Checkpoint(), "Checkpoint");
  TxnId rolled_back = kInvalidTxnId;
  {
    Table table;
    Check(db->OpenDefaultTable(&table), "OpenDefaultTable");
    Txn t;
    Check(db->Begin(&t), "Begin");
    rolled_back = t.id();
    Check(t.Update(table, 3, std::string(o.value_size, 'z')), "Update");
    Check(t.Abort(), "Abort");  // produces a CLR
  }
  db->tc().ForceLog();

  std::printf("%-10s %-16s %-6s %s\n", "LSN", "type", "bytes", "role");
  std::printf("%s\n", std::string(96, '-').c_str());
  Lsn prev = kFirstLsn;
  uint64_t count = 0;
  bool saw_clr = false;
  bool saw_abort = false;
  for (auto it = db->wal().NewIterator(kFirstLsn, false); it.Valid();
       it.Next()) {
    const LogRecordView& rec = it.record();
    const uint64_t size = it.lsn() - prev;
    (void)size;
    std::string extra;
    switch (rec.type) {
      case LogRecordType::kUpdate:
      case LogRecordType::kInsert:
      case LogRecordType::kDelete:
        extra = "  table=" + std::to_string(rec.table_id) +
                " key=" + std::to_string(rec.key) +
                " pid=" + std::to_string(rec.pid);
        break;
      case LogRecordType::kDeltaRecord:
        extra = "  |DirtySet|=" + std::to_string(rec.dirty_set.size()) +
                " |WrittenSet|=" + std::to_string(rec.written_set.size()) +
                " FW-LSN=" + std::to_string(rec.fw_lsn) +
                " FirstDirty=" + std::to_string(rec.first_dirty) +
                " TC-LSN=" + std::to_string(rec.tc_lsn);
        break;
      case LogRecordType::kBwRecord:
        extra = "  |WrittenSet|=" + std::to_string(rec.written_set.size()) +
                " FW-LSN=" + std::to_string(rec.fw_lsn);
        break;
      case LogRecordType::kSmo:
      case LogRecordType::kCreateTable:
        extra = "  pages=" + std::to_string(rec.smo_pages.size()) +
                " alloc-hwm=" + std::to_string(rec.alloc_hwm) +
                " index-extent=[" + std::to_string(rec.index_extent.next) +
                "," + std::to_string(rec.index_extent.end) + ")";
        break;
      case LogRecordType::kBeginCheckpoint:
        extra = "  |ATT|=" + std::to_string(rec.att_txn_ids.size());
        break;
      default:
        break;
    }
    std::printf("%-10llu %-16s %-6llu %s%s\n",
                (unsigned long long)it.lsn(), LogRecordTypeName(rec.type),
                (unsigned long long)it.payload_size(),
                Role(rec.type), extra.c_str());
    if (rec.txn_id == rolled_back) {
      saw_clr |= rec.type == LogRecordType::kClr;
      saw_abort |= rec.type == LogRecordType::kTxnAbort;
    }
    prev = it.lsn();
    count++;
    if (count > 120) {
      std::printf("... (truncated)\n");
      break;
    }
  }
  std::printf("\nOne log, two recovery families: Log* reads the logical "
              "fields and Δ-records;\nSQL* reads the PIDs and BW-records. "
              "Both ignore the rest (paper §5.1).\n");
  if (!saw_clr || !saw_abort) {
    std::fprintf(stderr, "the rollback's CLR or abort record is missing\n");
    return 1;
  }
  return 0;
}
