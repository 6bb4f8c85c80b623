#include "wal/log_record.h"

#include "common/coding.h"

namespace deutero {

const char* LogRecordTypeName(LogRecordType t) {
  switch (t) {
    case LogRecordType::kInvalid:
      return "Invalid";
    case LogRecordType::kUpdate:
      return "Update";
    case LogRecordType::kInsert:
      return "Insert";
    case LogRecordType::kClr:
      return "Clr";
    case LogRecordType::kTxnBegin:
      return "TxnBegin";
    case LogRecordType::kTxnCommit:
      return "TxnCommit";
    case LogRecordType::kTxnAbort:
      return "TxnAbort";
    case LogRecordType::kBeginCheckpoint:
      return "BeginCheckpoint";
    case LogRecordType::kEndCheckpoint:
      return "EndCheckpoint";
    case LogRecordType::kBwRecord:
      return "BwRecord";
    case LogRecordType::kDeltaRecord:
      return "DeltaRecord";
    case LogRecordType::kRsspAck:
      return "RsspAck";
    case LogRecordType::kSmo:
      return "Smo";
    case LogRecordType::kCreateTable:
      return "CreateTable";
    case LogRecordType::kDelete:
      return "Delete";
    case LogRecordType::kSmoMerge:
      return "SmoMerge";
    case LogRecordType::kMaxType:
      break;
  }
  return "Unknown";
}

namespace {

constexpr size_t kMaxVarint32 = 5;
constexpr size_t kMaxVarint64 = 10;

void EncodePidVector(std::string* dst, const std::vector<PageId>& pids) {
  PutVarint32(dst, static_cast<uint32_t>(pids.size()));
  for (PageId pid : pids) PutFixed32(dst, pid);
}

bool DecodePidVector(Slice* in, std::vector<PageId>* pids) {
  uint32_t n = 0;
  if (!GetVarint32(in, &n)) return false;
  pids->clear();
  pids->reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    uint32_t pid = 0;
    if (!GetFixed32(in, &pid)) return false;
    pids->push_back(pid);
  }
  return true;
}

/// The allocator state every SMO / DDL record carries: the high-water mark,
/// then the index extent cursor (next, end).
constexpr size_t kAllocStateSize = 4 + 4 + 4;

void PutAllocState(std::string* dst, PageId hwm, const IndexExtent& extent) {
  PutFixed32(dst, hwm);
  PutFixed32(dst, extent.next);
  PutFixed32(dst, extent.end);
}

bool GetAllocState(Slice* in, PageId* hwm, IndexExtent* extent) {
  return GetFixed32(in, hwm) && GetFixed32(in, &extent->next) &&
         GetFixed32(in, &extent->end);
}

}  // namespace

size_t LogRecord::PayloadSizeHint() const {
  switch (type) {
    case LogRecordType::kUpdate:
    case LogRecordType::kInsert:
    case LogRecordType::kDelete:
      return kMaxVarint64 + kMaxVarint32 + 8 + 8 + 4 +
             (kMaxVarint32 + before.size()) + (kMaxVarint32 + after.size());
    case LogRecordType::kClr:
      return kMaxVarint64 + kMaxVarint32 + 8 + 8 + 4 + 1 +
             (kMaxVarint32 + after.size());
    case LogRecordType::kTxnBegin:
    case LogRecordType::kTxnCommit:
    case LogRecordType::kTxnAbort:
      return kMaxVarint64 + 8;
    case LogRecordType::kBeginCheckpoint:
      return kMaxVarint32 + att_txn_ids.size() * (kMaxVarint64 + 8) +
             kMaxVarint32 + ckpt_dpt_pids.size() * (4 + 8);
    case LogRecordType::kEndCheckpoint:
    case LogRecordType::kRsspAck:
      return 8;
    case LogRecordType::kBwRecord:
      return 8 + kMaxVarint32 + written_set.size() * 4;
    case LogRecordType::kDeltaRecord:
      return 1 + 8 + 8 + kMaxVarint32 +
             (kMaxVarint32 + dirty_set.size() * 4) + dirty_lsns.size() * 8 +
             (kMaxVarint32 + written_set.size() * 4);
    case LogRecordType::kSmo: {
      size_t n = kAllocStateSize + kMaxVarint32;
      for (const SmoPageImage& p : smo_pages) {
        n += 4 + kMaxVarint32 + p.image.size();
      }
      return n;
    }
    case LogRecordType::kSmoMerge: {
      size_t n = 4 + kAllocStateSize + kMaxVarint32;
      for (const SmoPageImage& p : smo_pages) {
        n += 4 + kMaxVarint32 + p.image.size();
      }
      return n;
    }
    case LogRecordType::kCreateTable: {
      size_t n = kMaxVarint32 + 4 + 4 + kAllocStateSize + kMaxVarint32;
      for (const SmoPageImage& p : smo_pages) {
        n += 4 + kMaxVarint32 + p.image.size();
      }
      return n;
    }
    case LogRecordType::kInvalid:
    case LogRecordType::kMaxType:
      break;
  }
  return 0;
}

void LogRecord::EncodePayloadTo(std::string* dst) const {
  std::string& out = *dst;
  switch (type) {
    case LogRecordType::kUpdate:
    case LogRecordType::kInsert:
    case LogRecordType::kDelete:
      PutVarint64(&out, txn_id);
      PutVarint32(&out, table_id);
      PutFixed64(&out, key);
      PutFixed64(&out, prev_lsn);
      PutFixed32(&out, pid);
      PutLengthPrefixed(&out, before);
      PutLengthPrefixed(&out, after);
      break;
    case LogRecordType::kClr:
      PutVarint64(&out, txn_id);
      PutVarint32(&out, table_id);
      PutFixed64(&out, key);
      PutFixed64(&out, undo_next_lsn);
      PutFixed32(&out, pid);
      out.push_back(static_cast<char>(static_cast<int8_t>(clr_row_delta)));
      PutLengthPrefixed(&out, after);
      break;
    case LogRecordType::kTxnBegin:
    case LogRecordType::kTxnCommit:
    case LogRecordType::kTxnAbort:
      PutVarint64(&out, txn_id);
      PutFixed64(&out, prev_lsn);
      break;
    case LogRecordType::kBeginCheckpoint:
      PutVarint32(&out, static_cast<uint32_t>(att_txn_ids.size()));
      for (size_t i = 0; i < att_txn_ids.size(); i++) {
        PutVarint64(&out, att_txn_ids[i]);
        PutFixed64(&out, att_last_lsns[i]);
      }
      PutVarint32(&out, static_cast<uint32_t>(ckpt_dpt_pids.size()));
      for (size_t i = 0; i < ckpt_dpt_pids.size(); i++) {
        PutFixed32(&out, ckpt_dpt_pids[i]);
        PutFixed64(&out, ckpt_dpt_rlsns[i]);
      }
      break;
    case LogRecordType::kEndCheckpoint:
    case LogRecordType::kRsspAck:
      PutFixed64(&out, bckpt_lsn);
      break;
    case LogRecordType::kBwRecord:
      PutFixed64(&out, fw_lsn);
      EncodePidVector(&out, written_set);
      break;
    case LogRecordType::kDeltaRecord: {
      uint8_t flags = 0;
      if (has_fw_fields) flags |= 0x1;
      if (!dirty_lsns.empty()) flags |= 0x2;
      out.push_back(static_cast<char>(flags));
      PutFixed64(&out, tc_lsn);
      if (has_fw_fields) {
        PutFixed64(&out, fw_lsn);
        PutVarint32(&out, first_dirty);
      }
      EncodePidVector(&out, dirty_set);
      if (!dirty_lsns.empty()) {
        for (Lsn l : dirty_lsns) PutFixed64(&out, l);
      }
      EncodePidVector(&out, written_set);
      break;
    }
    case LogRecordType::kSmo:
      PutAllocState(&out, alloc_hwm, index_extent);
      PutVarint32(&out, static_cast<uint32_t>(smo_pages.size()));
      for (const SmoPageImage& p : smo_pages) {
        PutFixed32(&out, p.pid);
        PutLengthPrefixed(&out, p.image);
      }
      break;
    case LogRecordType::kSmoMerge:
      PutFixed32(&out, pid);  // the freed (victim) page id
      PutAllocState(&out, alloc_hwm, index_extent);
      PutVarint32(&out, static_cast<uint32_t>(smo_pages.size()));
      for (const SmoPageImage& p : smo_pages) {
        PutFixed32(&out, p.pid);
        PutLengthPrefixed(&out, p.image);
      }
      break;
    case LogRecordType::kCreateTable:
      PutVarint32(&out, table_id);
      PutFixed32(&out, pid);  // the new table's root page id
      PutFixed32(&out, ddl_value_size);
      PutAllocState(&out, alloc_hwm, index_extent);
      PutVarint32(&out, static_cast<uint32_t>(smo_pages.size()));
      for (const SmoPageImage& p : smo_pages) {
        PutFixed32(&out, p.pid);
        PutLengthPrefixed(&out, p.image);
      }
      break;
    case LogRecordType::kInvalid:
    case LogRecordType::kMaxType:
      break;
  }
}

std::string LogRecord::EncodePayload() const {
  std::string out;
  out.reserve(PayloadSizeHint());
  EncodePayloadTo(&out);
  return out;
}

void LogRecordView::Reset() {
  type = LogRecordType::kInvalid;
  lsn = kInvalidLsn;
  txn_id = kInvalidTxnId;
  prev_lsn = kInvalidLsn;
  table_id = kInvalidTableId;
  key = 0;
  before = Slice();
  after = Slice();
  pid = kInvalidPageId;
  undo_next_lsn = kInvalidLsn;
  clr_row_delta = 0;
  bckpt_lsn = kInvalidLsn;
  att_txn_ids.clear();
  att_last_lsns.clear();
  ckpt_dpt_pids.clear();
  ckpt_dpt_rlsns.clear();
  written_set.clear();
  fw_lsn = kInvalidLsn;
  dirty_set.clear();
  dirty_lsns.clear();
  first_dirty = 0;
  tc_lsn = kInvalidLsn;
  has_fw_fields = true;
  smo_pages.clear();
  alloc_hwm = kInvalidPageId;
  index_extent = IndexExtent();
  ddl_value_size = 0;
}

Status LogRecordView::DecodePayload(LogRecordType type, Slice in,
                                    LogRecordView* out) {
  out->Reset();
  out->type = type;
  bool ok = true;
  switch (type) {
    case LogRecordType::kUpdate:
    case LogRecordType::kInsert:
    case LogRecordType::kDelete:
      ok = GetVarint64(&in, &out->txn_id) &&
           GetVarint32(&in, &out->table_id) && GetFixed64(&in, &out->key) &&
           GetFixed64(&in, &out->prev_lsn) && GetFixed32(&in, &out->pid) &&
           GetLengthPrefixed(&in, &out->before) &&
           GetLengthPrefixed(&in, &out->after);
      break;
    case LogRecordType::kClr:
      ok = GetVarint64(&in, &out->txn_id) &&
           GetVarint32(&in, &out->table_id) && GetFixed64(&in, &out->key) &&
           GetFixed64(&in, &out->undo_next_lsn) &&
           GetFixed32(&in, &out->pid);
      if (ok && !in.empty()) {
        out->clr_row_delta = static_cast<int8_t>(in[0]);
        in.RemovePrefix(1);
        ok = GetLengthPrefixed(&in, &out->after);
      } else {
        ok = false;
      }
      break;
    case LogRecordType::kTxnBegin:
    case LogRecordType::kTxnCommit:
    case LogRecordType::kTxnAbort:
      ok = GetVarint64(&in, &out->txn_id) && GetFixed64(&in, &out->prev_lsn);
      break;
    case LogRecordType::kBeginCheckpoint: {
      uint32_t natt = 0;
      ok = GetVarint32(&in, &natt);
      if (ok) {
        out->att_txn_ids.resize(natt);
        out->att_last_lsns.resize(natt);
        for (uint32_t i = 0; i < natt && ok; i++) {
          ok = GetVarint64(&in, &out->att_txn_ids[i]) &&
               GetFixed64(&in, &out->att_last_lsns[i]);
        }
      }
      uint32_t ndpt = 0;
      if (ok) ok = GetVarint32(&in, &ndpt);
      if (ok) {
        out->ckpt_dpt_pids.resize(ndpt);
        out->ckpt_dpt_rlsns.resize(ndpt);
        for (uint32_t i = 0; i < ndpt && ok; i++) {
          ok = GetFixed32(&in, &out->ckpt_dpt_pids[i]) &&
               GetFixed64(&in, &out->ckpt_dpt_rlsns[i]);
        }
      }
      break;
    }
    case LogRecordType::kEndCheckpoint:
    case LogRecordType::kRsspAck:
      ok = GetFixed64(&in, &out->bckpt_lsn);
      break;
    case LogRecordType::kBwRecord:
      ok = GetFixed64(&in, &out->fw_lsn) &&
           DecodePidVector(&in, &out->written_set);
      break;
    case LogRecordType::kDeltaRecord: {
      if (in.empty()) {
        ok = false;
        break;
      }
      const uint8_t flags = static_cast<uint8_t>(in[0]);
      in.RemovePrefix(1);
      out->has_fw_fields = (flags & 0x1) != 0;
      const bool has_lsns = (flags & 0x2) != 0;
      ok = GetFixed64(&in, &out->tc_lsn);
      if (ok && out->has_fw_fields) {
        ok = GetFixed64(&in, &out->fw_lsn) &&
             GetVarint32(&in, &out->first_dirty);
      }
      if (ok) ok = DecodePidVector(&in, &out->dirty_set);
      if (ok && has_lsns) {
        out->dirty_lsns.resize(out->dirty_set.size());
        for (Lsn& l : out->dirty_lsns) {
          if (!GetFixed64(&in, &l)) {
            ok = false;
            break;
          }
        }
      }
      if (ok) ok = DecodePidVector(&in, &out->written_set);
      break;
    }
    case LogRecordType::kSmo:
    case LogRecordType::kSmoMerge: {
      if (type == LogRecordType::kSmoMerge) {
        ok = GetFixed32(&in, &out->pid);  // the freed (victim) page id
      }
      uint32_t n = 0;
      ok = ok && GetAllocState(&in, &out->alloc_hwm, &out->index_extent) &&
           GetVarint32(&in, &n);
      if (ok) {
        out->smo_pages.resize(n);
        for (SmoPageImageRef& p : out->smo_pages) {
          if (!GetFixed32(&in, &p.pid) || !GetLengthPrefixed(&in, &p.image)) {
            ok = false;
            break;
          }
        }
      }
      break;
    }
    case LogRecordType::kCreateTable: {
      uint32_t n = 0;
      ok = GetVarint32(&in, &out->table_id) && GetFixed32(&in, &out->pid) &&
           GetFixed32(&in, &out->ddl_value_size) &&
           GetAllocState(&in, &out->alloc_hwm, &out->index_extent) &&
           GetVarint32(&in, &n);
      if (ok) {
        out->smo_pages.resize(n);
        for (SmoPageImageRef& p : out->smo_pages) {
          if (!GetFixed32(&in, &p.pid) || !GetLengthPrefixed(&in, &p.image)) {
            ok = false;
            break;
          }
        }
      }
      break;
    }
    case LogRecordType::kInvalid:
    case LogRecordType::kMaxType:
      ok = false;
      break;
  }
  if (!ok) return Status::Corruption("bad log record payload");
  if (!in.empty()) return Status::Corruption("trailing bytes in log record");
  return Status::OK();
}

void LogRecordView::CopyTo(LogRecord* out) const {
  // Assigning in place: string/vector assignment reuses the destination's
  // capacity, so decoding a stream of data-op records into one scratch
  // LogRecord stops allocating once the largest image has been seen. Every
  // scalar is assigned too — a reused destination must not leak state from
  // the previous record.
  out->type = type;
  out->lsn = lsn;
  out->txn_id = txn_id;
  out->prev_lsn = prev_lsn;
  out->table_id = table_id;
  out->key = key;
  out->before.assign(before.data(), before.size());
  out->after.assign(after.data(), after.size());
  out->pid = pid;
  out->undo_next_lsn = undo_next_lsn;
  out->clr_row_delta = clr_row_delta;
  out->bckpt_lsn = bckpt_lsn;
  out->att_txn_ids = att_txn_ids;
  out->att_last_lsns = att_last_lsns;
  out->ckpt_dpt_pids = ckpt_dpt_pids;
  out->ckpt_dpt_rlsns = ckpt_dpt_rlsns;
  out->written_set = written_set;
  out->fw_lsn = fw_lsn;
  out->dirty_set = dirty_set;
  out->dirty_lsns = dirty_lsns;
  out->first_dirty = first_dirty;
  out->tc_lsn = tc_lsn;
  out->has_fw_fields = has_fw_fields;
  out->smo_pages.resize(smo_pages.size());
  for (size_t i = 0; i < smo_pages.size(); ++i) {
    out->smo_pages[i].pid = smo_pages[i].pid;
    out->smo_pages[i].image.assign(smo_pages[i].image.data(),
                                   smo_pages[i].image.size());
  }
  out->alloc_hwm = alloc_hwm;
  out->index_extent = index_extent;
  out->ddl_value_size = ddl_value_size;
}

Status LogRecord::DecodePayload(LogRecordType type, Slice in, LogRecord* out) {
  // One decode implementation serves both representations: decode borrowed,
  // then copy out. This path is the warm one for the undo backchain walk
  // (LogManager::ReadRecordAt), so the copy reuses `out`'s capacity — a
  // hoisted destination record makes repeated reads allocation-free; see
  // LogRecordView::CopyTo.
  LogRecordView view;
  DEUTERO_RETURN_NOT_OK(LogRecordView::DecodePayload(type, in, &view));
  view.CopyTo(out);
  return Status::OK();
}

}  // namespace deutero
