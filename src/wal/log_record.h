// Log record model for the integrated common log (paper §5.1). One log
// serves both recovery families:
//
//  * Update records carry BOTH the logical identification (table, key) used
//    by logical recovery AND the page id (PID) used by physiological
//    recovery; logical recovery simply ignores the PID.
//  * BW-records (§3.3) carry the SQL-Server flushed-page batches.
//  * Δ-records (§4.1) carry (DirtySet, WrittenSet, FW-LSN, FirstDirty,
//    TC-LSN); the App. D variants add DirtyLSNs (perfect) or drop the
//    FW-LSN/FirstDirty fields (reduced).
//  * SMO records are DC system transactions with physical page images,
//    redone by DC recovery before logical redo so the B-tree is well-formed
//    (paper §2.1, §4).
//
// On-log framing (LSN = byte offset of the record):
//   [u32 payload_len][u8 type][payload...]
//
// Two record representations share one wire format:
//
//  * LogRecord owns its variable-length fields (std::string images). It is
//    the append-side type, and the read type for ReadRecordAt() — the undo
//    pass (recovery's, and runtime rollback, which runs the same pass)
//    interleaves backchain reads with CLR appends, so those reads must not
//    alias the (reallocatable) log buffer.
//  * LogRecordView borrows them (Slice fields aliasing the log buffer) and
//    reuses its vector scratch across decodes. It is what the sequential
//    scan iterator yields: recovery scans decode millions of records and
//    copy none of their payload bytes. A view is valid only until the next
//    Append/Crash/RestoreSnapshot on the owning LogManager (enforced by a
//    debug-mode generation check in the iterator).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace deutero {

enum class LogRecordType : uint8_t {
  kInvalid = 0,
  kUpdate = 1,           ///< TC logical+physiological data update.
  kInsert = 2,           ///< TC record insert.
  kClr = 3,              ///< Compensation record written during undo.
  kTxnBegin = 4,
  kTxnCommit = 5,
  kTxnAbort = 6,
  kBeginCheckpoint = 7,  ///< bCkpt (§3.2).
  kEndCheckpoint = 8,    ///< eCkpt; carries the matching bCkpt LSN.
  kBwRecord = 9,         ///< SQL-Server buffer-write record (§3.3).
  kDeltaRecord = 10,     ///< DC Δ-record (§4.1).
  kRsspAck = 11,         ///< DC acknowledgment of RSSP; records rsspLSN.
  kSmo = 12,             ///< DC structure modification (page split).
  kCreateTable = 13,     ///< DDL: new table (id, schema, root page image).
  kDelete = 14,          ///< TC record delete (carries the before-image).
  kSmoMerge = 15,        ///< DC structure modification (leaf merge/free).
  kMaxType = 16,
};

/// Returns a stable display name for a record type.
const char* LogRecordTypeName(LogRecordType t);

/// One physical page image inside an SMO record (owning form).
struct SmoPageImage {
  PageId pid = kInvalidPageId;
  std::string image;  ///< Full page image (page_size bytes).
};

/// One physical page image inside an SMO record (borrowed form; the slice
/// aliases the log buffer / payload being decoded).
struct SmoPageImageRef {
  PageId pid = kInvalidPageId;
  Slice image;
};

struct LogRecord;

/// Borrowed decode of a record payload. Scalar fields mirror LogRecord;
/// `before`/`after` and the SMO page images alias the decoded payload, and
/// the vectors are scratch that Reset() clears without releasing capacity —
/// a steady-state recovery scan performs zero heap allocations per data-op
/// record. See the file comment for the aliasing validity rule.
struct LogRecordView {
  LogRecordType type = LogRecordType::kInvalid;
  Lsn lsn = kInvalidLsn;  ///< Filled by the reader; never serialized.

  // --- transaction records (kUpdate/kInsert/kDelete/kClr/kTxnBegin/
  //     Commit/Abort) ---
  TxnId txn_id = kInvalidTxnId;
  Lsn prev_lsn = kInvalidLsn;
  TableId table_id = kInvalidTableId;
  Key key = 0;
  Slice before;  ///< Before-image (undo); empty for inserts.
  Slice after;   ///< After-image (redo); empty for deletes; CLR image.
  PageId pid = kInvalidPageId;
  Lsn undo_next_lsn = kInvalidLsn;
  int32_t clr_row_delta = 0;  ///< kClr: row-count effect (see LogRecord).

  // --- checkpoint records ---
  Lsn bckpt_lsn = kInvalidLsn;
  std::vector<TxnId> att_txn_ids;
  std::vector<Lsn> att_last_lsns;
  std::vector<PageId> ckpt_dpt_pids;
  std::vector<Lsn> ckpt_dpt_rlsns;

  // --- BW-record (§3.3) ---
  std::vector<PageId> written_set;
  Lsn fw_lsn = kInvalidLsn;

  // --- Δ-record extras (§4.1, App. D) ---
  std::vector<PageId> dirty_set;
  std::vector<Lsn> dirty_lsns;
  uint32_t first_dirty = 0;
  Lsn tc_lsn = kInvalidLsn;
  bool has_fw_fields = true;

  // --- SMO / DDL records ---
  // kSmoMerge reuses `pid` for the freed (victim) page id; its free-page
  // after-image rides in smo_pages alongside the survivor's and parent's.
  std::vector<SmoPageImageRef> smo_pages;
  PageId alloc_hwm = kInvalidPageId;
  IndexExtent index_extent;
  uint32_t ddl_value_size = 0;

  /// Reset scalars and empty the vectors, KEEPING their capacity (this is
  /// what makes iterator reuse allocation-free).
  void Reset();

  /// Decode a payload produced by LogRecord::EncodePayload() for `type`.
  /// Slice fields alias `payload`; vector scratch in `out` is reused.
  static Status DecodePayload(LogRecordType type, Slice payload,
                              LogRecordView* out);

  /// Copy every field into `out`, reusing its string/vector capacity. The
  /// undo backchain walk decodes each loser record into one hoisted
  /// LogRecord through this; for data-op records (empty vectors, bounded
  /// images) a warmed destination makes the copy allocation-free.
  void CopyTo(LogRecord* out) const;

  bool IsRedoableDataOp() const {
    return type == LogRecordType::kUpdate || type == LogRecordType::kInsert ||
           type == LogRecordType::kDelete || type == LogRecordType::kClr;
  }
};

/// Union-style record: `type` selects which fields are meaningful. Encoding
/// is per type; fields not used by a type are ignored by Encode().
struct LogRecord {
  LogRecordType type = LogRecordType::kInvalid;

  /// Filled in by the appender / reader; never serialized (it IS the offset).
  Lsn lsn = kInvalidLsn;

  // --- transaction records (kUpdate/kInsert/kDelete/kClr/kTxnBegin/
  //     Commit/Abort) ---
  TxnId txn_id = kInvalidTxnId;
  Lsn prev_lsn = kInvalidLsn;  ///< Same-transaction backchain.
  TableId table_id = kInvalidTableId;
  Key key = 0;
  std::string before;  ///< Before-image (undo); empty for inserts.
  std::string after;   ///< After-image (redo); empty for deletes; CLR image.
  PageId pid = kInvalidPageId;  ///< Physiological hint; logical redo ignores.
  Lsn undo_next_lsn = kInvalidLsn;  ///< CLR: next record to undo.
  /// kClr only: the compensation's row-count effect at the time it was
  /// performed (+1 for a delete-undo re-insert, -1 for an insert-undo
  /// delete, 0 for an update-undo). Recovery maintains the exact table row
  /// counter by summing record deltas over the redo scan — independent of
  /// which operations the redo tests skip as already durable — and a CLR's
  /// delta is not derivable from its image alone (an update-undo and a
  /// delete-undo both restore a non-empty image).
  int32_t clr_row_delta = 0;

  // --- checkpoint records ---
  Lsn bckpt_lsn = kInvalidLsn;  ///< kEndCheckpoint / kRsspAck payload.
  /// kBeginCheckpoint: the active transaction table at checkpoint time
  /// (txn id + LSN of its latest record). Without it, a transaction idle
  /// across the checkpoint would be invisible to analysis and escape undo.
  std::vector<TxnId> att_txn_ids;
  std::vector<Lsn> att_last_lsns;
  /// kBeginCheckpoint, ARIES checkpoint scheme (§3.1) only: the runtime DPT
  /// (dirty PID + its first-dirty LSN). Empty under penultimate (§3.2).
  std::vector<PageId> ckpt_dpt_pids;
  std::vector<Lsn> ckpt_dpt_rlsns;

  // --- BW-record (§3.3) ---
  std::vector<PageId> written_set;
  Lsn fw_lsn = kInvalidLsn;  ///< End of stable log at first captured write.

  // --- Δ-record extras (§4.1, App. D) ---
  std::vector<PageId> dirty_set;
  std::vector<Lsn> dirty_lsns;  ///< Per-entry LSNs (perfect DPT, App. D.1).
  uint32_t first_dirty = 0;  ///< DirtySet index of first dirty after FW-LSN.
  Lsn tc_lsn = kInvalidLsn;  ///< TC end-of-stable-log when Δ was written.
  bool has_fw_fields = true;  ///< False under reduced logging (App. D.2).

  // --- SMO / DDL records ---
  std::vector<SmoPageImage> smo_pages;
  PageId alloc_hwm = kInvalidPageId;  ///< Page allocator high-water mark.
  /// The allocator's index extent cursor at append time (PageAllocator::
  /// Stamp); recovery replays it with the high-water mark.
  IndexExtent index_extent;
  uint32_t ddl_value_size = 0;  ///< kCreateTable: the table's value size.

  /// Serialize the payload (excluding the [len][type] frame).
  std::string EncodePayload() const;

  /// Append the serialized payload to `dst`. The append-side hot path:
  /// LogManager::Append encodes straight into the log buffer through this,
  /// with no intermediate payload string.
  void EncodePayloadTo(std::string* dst) const;

  /// Cheap upper bound on EncodePayloadTo()'s output size, for reserving
  /// destination capacity before encoding.
  size_t PayloadSizeHint() const;

  /// Decode a payload previously produced by EncodePayload() for `type`.
  static Status DecodePayload(LogRecordType type, Slice payload,
                              LogRecord* out);

  /// True for record types that the TC redo pass treats as redoable data
  /// operations (kUpdate/kInsert/kDelete/kClr).
  bool IsRedoableDataOp() const {
    return type == LogRecordType::kUpdate || type == LogRecordType::kInsert ||
           type == LogRecordType::kDelete || type == LogRecordType::kClr;
  }
};

}  // namespace deutero
