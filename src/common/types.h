// Core value types shared by every subsystem: log sequence numbers, page ids,
// transaction ids, table ids and record keys.
//
// LSNs are byte offsets into the (conceptually infinite) integrated log, as in
// SQL Server. Offset 0 is reserved as "invalid"; the first record is appended
// at offset kFirstLsn.
#pragma once

#include <cstdint>
#include <limits>

namespace deutero {

/// Log sequence number: byte offset of a record in the integrated log.
using Lsn = uint64_t;

/// LSN value meaning "no LSN" (before any record).
inline constexpr Lsn kInvalidLsn = 0;

/// Offset at which the first log record lives.
inline constexpr Lsn kFirstLsn = 1;

/// Page identifier within the data disk. Dense, starting at 0 (meta page).
using PageId = uint32_t;

/// PageId value meaning "no page".
inline constexpr PageId kInvalidPageId = std::numeric_limits<PageId>::max();

/// The meta (catalog/boot) page is always page 0.
inline constexpr PageId kMetaPageId = 0;

/// The page allocator's index extent cursor: internal B-tree pages are
/// handed out from [next, end) (storage/allocator.h). next == end means the
/// extent is used up, or none was reserved yet (the initial {0, 0}: page 0
/// is the meta page, never an index page). SMO / DDL log records and the
/// catalog carry it beside the allocator high-water mark.
struct IndexExtent {
  PageId next = 0;
  PageId end = 0;

  bool operator==(const IndexExtent&) const = default;
};

/// Transaction identifier assigned by the transactional component.
using TxnId = uint64_t;

/// TxnId value meaning "no transaction" (e.g. DC system transactions).
inline constexpr TxnId kInvalidTxnId = 0;

/// Table identifier. The paper's experiments use a single table; the engine
/// nevertheless carries the id in every logical record, as the paper requires
/// records to be identified by (table name, key).
using TableId = uint32_t;

inline constexpr TableId kInvalidTableId = 0;
inline constexpr TableId kDefaultTableId = 1;

/// Record key. The paper's table has integer keys with a clustered index.
using Key = uint64_t;

}  // namespace deutero
