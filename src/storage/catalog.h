// Table catalog, persisted in the meta page (page 0). Each table owns a
// B-tree whose root page id is FIXED at creation (root splits rewrite the
// root in place), so the catalog entry never changes on the hot path; it is
// rewritten only at checkpoints and after recovery.
//
// Meta page payload layout (after the standard page header):
//   [0]  u32 magic
//   [4]  u32 next_page_id      (allocator high-water mark)
//   [8]  u32 num_tables
//   [12] u64 rows_covered_lsn  (log position the num_rows counters cover:
//        recovery's scan-complete row accounting starts here, so counters
//        persisted at END of a recovery are not re-added by a second
//        recovery before the next checkpoint; fixed header slot — unlike
//        the free-list it is correctness-bearing and must never truncate)
//   [20] u32 index_next, [24] u32 index_end  (allocator index extent
//        cursor: internal pages come from [index_next, index_end); fixed
//        header slot, correctness-bearing like the high-water mark —
//        ReadFrom rejects index_next > index_end or index_end >
//        next_page_id, since such a cursor would hand out live pids)
//   [28] per table, 24 bytes:
//        u32 table_id, u32 root_pid, u32 height, u32 value_size,
//        u64 num_rows
//   then u32 num_free, u32 free_pid...  (allocator free-list, oldest first;
//        truncated to the page — dropped entries leak, never corrupt)
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "sim/sim_disk.h"

namespace deutero {

struct TableInfo {
  TableId id = kInvalidTableId;
  PageId root_pid = kInvalidPageId;
  uint32_t height = 1;
  uint32_t value_size = 0;
  uint64_t num_rows = 0;
};

class Catalog {
 public:
  /// Maximum tables an 8 KB meta page can hold with margin.
  static constexpr size_t kMaxTables = 64;

  /// Tables whose entries fit a meta page of `page_size` bytes beside the
  /// fixed header and the free-list count: at most kMaxTables. WriteTo
  /// requires the catalog to hold no more.
  static size_t MaxTables(uint32_t page_size);

  const TableInfo* Find(TableId id) const;
  TableInfo* Find(TableId id);

  /// Register a table; fails on duplicate id or overflow.
  Status Add(const TableInfo& info);

  const std::vector<TableInfo>& tables() const { return tables_; }
  std::vector<TableInfo>& tables() { return tables_; }

  PageId next_page_id() const { return next_page_id_; }
  void set_next_page_id(PageId pid) { next_page_id_ = pid; }

  /// Allocator index extent cursor (see the layout comment).
  const IndexExtent& index_extent() const { return index_extent_; }
  void set_index_extent(IndexExtent extent) { index_extent_ = extent; }

  /// Allocator free-list (pages released by leaf-merge SMOs), persisted so
  /// freed pages stay reusable across restarts.
  const std::vector<PageId>& free_list() const { return free_list_; }
  void set_free_list(std::vector<PageId> pids) {
    free_list_ = std::move(pids);
  }

  /// Log position the persisted num_rows counters cover (see the layout
  /// comment). kInvalidLsn in never-persisted catalogs.
  Lsn rows_covered_lsn() const { return rows_covered_lsn_; }
  void set_rows_covered_lsn(Lsn lsn) { rows_covered_lsn_ = lsn; }

  /// Serialize into / parse from the meta page of `disk` (no simulated I/O
  /// cost: the meta page is a boot block, read once at restart and written
  /// at checkpoints).
  void WriteTo(SimDisk* disk, uint32_t page_size) const;
  static Status ReadFrom(const SimDisk& disk, uint32_t page_size,
                         Catalog* out);
  /// Parse a meta page image of `page_size` bytes (ReadFrom's codec).
  static Status Decode(const uint8_t* image, uint32_t page_size,
                       Catalog* out);

  void Clear() {
    tables_.clear();
    free_list_.clear();
    next_page_id_ = 1;
    index_extent_ = IndexExtent();
    rows_covered_lsn_ = kInvalidLsn;
  }

 private:
  std::vector<TableInfo> tables_;
  std::vector<PageId> free_list_;
  PageId next_page_id_ = 1;
  IndexExtent index_extent_;
  Lsn rows_covered_lsn_ = kInvalidLsn;
};

}  // namespace deutero
