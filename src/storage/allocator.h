// Shared page allocator: one dense page-id space per device, used by every
// table's B-tree. Pages come from two places:
//
//  * Leaves take the free-list fed by leaf-merge SMOs first (only leaves are
//    ever freed), else grow the device at the high-water mark.
//  * Internal pages (level >= 1) made by splits come from the current INDEX
//    EXTENT: a run of max_batch_pages pids reserved at the high-water mark
//    for internal pages only. A new extent is reserved only when the current
//    one is used up, and an internal page never takes a free-list pid. So a
//    tree's index pages lie within one span of each other, as bulk loading
//    lays them out, and the index preload (paper App. A.1) and the undo
//    read-ahead read them in span I/Os (App. A's reads of up to 8 contiguous
//    pages) instead of one I/O per page.
//
// The high-water mark, the extent cursor and the free-list are persisted in
// the catalog at checkpoints and re-derived during recovery from SMO /
// create-table / merge records: each carries the mark and the cursor as of
// its append (Stamp), a merge record names the page it freed, and any page
// riding an SMO image is by definition in use (Replay).
#pragma once

#include <algorithm>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "sim/sim_disk.h"

namespace deutero {

class PageAllocator {
 public:
  explicit PageAllocator(SimDisk* disk, PageId next = 1)
      : disk_(disk), next_(next) {}

  /// Allocate one leaf page: reuse the most recently freed page if any
  /// (LIFO — keeps the hot end of the list cache-resident), else grow the
  /// device.
  PageId Allocate() {
    if (!free_list_.empty()) {
      const PageId pid = free_list_.back();
      free_list_.pop_back();
      free_set_.erase(pid);
      return pid;
    }
    const PageId pid = next_++;
    disk_->EnsurePages(next_);
    return pid;
  }

  /// Allocate one internal page from the current index extent, reserving
  /// the next extent at the high-water mark when this one is used up.
  PageId AllocateIndex() {
    if (extent_.next == extent_.end) {
      const PageId len =
          std::max<PageId>(1, disk_->io_options().max_batch_pages);
      extent_ = {next_, next_ + len};
      next_ = extent_.end;
      disk_->EnsurePages(next_);
    }
    return extent_.next++;
  }

  /// Return a page to the free-list (leaf merge SMO). Idempotent: replaying
  /// a merge record whose free is already reflected (persisted catalog +
  /// in-window record) must not double-free.
  void Free(PageId pid) {
    if (pid == kInvalidPageId || pid >= next_) return;
    if (!free_set_.insert(pid).second) return;  // already free
    free_list_.push_back(pid);
  }

  /// Stamp the allocator state an SMO / DDL record carries: the high-water
  /// mark and the index extent cursor as of its append.
  template <typename RecordT>
  void Stamp(RecordT* rec) const {
    rec->alloc_hwm = next_;
    rec->index_extent = extent_;
  }

  /// Recovery replay of one SMO / DDL record's allocator state, whether or
  /// not its page images are installed. The mark and the cursor only move
  /// forward: a record stamped before the persisted catalog (or before an
  /// already-replayed record) leaves them as they are, so every method
  /// reaches the same state however many of a window's records it replays.
  /// The cursor is monotone in (end, next): a later extent ends later, and
  /// within one extent next only grows. Every page riding an image is
  /// removed from the free-list (a split may re-allocate a merged-away
  /// leaf). The membership test is O(1); the ordered-list erase is linear
  /// but runs only on an actual re-allocation, never on the per-image no-op
  /// case replay hammers.
  template <typename RecordT>
  void Replay(const RecordT& rec) {
    if (rec.alloc_hwm != kInvalidPageId && rec.alloc_hwm > next_) {
      next_ = rec.alloc_hwm;
      disk_->EnsurePages(next_);
    }
    const IndexExtent& e = rec.index_extent;
    if (std::tie(e.end, e.next) > std::tie(extent_.end, extent_.next)) {
      extent_ = e;
    }
    for (const auto& img : rec.smo_pages) {
      if (free_set_.erase(img.pid) == 0) continue;
      free_list_.erase(
          std::find(free_list_.begin(), free_list_.end(), img.pid));
    }
  }

  PageId next_page_id() const { return next_; }
  const IndexExtent& index_extent() const { return extent_; }
  const std::vector<PageId>& free_list() const { return free_list_; }
  bool IsFree(PageId pid) const { return free_set_.count(pid) != 0; }

  void Reset(PageId next) { Reset(next, {}, {}); }
  void Reset(PageId next, std::vector<PageId> free_list, IndexExtent extent) {
    next_ = next;
    extent_ = extent;
    free_list_ = std::move(free_list);
    free_set_ = std::unordered_set<PageId>(free_list_.begin(),
                                           free_list_.end());
    disk_->EnsurePages(next_);
  }

 private:
  SimDisk* disk_;
  PageId next_;
  IndexExtent extent_;
  /// Freed pages in free order; Allocate pops from the back. Small in
  /// steady state (merges and splits roughly balance under churn); the
  /// set mirrors it for O(1) membership (Free/Replay/IsFree run per
  /// replayed SMO image on the redo paths the benches time).
  std::vector<PageId> free_list_;
  std::unordered_set<PageId> free_set_;
};

}  // namespace deutero
