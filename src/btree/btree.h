// Clustered B+tree over the buffer pool — one per table, the DC's data
// placement structure. Logical operations are identified by (table, key);
// the tree maps them to pages, which is exactly the knowledge the TC's
// logical log lacks and logical redo must rediscover by re-traversal
// (paper §1.3).
//
// Structure modification operations (page splits, and their delete-side
// inverse: leaf merges) run as DC system transactions: each appends ONE
// kSmo / kSmoMerge log record carrying the full after-images of every page
// it touched. The record is atomic — either it is on the stable log and DC
// recovery reinstalls the images (idempotently, via the per-page pLSN
// test), or it is not and the WAL rule guarantees none of the touched pages
// reached the disk. DC recovery replays SMOs BEFORE the TC redo pass so the
// tree is well-formed when logical redo traverses it (paper §2.1, §4).
//
// A merge additionally FREES a page: the record names the victim pid, its
// free-page after-image rides along, and replay returns the page to the
// allocator free-list (idempotently). At run time the victim's frame is
// discarded from the cache without a flush — its content is dead, and every
// change to it is logged.
//
// A split's new internal page comes from the allocator's index extent, a
// leaf's from the free-list or the high-water mark (storage/allocator.h):
// index pages stay within a span of each other, as bulk loading lays them
// out, so the index preload keeps reading them in span I/Os.
//
// Each tree's root lives at a page id fixed at creation: a root split
// rewrites the root page in place and pushes its old content into two
// freshly allocated children, so the catalog never changes on the hot path.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/clock.h"
#include "sim/sim_disk.h"
#include "storage/allocator.h"
#include "storage/buffer_pool.h"
#include "wal/log_manager.h"

namespace deutero {

class DirtyPageMonitor;  // dc/dirty_monitor.h — only btree.cc needs the def

/// Root page id of the default table, allocated first at database creation
/// (page 0 is the catalog page).
inline constexpr PageId kRootPageId = 1;

/// Default install filter of RedoPhysicalImages: every image is a candidate.
struct InstallEveryImage {
  bool operator()(PageId /*pid*/) const { return true; }
};

/// Install the full page images of an SMO or create-table record whose
/// on-device pLSN predates the record (idempotent physical redo), after
/// replaying its allocator state (PageAllocator::Replay: high-water mark,
/// index extent cursor, and every image's page marked in use — a split may
/// re-allocate a merged-away page; kSmoMerge replay re-frees its victim
/// afterwards, in DataComponent::RedoSmoMerge). Tree-agnostic: images name
/// their pages. `install(pid)` returning false keeps that page's image
/// from being materialized — a merge record's freed victim (the caller
/// discards its frame instead, mirroring the run-time discard), or a page
/// the DC pass's DPT proves durable. The allocator replay covers every
/// page either way. Templated over the record representation (owning
/// LogRecord or zero-copy LogRecordView).
template <typename RecordT, typename InstallFilter = InstallEveryImage>
Status RedoPhysicalImages(BufferPool* pool, SimDisk* disk,
                          PageAllocator* allocator, uint32_t page_size,
                          const RecordT& rec, InstallFilter install = {}) {
  allocator->Replay(rec);
  for (const auto& img : rec.smo_pages) {
    if (img.image.size() != page_size) {
      return Status::Corruption("physical image size mismatch");
    }
    if (!install(img.pid)) continue;
    if (img.pid >= disk->num_pages()) disk->EnsurePages(img.pid + 1);
    PageHandle h;
    DEUTERO_RETURN_NOT_OK(pool->Get(img.pid, PageClass::kIndex, &h));
    PageView page = h.view();
    if (page.plsn() >= rec.lsn) continue;  // effects already durable
    std::memcpy(page.data(), img.image.data(), page_size);
    h.MarkDirty(rec.lsn);
  }
  return Status::OK();
}

/// The one leaf write: apply one logged data operation (kUpdate, kInsert,
/// kDelete or kClr) from its after-image to a PINNED leaf page, and add its
/// row-count change to *rows_delta. It performs no buffer-pool access and
/// does not stamp the pLSN: the caller owns the pin and the MarkDirty.
/// BTree::Apply wraps it for forward writes and undo; redo, page repair
/// and standby replay call it directly on the leaf they pinned and stamp
/// the page themselves.
///
/// An update or delete of a missing key is NotFound, an insert of a present
/// key is InvalidArgument, and an insert into a full leaf is Corruption. A
/// CLR with an empty image compensates an insert and deletes the row; any
/// other CLR restores an image as an upsert, because a CLR that compensates
/// a delete must re-insert and the record does not say which it compensates
/// (the page state decides). InvalidArgument for any other type, and for an
/// image that is not value_size bytes.
Status LeafApplyRecord(PageView page, uint32_t value_size, LogRecordType type,
                       Key key, Slice after, int64_t* rows_delta);

class BTree;

/// Forward cursor over a key range of one tree, yielded by BTree::NewScan.
/// The cursor pins the leaf it is positioned on (one pin at a time) and
/// walks the leaf sibling chain; value() aliases the pinned page and is
/// valid until the next Next()/Close()/destruction. Reads the current tree
/// state (lock-free snapshot, like point reads): do not interleave writes
/// to the same tree with an open cursor.
class ScanCursor {
 public:
  ScanCursor() = default;
  ScanCursor(ScanCursor&& other) noexcept { *this = std::move(other); }
  ScanCursor& operator=(ScanCursor&& other) noexcept {
    if (this != &other) {
      Close();
      pool_ = other.pool_;
      value_size_ = other.value_size_;
      hi_ = other.hi_;
      h_ = std::move(other.h_);
      idx_ = other.idx_;
      valid_ = other.valid_;
      // The source must read as exhausted, not as positioned on a row it
      // no longer pins.
      other.valid_ = false;
      other.pool_ = nullptr;
    }
    return *this;
  }

  /// True while positioned on a row with key() <= the scan's `hi` bound.
  bool Valid() const { return valid_; }
  Key key() const;
  /// Borrowed payload bytes of the current row (value_size bytes).
  Slice value() const;
  /// Advance to the next row in key order, crossing leaf boundaries.
  Status Next();
  /// Drop the leaf pin early (destruction does this too).
  void Close();

 private:
  friend class BTree;
  BufferPool* pool_ = nullptr;
  uint32_t value_size_ = 0;
  Key hi_ = 0;
  PageHandle h_;
  uint32_t idx_ = 0;
  bool valid_ = false;

  /// Skip empty leaves / past-the-end slots; invalidate past `hi_`.
  Status Normalize();
};

class BTree {
 public:
  struct Stats {
    /// Atomic: Find() runs from concurrent reader threads (the engine's
    /// shared forward gate); every other counter is written only under
    /// exclusive contexts. Relaxed — it is a counter, not a fence.
    std::atomic<uint64_t> traversals{0};
    uint64_t splits = 0;
    uint64_t root_splits = 0;
    uint64_t merges = 0;
    uint64_t root_collapses = 0;
  };

  /// `monitor` (optional) is held in a DirtyPageMonitor::AtomicScope across
  /// each system transaction so a capacity-triggered Δ-record cannot
  /// interleave between the SMO's LSN reservation and its append.
  /// `merge_fill` is the delete-side SMO trigger: a delete that leaves a
  /// leaf below this fraction of its capacity (or empty) merges it
  /// (MaybeMergeLeaf). The DC passes a fixed 0.25; 0 disables merging.
  /// Values are clamped to [0, 0.45] so a merge never re-triggers a split.
  BTree(SimClock* clock, SimDisk* disk, BufferPool* pool,
        PageAllocator* allocator, LogManager* log, PageId root_pid,
        uint32_t page_size, uint32_t value_size, double leaf_fill,
        double cpu_per_level_us, DirtyPageMonitor* monitor = nullptr,
        double merge_fill = 0.0);

  /// Initialize an empty tree: format the root page (a leaf) directly on
  /// the device. Durability of table existence is the catalog's / DDL
  /// record's concern, not the tree's.
  Status CreateEmpty();

  /// Build a tree of `num_rows` dense keys [0, num_rows) directly on the
  /// device (no logging, no cache, no simulated I/O cost — database
  /// creation precedes the measured epoch).
  Status BulkLoad(uint64_t num_rows,
                  const std::function<void(Key, uint8_t*)>& value_gen);

  // ---- normal operation / logical redo ----

  /// Traverse the index to the leaf that owns `key` (the logical->physical
  /// mapping step of every logical operation). Charges traversal CPU and
  /// any index-page I/O; does not touch the leaf.
  Status Find(Key key, PageId* leaf_pid);

  /// Find() that also reports the leaf's key range: every key in
  /// [*lo, *hi) maps to the same leaf (*hi is meaningful only when
  /// *bounded; the rightmost leaf is unbounded above). Logical redo
  /// memoizes the result to skip re-traversals for consecutive records
  /// whose keys land on the same leaf. The range is valid until the next
  /// structure modification of this tree.
  Status FindRanged(Key key, PageId* leaf_pid, Key* lo, Key* hi,
                    bool* bounded);

  /// Point lookup.
  Status Read(Key key, std::string* value);

  /// Ensure the leaf for `key` has room for one more entry, performing
  /// logged preventive splits along the path. Returns the leaf pid.
  Status PrepareInsert(Key key, PageId* leaf_pid);

  /// Whether leaf `pid` holds `key` (pre-logging duplicate check: a record
  /// must never reach the log if its apply would be refused).
  Status LeafContains(PageId pid, Key key, bool* contains);

  /// Apply one logged data operation to leaf `pid` through LeafApplyRecord
  /// (same types and errors), stamp pLSN = lsn and fold the row-count
  /// change into the counter: the write of normal operation and undo. When
  /// `underfull` is non-null it reports whether the op removed a row and
  /// left the leaf below the merge threshold (or empty) — the caller's cue
  /// to run MaybeMergeLeaf. Only a delete, or a CLR that deletes, can
  /// start a merge.
  Status Apply(PageId pid, LogRecordType type, Key key, Slice after, Lsn lsn,
               bool* underfull = nullptr);

  /// Delete-side SMO (normal operation and undo only — never redo): if the
  /// leaf owning `key` is below the merge threshold (or empty), coalesce it
  /// with a sibling under the same parent, unlink the victim from the
  /// parent and the leaf chain, return its page to the allocator free-list,
  /// and commit the whole modification as one kSmoMerge record carrying the
  /// after-images (same discipline as splits). When the root is left with a
  /// single leaf child, the tree is collapsed back to a root leaf (the
  /// inverse of SplitRoot; the root pid never changes). Merging across
  /// parents is not attempted: such a leaf stays until churn re-fills it or
  /// empties a same-parent sibling. No-op when merging is disabled.
  Status MaybeMergeLeaf(Key key, bool* merged = nullptr);

  /// Open a cursor over keys in [lo, hi] (inclusive bounds). The cursor is
  /// invalid immediately when the range is empty.
  Status NewScan(Key lo, Key hi, ScanCursor* out);

  // ---- recovery ----

  /// The level walk of PreloadIndex and PrefetchPaths: a batched descent
  /// from the root in which each level's children go to the pool as ONE
  /// Prefetch, so they ride span I/Os, and are read before the level below
  /// them is issued. Those two calls run it to completion and wait for
  /// each level; Step runs it without ever waiting, so a pass can do its
  /// own work while the reads are in flight (Log2's DC pass steps its
  /// index preload under the log scan, recovery/analysis.h).
  ///
  /// A page that is not an internal page of the level the descent expects
  /// is read but not descended. On the stable tree a flushed parent can
  /// name a child whose image never reached the device, and that child
  /// reads as a zeroed kFree page; a root can be a leaf.
  class Descent {
   public:
    /// Advance without waiting. Once every page of the current level has
    /// arrived, read the level and send the next one out as one Prefetch;
    /// while any is still in flight, return at once. A cursor skips the
    /// pages already seen to have arrived, so a call is amortized O(1).
    /// It never demand-reads a page, charges no stall, and allocates
    /// nothing once its level buffers are sized. A page the pool dropped
    /// (no free frame, or a failed read) is skipped, for a waiting
    /// descent to read later.
    Status Step();
    /// True once the descent has nothing left to read.
    bool done() const { return frontier_.empty(); }

   private:
    friend class BTree;
    /// One page of a level and the run [lo, hi) of `keys_` it covers.
    struct Reach {
      PageId pid = kInvalidPageId;
      size_t lo = 0;
      size_t hi = 0;
    };
    /// Restart at `tree`'s root, keeping the level buffers.
    void Start(BTree* tree, std::span<const Key> keys, bool every_child);
    /// Read the current level (waiting for each page when `wait`, else
    /// only the pages that have arrived), send its children out as one
    /// Prefetch, and make them the current level unless they are leaves.
    Status ReadLevel(bool wait);

    BTree* tree_ = nullptr;
    std::span<const Key> keys_;
    /// PreloadIndex's walk (every child, stopping above the leaves) rather
    /// than PrefetchPaths' (the children covering keys_, leaves included).
    bool every_child_ = true;
    /// The level the current pages should have; 0 for the root, whose
    /// level the walk learns by reading it.
    uint8_t level_ = 0;
    size_t arrived_ = 0;  ///< The cursor: frontier_[0, arrived_) arrived.
    std::vector<Reach> frontier_;
    std::vector<Reach> children_;
    std::vector<PageId> pids_;
  };

  /// Load every internal index page of this tree into the cache — logical
  /// recovery's index preload (paper App. A.1). It is the every-path case
  /// of PrefetchPaths' descent: each level's children go out as one
  /// Prefetch, and the descent stops above the leaves.
  Status PreloadIndex();

  /// Start PreloadIndex's walk in `*d` without waiting, reusing d's level
  /// buffers: the root goes out as a prefetch, and Descent::Step reads the
  /// rest as it arrives. It walks the index as the device holds it now.
  void StartPreload(Descent* d);

  /// Read ahead the root-to-leaf paths of `keys` (sorted ascending) as a
  /// level-wise batched descent: starting at the root, the distinct
  /// children that cover the keys go to the pool as ONE Prefetch per
  /// level, so they ride span I/Os, and are read before the next level is.
  /// The leaves are prefetched without waiting for them. Besides the
  /// pool's I/O it charges the per-level traversal CPU once per internal
  /// page it reads (PreloadIndex charges only the I/O); it adds no
  /// traversal count. An empty `keys` reads nothing. Crash recovery's
  /// undo pass uses it to read its losers' paths ahead (recovery/undo.h).
  Status PrefetchPaths(std::span<const Key> keys);

  /// Re-derive the height from the root page (after recovery installed
  /// arbitrary SMO images).
  Status RefreshHeight();

  /// Inverse leaf lookup for single-page media repair: search the INDEX
  /// (internal pages only — the leaf itself is never read, it may be
  /// corrupt) for the leaf `pid` and report the key range it owns: every
  /// key in [*lo, *hi) maps to it (*hi meaningful only when *bounded).
  /// NotFound when no index path leads to `pid` — including when `pid` is
  /// an internal page of this tree, which a row-based repair cannot
  /// rebuild. Walks every internal page (this is a repair path, not a hot
  /// path); requires a structurally sound index.
  Status LeafRangeByPid(PageId pid, Key* lo, Key* hi, bool* bounded);

  // ---- integrity / inspection ----

  /// Verify ordering, fences, levels and slot counts across the tree.
  Status CheckWellFormed(uint64_t* row_count);

  /// Count empty leaves reachable through the leaf sibling chain (excluding
  /// a root that is itself a leaf — an empty table is legal). With merging
  /// enabled, delete churn keeps this at zero in a two-level tree: every
  /// emptied leaf is merged away by the SMO that emptied it (and the last
  /// leaf collapses into the root). Two scoped exceptions can strand an
  /// empty leaf: a sole-child parent BELOW the root (cross-parent merging
  /// is not attempted — only reachable at height >= 3), and a merge
  /// deferred by a foreign pin on the victim. See the ROADMAP's cascading
  /// internal-merge follow-on.
  Status CountEmptyLeaves(uint64_t* empty_leaves);

  /// Visit all rows in key order through the leaf sibling chain.
  Status ScanAll(const std::function<void(Key, Slice)>& fn);

  PageId root_pid() const { return root_pid_; }
  uint32_t height() const { return height_; }
  void set_height(uint32_t h) { height_ = h; }
  uint64_t row_count() const { return num_rows_; }
  void set_row_count(uint64_t n) { num_rows_ = n; }
  /// Fold a row-count change into the tree's counter, clamping at zero.
  /// Apply does this for each write; redo passes, which write leaves
  /// through LeafApplyRecord, account scan-complete instead — every
  /// record's delta exactly once in LSN order, independent of the redo skip
  /// tests — so the recovered counter is exact and method-independent.
  void AdjustRowCount(int64_t delta) {
    if (delta >= 0) {
      num_rows_ += static_cast<uint64_t>(delta);
    } else {
      const uint64_t dec = static_cast<uint64_t>(-delta);
      num_rows_ = dec > num_rows_ ? 0 : num_rows_ - dec;
    }
  }
  uint32_t value_size() const { return value_size_; }
  const Stats& stats() const { return stats_; }

 private:
  Status SplitChild(PageHandle* parent_h, PageHandle* child_h,
                    uint32_t child_idx);
  Status SplitRoot(PageHandle* root_h);
  Status CollapseRoot(PageHandle* root_h, PageHandle* child_h);
  /// Leaf count below which MaybeMergeLeaf coalesces; 0 when disabled.
  uint32_t MergeThreshold() const;
  /// Run a Descent to completion, waiting for each level; the root is a
  /// demand read.
  Status DescendBatched(std::span<const Key> keys, bool every_child);
  Status CheckSubtree(PageId pid, int expected_level, Key lower_fence,
                      bool has_upper, Key upper_fence, uint64_t* rows);

  PageClass ClassForLevel(uint8_t level) const {
    return level > 0 ? PageClass::kIndex : PageClass::kData;
  }
  /// A split's new page at `level`: internal pages come from the index
  /// extent (so the preload reads them in span I/Os), leaves from the
  /// free-list or the high-water mark.
  PageId AllocatePage(uint8_t level) {
    return level > 0 ? allocator_->AllocateIndex() : allocator_->Allocate();
  }

  SimClock* clock_;
  SimDisk* disk_;
  BufferPool* pool_;
  PageAllocator* allocator_;
  LogManager* log_;
  DirtyPageMonitor* monitor_;
  const PageId root_pid_;
  const uint32_t page_size_;
  const uint32_t value_size_;
  const double leaf_fill_;
  const double cpu_per_level_us_;
  const double merge_fill_;

  uint32_t height_ = 1;
  uint64_t num_rows_ = 0;
  Stats stats_;
};

}  // namespace deutero
