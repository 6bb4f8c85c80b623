// Unit + property tests for the B+tree: bulk load geometry, point ops,
// logged SMO splits (leaf, internal, root), crash-redo of SMOs, preload,
// and a randomized differential test against std::map.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "btree/node.h"
#include "common/random.h"
#include "common/value_codec.h"
#include "sim/clock.h"
#include "sim/sim_disk.h"
#include "storage/allocator.h"
#include "storage/buffer_pool.h"
#include "wal/log_manager.h"

namespace deutero {
namespace {

constexpr uint32_t kPageSize = 512;
constexpr uint32_t kValueSize = 20;
// Leaf capacity: (512-32)/28 = 17; internal: (512-32)/12 = 40.

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() { Reset(256); }

  void Reset(uint64_t cache_pages, uint32_t page_size = kPageSize) {
    options_ = EngineOptions();
    options_.page_size = page_size;
    options_.value_size = kValueSize;
    options_.cache_pages = cache_pages;
    clock_ = std::make_unique<SimClock>();
    disk_ = std::make_unique<SimDisk>(clock_.get(), page_size, options_.io);
    pool_ = std::make_unique<BufferPool>(clock_.get(), disk_.get(),
                                         cache_pages, page_size);
    log_ = std::make_unique<LogManager>(clock_.get(), 8192, 0.25);
    // Page 0 is the (unused here) catalog page; the root gets page 1.
    allocator_ = std::make_unique<PageAllocator>(disk_.get(), 2);
    tree_ = std::make_unique<BTree>(
        clock_.get(), disk_.get(), pool_.get(), allocator_.get(), log_.get(),
        kRootPageId, page_size, kValueSize, options_.leaf_fill_fraction,
        options_.io.cpu_per_btree_level_us);
  }

  std::string Val(Key k, uint32_t version = 0) {
    return SynthesizeValueString(k, version, kValueSize);
  }

  Status Insert(Key k, uint32_t version = 1) {
    PageId pid = kInvalidPageId;
    DEUTERO_RETURN_NOT_OK(tree_->PrepareInsert(k, &pid));
    return tree_->Apply(pid, LogRecordType::kInsert, k, Val(k, version),
                        log_->next_lsn() + 1);
  }

  EngineOptions options_;
  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<SimDisk> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<PageAllocator> allocator_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, CreateEmptyHasLeafRoot) {
  ASSERT_TRUE(tree_->CreateEmpty().ok());
  EXPECT_EQ(tree_->height(), 1u);
  uint64_t rows = 0;
  ASSERT_TRUE(tree_->CheckWellFormed(&rows).ok());
  EXPECT_EQ(rows, 0u);
}

TEST_F(BTreeTest, BulkLoadSingleLeaf) {
  ASSERT_TRUE(tree_->BulkLoad(10, [this](Key k, uint8_t* dst) {
                       SynthesizeValue(k, 0, kValueSize, dst);
                     }).ok());
  EXPECT_EQ(tree_->height(), 1u);
  uint64_t rows = 0;
  ASSERT_TRUE(tree_->CheckWellFormed(&rows).ok());
  EXPECT_EQ(rows, 10u);
  std::string v;
  ASSERT_TRUE(tree_->Read(7, &v).ok());
  EXPECT_EQ(v, Val(7));
}

TEST_F(BTreeTest, BulkLoadMultiLevel) {
  ASSERT_TRUE(tree_->BulkLoad(5000, [this](Key k, uint8_t* dst) {
                       SynthesizeValue(k, 0, kValueSize, dst);
                     }).ok());
  EXPECT_GE(tree_->height(), 3u);
  uint64_t rows = 0;
  ASSERT_TRUE(tree_->CheckWellFormed(&rows).ok());
  EXPECT_EQ(rows, 5000u);
  // Spot-check reads across the key space.
  for (Key k : {0ull, 1ull, 2499ull, 4999ull}) {
    std::string v;
    ASSERT_TRUE(tree_->Read(k, &v).ok()) << k;
    EXPECT_EQ(v, Val(k));
  }
  std::string v;
  EXPECT_TRUE(tree_->Read(5000, &v).IsNotFound());
}

TEST_F(BTreeTest, BulkLoadLeafSiblingChainIsComplete) {
  ASSERT_TRUE(tree_->BulkLoad(1000, [this](Key k, uint8_t* dst) {
                       SynthesizeValue(k, 0, kValueSize, dst);
                     }).ok());
  uint64_t seen = 0;
  Key expected = 0;
  ASSERT_TRUE(tree_->ScanAll([&](Key k, Slice v) {
                       EXPECT_EQ(k, expected++);
                       EXPECT_EQ(v.size(), kValueSize);
                       seen++;
                     }).ok());
  EXPECT_EQ(seen, 1000u);
}

TEST_F(BTreeTest, FindDoesNotTouchLeaves) {
  ASSERT_TRUE(tree_->BulkLoad(2000, [this](Key k, uint8_t* dst) {
                       SynthesizeValue(k, 0, kValueSize, dst);
                     }).ok());
  pool_->ResetStats();
  PageId pid = kInvalidPageId;
  ASSERT_TRUE(tree_->Find(1234, &pid).ok());
  EXPECT_EQ(pool_->stats().data_fetches, 0u);
  EXPECT_GT(pool_->stats().index_fetches, 0u);
  // The returned pid really owns the key.
  std::string v;
  ASSERT_TRUE(tree_->Read(1234, &v).ok());
}

TEST_F(BTreeTest, UpdateOverwritesInPlaceAndStampsPlsn) {
  ASSERT_TRUE(tree_->BulkLoad(100, [this](Key k, uint8_t* dst) {
                       SynthesizeValue(k, 0, kValueSize, dst);
                     }).ok());
  PageId pid = kInvalidPageId;
  ASSERT_TRUE(tree_->Find(42, &pid).ok());
  ASSERT_TRUE(
      tree_->Apply(pid, LogRecordType::kUpdate, 42, Val(42, 5), 9000).ok());
  std::string v;
  ASSERT_TRUE(tree_->Read(42, &v).ok());
  EXPECT_EQ(v, Val(42, 5));
  PageHandle h;
  ASSERT_TRUE(pool_->Get(pid, PageClass::kData, &h).ok());
  EXPECT_EQ(h.view().plsn(), 9000u);
}

TEST_F(BTreeTest, UpdateMissingKeyIsNotFound) {
  ASSERT_TRUE(tree_->BulkLoad(100, [this](Key k, uint8_t* dst) {
                       SynthesizeValue(k, 0, kValueSize, dst);
                     }).ok());
  PageId pid = kInvalidPageId;
  ASSERT_TRUE(tree_->Find(40, &pid).ok());
  EXPECT_TRUE(tree_->Apply(pid, LogRecordType::kUpdate, 100000, Val(1), 1)
                  .IsNotFound());
}

TEST_F(BTreeTest, InsertsSplitLeavesAndLogSmos) {
  ASSERT_TRUE(tree_->CreateEmpty().ok());
  const uint64_t before =
      log_->stats().by_type[static_cast<size_t>(LogRecordType::kSmo)];
  for (Key k = 0; k < 200; k++) ASSERT_TRUE(Insert(k).ok());
  const uint64_t smos =
      log_->stats().by_type[static_cast<size_t>(LogRecordType::kSmo)] - before;
  EXPECT_GT(smos, 5u);  // 200 rows / 17 per leaf forces many splits
  EXPECT_GT(tree_->stats().root_splits, 0u);
  uint64_t rows = 0;
  ASSERT_TRUE(tree_->CheckWellFormed(&rows).ok());
  EXPECT_EQ(rows, 200u);
}

TEST_F(BTreeTest, ReverseAndRandomInsertOrdersStayWellFormed) {
  for (int mode = 0; mode < 2; mode++) {
    Reset(256);
    ASSERT_TRUE(tree_->CreateEmpty().ok());
    Random rng(mode + 1);
    std::map<Key, bool> present;
    for (int i = 0; i < 500; i++) {
      Key k;
      if (mode == 0) {
        k = 100000 - i;  // descending
      } else {
        do {
          k = rng.Uniform(1000000);
        } while (present.count(k));
      }
      present[k] = true;
      ASSERT_TRUE(Insert(k).ok());
    }
    uint64_t rows = 0;
    ASSERT_TRUE(tree_->CheckWellFormed(&rows).ok());
    EXPECT_EQ(rows, 500u);
    Key prev = 0;
    bool first = true;
    uint64_t seen = 0;
    ASSERT_TRUE(tree_->ScanAll([&](Key k, Slice) {
                         if (!first) {
                           EXPECT_GT(k, prev);
                         }
                         prev = k;
                         first = false;
                         seen++;
                       }).ok());
    EXPECT_EQ(seen, 500u);
  }
}

TEST_F(BTreeTest, DeleteRemovesRow) {
  ASSERT_TRUE(tree_->BulkLoad(100, [this](Key k, uint8_t* dst) {
                       SynthesizeValue(k, 0, kValueSize, dst);
                     }).ok());
  PageId pid = kInvalidPageId;
  ASSERT_TRUE(tree_->Find(10, &pid).ok());
  ASSERT_TRUE(tree_->Apply(pid, LogRecordType::kDelete, 10, Slice(), 500).ok());
  std::string v;
  EXPECT_TRUE(tree_->Read(10, &v).IsNotFound());
  uint64_t rows = 0;
  ASSERT_TRUE(tree_->CheckWellFormed(&rows).ok());
  EXPECT_EQ(rows, 99u);
}

// Only a removal can start a merge: an update or insert on an underfull
// leaf must not report it, or every write there would probe for a merge.
TEST_F(BTreeTest, ApplyReportsUnderfullOnlyAfterARemoval) {
  // merge_fill 0.25 of a 17-row leaf: the threshold is 4 rows.
  tree_ = std::make_unique<BTree>(
      clock_.get(), disk_.get(), pool_.get(), allocator_.get(), log_.get(),
      kRootPageId, kPageSize, kValueSize, options_.leaf_fill_fraction,
      options_.io.cpu_per_btree_level_us, /*monitor=*/nullptr,
      /*merge_fill=*/0.25);
  ASSERT_TRUE(tree_->BulkLoad(100, [this](Key k, uint8_t* dst) {
                       SynthesizeValue(k, 0, kValueSize, dst);
                     }).ok());
  PageId pid = kInvalidPageId;
  ASSERT_TRUE(tree_->Find(0, &pid).ok());
  Lsn lsn = 1000;
  bool underfull = false;
  // The first leaf holds keys 0-15 (16 rows at the 0.95 bulk-load fill).
  for (Key k = 0; k <= 13; k++) {
    ASSERT_TRUE(tree_->Apply(pid, LogRecordType::kDelete, k, Slice(), lsn++,
                             &underfull)
                    .ok());
    EXPECT_EQ(underfull, k >= 12) << "after deleting key " << k;
  }
  // Two rows left, below the threshold, but neither op removes one.
  underfull = true;
  ASSERT_TRUE(tree_->Apply(pid, LogRecordType::kUpdate, 14, Val(14, 1),
                           lsn++, &underfull)
                  .ok());
  EXPECT_FALSE(underfull);
  underfull = true;
  ASSERT_TRUE(tree_->Apply(pid, LogRecordType::kInsert, 0, Val(0, 1), lsn++,
                           &underfull)
                  .ok());
  EXPECT_FALSE(underfull);
  // A CLR with an empty image compensates an insert: it removes the row.
  ASSERT_TRUE(tree_->Apply(pid, LogRecordType::kClr, 0, Slice(), lsn++,
                           &underfull)
                  .ok());
  EXPECT_TRUE(underfull);
}

TEST_F(BTreeTest, SmoRedoReinstallsImagesIdempotently) {
  ASSERT_TRUE(tree_->CreateEmpty().ok());
  for (Key k = 0; k < 60; k++) ASSERT_TRUE(Insert(k).ok());
  log_->Flush();

  // Collect the SMO records, then simulate a crash where NOTHING was
  // flushed: the device still has only the empty tree.
  std::vector<LogRecord> smos;
  for (auto it = log_->NewIterator(kFirstLsn, false); it.Valid(); it.Next()) {
    if (it.record().type == LogRecordType::kSmo) {
      it.record().CopyTo(&smos.emplace_back());
    }
  }
  ASSERT_GT(smos.size(), 0u);

  pool_->Reset();
  // Redo all SMOs twice — idempotence via the per-page pLSN test.
  for (int round = 0; round < 2; round++) {
    for (const LogRecord& rec : smos) {
      ASSERT_TRUE(RedoPhysicalImages(pool_.get(), disk_.get(),
                                     allocator_.get(), kPageSize, rec)
                      .ok());
    }
  }
  uint64_t rows = 0;
  ASSERT_TRUE(tree_->CheckWellFormed(&rows).ok());
  // The tree structure is restored; rows reflect whatever leaf images the
  // SMO records captured (a well-formed prefix of history).
}

TEST_F(BTreeTest, PreloadIndexLoadsAllInternalPages) {
  ASSERT_TRUE(tree_->BulkLoad(5000, [this](Key k, uint8_t* dst) {
                       SynthesizeValue(k, 0, kValueSize, dst);
                     }).ok());
  ASSERT_GE(tree_->height(), 3u);
  pool_->Reset();
  pool_->ResetStats();
  ASSERT_TRUE(tree_->PreloadIndex().ok());
  const uint64_t index_pages_loaded =
      pool_->stats().index_fetches + pool_->stats().misses;
  EXPECT_GT(index_pages_loaded, 2u);
  EXPECT_EQ(pool_->stats().data_fetches, 0u);  // never touches leaves
  // Subsequent traversals hit only cached index pages.
  pool_->ResetStats();
  PageId pid = kInvalidPageId;
  ASSERT_TRUE(tree_->Find(4321, &pid).ok());
  EXPECT_EQ(pool_->stats().misses, 0u);
}

/// The batched descent on 1 KB pages (35-row leaves, 82-entry internal
/// nodes): a cold pool reads each level's pages with one Prefetch, whose
/// spans carry several pages per I/O, and leaves every path cached.
TEST_F(BTreeTest, PrefetchPathsReadsEachLevelInOneBatch) {
  constexpr uint64_t kRows = 60000;
  Reset(/*cache_pages=*/1024, /*page_size=*/1024);
  ASSERT_TRUE(tree_->BulkLoad(kRows, [](Key k, uint8_t* dst) {
                       SynthesizeValue(k, 0, kValueSize, dst);
                     }).ok());
  ASSERT_GE(tree_->height(), 3u);
  std::vector<Key> keys;  // about every third leaf, across the whole tree
  for (Key k = 0; k < kRows; k += 97) keys.push_back(k);

  pool_->Reset();
  pool_->ResetStats();
  disk_->ResetStats();
  ASSERT_TRUE(tree_->PrefetchPaths({}).ok());
  EXPECT_EQ(pool_->stats().gets, 0u) << "an empty key set reads nothing";
  EXPECT_EQ(disk_->stats().read_ios, 0u);

  ASSERT_TRUE(tree_->PrefetchPaths(keys).ok());
  const BufferPool::Stats ps = pool_->stats();
  EXPECT_EQ(ps.misses, 1u) << "only the root is a demand read";
  EXPECT_EQ(ps.data_fetches, keys.size());  // one leaf per key, prefetched
  EXPECT_GT(ps.index_fetches, 1u);
  EXPECT_LT(disk_->stats().read_ios, ps.data_fetches + ps.index_fetches)
      << "each level's pages ride span I/Os";

  // Every path is cached now: each Find and each Get of its leaf is a hit
  // (a leaf may still be in flight; the Get then waits, but reads nothing).
  pool_->ResetStats();
  const uint64_t read_ios = disk_->stats().read_ios;
  for (Key k : keys) {
    PageId pid = kInvalidPageId;
    ASSERT_TRUE(tree_->Find(k, &pid).ok());
    PageHandle h;
    ASSERT_TRUE(pool_->Get(pid, PageClass::kData, &h).ok());
    LeafNodeView leaf(h.view(), kValueSize);
    EXPECT_LT(leaf.Find(k), leaf.count()) << k;
  }
  EXPECT_EQ(pool_->stats().misses, 0u);
  EXPECT_EQ(disk_->stats().read_ios, read_ios);

  // PreloadIndex is the every-path case: it reads every internal page, the
  // root by demand and each level below it with one Prefetch. Bulk load
  // gives each level contiguous pids, so one Prefetch reads a level of n
  // pages in ceil(n / 8) span I/Os.
  pool_->Reset();
  pool_->ResetStats();
  disk_->ResetStats();
  ASSERT_TRUE(tree_->PreloadIndex().ok());
  EXPECT_EQ(pool_->stats().misses, 1u);
  EXPECT_EQ(pool_->stats().data_fetches, 0u);  // never touches leaves
  uint64_t internal_pages = 1;
  uint64_t expected_ios = 1;
  std::vector<PageId> level = {kRootPageId};
  while (true) {
    std::vector<PageId> below;
    uint32_t level_no = 0;
    for (PageId pid : level) {
      PageHandle h;
      ASSERT_TRUE(pool_->Get(pid, PageClass::kIndex, &h).ok());
      level_no = h.view().level();
      InternalNodeView node(h.view());
      for (uint32_t i = 0; i < node.count(); i++) {
        below.push_back(node.ChildAt(i));
      }
    }
    if (level_no == 1) break;  // `below` are leaves
    ASSERT_EQ(*std::max_element(below.begin(), below.end()) -
                  *std::min_element(below.begin(), below.end()) + 1,
              below.size());
    internal_pages += below.size();
    expected_ios += (below.size() + 7) / 8;
    level = std::move(below);
  }
  ASSERT_GT(internal_pages, 2u);
  EXPECT_EQ(pool_->stats().index_fetches, internal_pages);
  EXPECT_EQ(disk_->stats().read_ios, expected_ios);
}

/// PreloadIndex's walk stepped without waiting (Descent::Step), on a cold
/// 3-level tree of 1 KB pages, as Log2's DC pass steps it under its log
/// scan: a step while the current level is in flight issues nothing, no
/// step demand-reads a page or stalls, and the walk ends having read
/// exactly the pages PreloadIndex reads, in as many read I/Os.
TEST_F(BTreeTest, PreloadDescentStepsWithoutWaiting) {
  constexpr uint64_t kRows = 60000;
  Reset(/*cache_pages=*/1024, /*page_size=*/1024);
  ASSERT_TRUE(tree_->BulkLoad(kRows, [](Key k, uint8_t* dst) {
                       SynthesizeValue(k, 0, kValueSize, dst);
                     }).ok());
  ASSERT_GE(tree_->height(), 3u);
  pool_->Reset();
  pool_->ResetStats();
  disk_->ResetStats();

  BTree::Descent d;
  tree_->StartPreload(&d);
  uint64_t issued = pool_->stats().prefetch_issued;
  EXPECT_EQ(issued, 1u) << "the root goes out as a prefetch";
  ASSERT_TRUE(d.Step().ok());
  EXPECT_EQ(pool_->stats().prefetch_issued, issued) << "the root is pending";
  int levels_issued = 0;
  for (int i = 0; !d.done() && i < 10000; i++) {
    const uint64_t before = issued;
    ASSERT_TRUE(d.Step().ok());
    issued = pool_->stats().prefetch_issued;
    if (issued != before) {
      levels_issued++;
      // The level just issued is in flight at this instant.
      ASSERT_TRUE(d.Step().ok());
      EXPECT_EQ(pool_->stats().prefetch_issued, issued)
          << "a step issued while its level was pending";
    }
    clock_->AdvanceMs(0.25);
  }
  ASSERT_TRUE(d.done());
  EXPECT_EQ(levels_issued, static_cast<int>(tree_->height()) - 2);
  const BufferPool::Stats stepped = pool_->stats();
  const uint64_t stepped_ios = disk_->stats().read_ios;
  EXPECT_EQ(stepped.misses, 0u) << "a step demand-read a page";
  EXPECT_EQ(stepped.stall_count, 0u);
  EXPECT_EQ(stepped.stall_ms, 0.0);
  EXPECT_EQ(stepped.data_fetches, 0u);  // never touches leaves

  // PreloadIndex now finds every page it reads loaded...
  ASSERT_TRUE(tree_->PreloadIndex().ok());
  EXPECT_EQ(pool_->stats().index_fetches, stepped.index_fetches);
  EXPECT_EQ(pool_->stats().misses, 0u);
  EXPECT_EQ(disk_->stats().read_ios, stepped_ios);
  // ...and cold it reads as many pages, in as many I/Os: the same pages.
  pool_->Reset();
  pool_->ResetStats();
  disk_->ResetStats();
  ASSERT_TRUE(tree_->PreloadIndex().ok());
  EXPECT_EQ(pool_->stats().index_fetches, stepped.index_fetches);
  EXPECT_EQ(disk_->stats().read_ios, stepped_ios);
}

/// Splits place internal pages in index extents: runs of max_batch_pages
/// pids reserved at the high-water mark for internal pages only, each used
/// up before the next is reserved. 1 KB pages (35-row leaves, 82-entry
/// internal nodes): a 5,000-row bulk load (height 3), then the first 60
/// leaves drained (their merges free leaf pages) and ascending inserts
/// until three extents were reserved.
TEST_F(BTreeTest, InternalSplitsFillAnExtentBeforeReservingAnother) {
  constexpr uint64_t kRows = 5000;
  Reset(/*cache_pages=*/4096, /*page_size=*/1024);
  tree_ = std::make_unique<BTree>(
      clock_.get(), disk_.get(), pool_.get(), allocator_.get(), log_.get(),
      kRootPageId, 1024, kValueSize, options_.leaf_fill_fraction,
      options_.io.cpu_per_btree_level_us, /*monitor=*/nullptr,
      /*merge_fill=*/0.25);
  ASSERT_TRUE(tree_->BulkLoad(kRows, [](Key k, uint8_t* dst) {
                       SynthesizeValue(k, 0, kValueSize, dst);
                     }).ok());
  ASSERT_EQ(tree_->height(), 3u);
  const PageId bulk_hwm = allocator_->next_page_id();
  const PageId extent_len = disk_->io_options().max_batch_pages;
  ASSERT_GT(extent_len, 1u);

  Lsn lsn = log_->next_lsn() + 1;
  for (Key k = 0; k < 60 * 33; k++) {  // 33 rows per bulk-loaded leaf
    PageId pid = kInvalidPageId;
    ASSERT_TRUE(tree_->Find(k, &pid).ok());
    bool underfull = false;
    ASSERT_TRUE(
        tree_->Apply(pid, LogRecordType::kDelete, k, Slice(), lsn++, &underfull)
            .ok());
    if (underfull) {
      ASSERT_TRUE(tree_->MaybeMergeLeaf(k).ok());
    }
  }
  const std::vector<PageId> freed = allocator_->free_list();
  ASSERT_GT(freed.size(), 40u);

  int reserved = 0;
  for (Key next = kRows; reserved < 3; next++) {
    ASSERT_LT(next, kRows + 40000) << "splits reserved no third extent";
    const PageId end_before = allocator_->index_extent().end;
    ASSERT_TRUE(Insert(next).ok());
    if (allocator_->index_extent().end == end_before) continue;
    // The first internal split comes while freed leaves are still listed:
    // it could have taken one.
    if (reserved++ == 0) {
      ASSERT_FALSE(allocator_->free_list().empty());
    }
  }
  uint64_t rows = 0;
  ASSERT_TRUE(tree_->CheckWellFormed(&rows).ok());

  // Walk the tree: internal pages by level (below the root), and leaves.
  std::vector<std::vector<PageId>> by_level(tree_->height());
  std::vector<PageId> leaves;
  std::vector<PageId> frontier = {kRootPageId};
  while (!frontier.empty()) {
    std::vector<PageId> below;
    for (PageId pid : frontier) {
      PageHandle h;
      ASSERT_TRUE(pool_->Get(pid, PageClass::kIndex, &h).ok());
      if (h.view().type() == PageType::kLeaf) {
        leaves.push_back(pid);
        continue;
      }
      if (pid != kRootPageId) by_level[h.view().level()].push_back(pid);
      InternalNodeView node(h.view());
      for (uint32_t i = 0; i < node.count(); i++) {
        below.push_back(node.ChildAt(i));
      }
    }
    frontier = std::move(below);
  }
  std::vector<PageId> internal;
  std::vector<PageId> grown;  // internal pages allocated after the bulk load
  for (const auto& level : by_level) {
    for (PageId pid : level) {
      internal.push_back(pid);
      if (pid >= bulk_hwm) grown.push_back(pid);
    }
  }
  std::sort(internal.begin(), internal.end());
  std::sort(grown.begin(), grown.end());
  std::sort(leaves.begin(), leaves.end());

  // Group the grown pages into extents: each starts at its first page and
  // covers extent_len pids. Every extent but the current one is full, none
  // holds a leaf, and the current one is the allocator's cursor.
  size_t extents = 0;
  for (size_t i = 0; i < grown.size();) {
    const PageId start = grown[i];
    size_t j = i;
    while (j < grown.size() && grown[j] < start + extent_len) j++;
    const auto first_leaf =
        std::lower_bound(leaves.begin(), leaves.end(), start);
    EXPECT_TRUE(first_leaf == leaves.end() ||
                *first_leaf >= start + extent_len)
        << "leaf " << *first_leaf << " inside the extent at " << start;
    if (j == grown.size()) {
      EXPECT_EQ(start + extent_len, allocator_->index_extent().end);
      EXPECT_EQ(start + (j - i), allocator_->index_extent().next);
    } else {
      EXPECT_EQ(j - i, extent_len) << "extent at " << start << " not full";
    }
    extents++;
    i = j;
  }
  EXPECT_EQ(extents, 3u);

  // A freed leaf pid never becomes an internal page.
  for (PageId pid : freed) {
    EXPECT_FALSE(std::binary_search(internal.begin(), internal.end(), pid))
        << "freed leaf " << pid << " became an internal page";
  }

  // A cold-pool preload reads the root, then each level below it in one
  // Prefetch: the bulk-loaded pages of a level are one contiguous run and
  // its grown pages sit in extents, so a level of b bulk-loaded and g grown
  // pages takes at most ceil(b / B) + ceil(g / B) span I/Os (B =
  // max_batch_pages). Grown pages placed at the high-water mark between
  // leaves would cost one I/O each, past this bound.
  ASSERT_TRUE(pool_->FlushAllDirty().ok());
  pool_->Reset();
  pool_->ResetStats();
  disk_->ResetStats();
  ASSERT_TRUE(tree_->PreloadIndex().ok());
  auto ceil_div = [](uint64_t a, uint64_t b) { return (a + b - 1) / b; };
  uint64_t bound = 1;  // the root
  uint64_t internal_pages = 1;
  for (const auto& level : by_level) {
    uint64_t bulk = 0;
    for (PageId pid : level) bulk += pid < bulk_hwm ? 1 : 0;
    bound += ceil_div(bulk, extent_len) +
             ceil_div(level.size() - bulk, extent_len);
    internal_pages += level.size();
  }
  EXPECT_EQ(pool_->stats().index_fetches, internal_pages);
  EXPECT_EQ(pool_->stats().data_fetches, 0u);
  EXPECT_LE(disk_->stats().read_ios, bound)
      << grown.size() << " grown internal pages";
  EXPECT_LT(bound, 1 + grown.size())
      << "the bound must be tighter than one I/O per grown page";
}

TEST_F(BTreeTest, RefreshHeightMatchesRootLevel) {
  ASSERT_TRUE(tree_->BulkLoad(3000, [this](Key k, uint8_t* dst) {
                       SynthesizeValue(k, 0, kValueSize, dst);
                     }).ok());
  const uint32_t height = tree_->height();
  tree_->set_height(1);  // stale, as after arbitrary SMO redo
  ASSERT_TRUE(tree_->RefreshHeight().ok());
  EXPECT_EQ(tree_->height(), height);
}

TEST_F(BTreeTest, TwoTreesShareAllocatorWithoutCollisions) {
  ASSERT_TRUE(tree_->CreateEmpty().ok());
  const PageId other_root = allocator_->Allocate();
  BTree other(clock_.get(), disk_.get(), pool_.get(), allocator_.get(),
              log_.get(), other_root, kPageSize, kValueSize,
              options_.leaf_fill_fraction,
              options_.io.cpu_per_btree_level_us);
  ASSERT_TRUE(other.CreateEmpty().ok());
  for (Key k = 0; k < 120; k++) {
    ASSERT_TRUE(Insert(k).ok());
    PageId pid;
    ASSERT_TRUE(other.PrepareInsert(k + 1000, &pid).ok());
    ASSERT_TRUE(other
                    .Apply(pid, LogRecordType::kInsert, k + 1000,
                           Val(k + 1000, 1), log_->next_lsn() + 1)
                    .ok());
  }
  uint64_t rows_a = 0, rows_b = 0;
  ASSERT_TRUE(tree_->CheckWellFormed(&rows_a).ok());
  ASSERT_TRUE(other.CheckWellFormed(&rows_b).ok());
  EXPECT_EQ(rows_a, 120u);
  EXPECT_EQ(rows_b, 120u);
}

// Differential test: random interleaving of inserts and updates vs std::map.
TEST_F(BTreeTest, RandomOpsMatchStdMap) {
  Reset(64);  // small cache: force eviction traffic through the tree
  ASSERT_TRUE(tree_->CreateEmpty().ok());
  Random rng(99);
  std::map<Key, std::string> oracle;
  for (int i = 0; i < 3000; i++) {
    const int op = static_cast<int>(rng.Uniform(100));
    if (op < 55 || oracle.empty()) {
      Key k;
      do {
        k = rng.Uniform(100000);
      } while (oracle.count(k));
      const std::string v = Val(k, static_cast<uint32_t>(i));
      PageId pid;
      ASSERT_TRUE(tree_->PrepareInsert(k, &pid).ok());
      ASSERT_TRUE(tree_->Apply(pid, LogRecordType::kInsert, k, v, i + 10).ok());
      oracle[k] = v;
    } else if (op < 90) {
      auto it = oracle.begin();
      std::advance(it, rng.Uniform(oracle.size()));
      const std::string v = Val(it->first, static_cast<uint32_t>(i + 7));
      PageId pid;
      ASSERT_TRUE(tree_->Find(it->first, &pid).ok());
      ASSERT_TRUE(
          tree_->Apply(pid, LogRecordType::kUpdate, it->first, v, i + 10)
              .ok());
      it->second = v;
    } else {
      auto it = oracle.begin();
      std::advance(it, rng.Uniform(oracle.size()));
      std::string v;
      ASSERT_TRUE(tree_->Read(it->first, &v).ok());
      ASSERT_EQ(v, it->second);
    }
  }
  uint64_t rows = 0;
  ASSERT_TRUE(tree_->CheckWellFormed(&rows).ok());
  EXPECT_EQ(rows, oracle.size());
  // Full scan equivalence.
  auto expect = oracle.begin();
  ASSERT_TRUE(tree_->ScanAll([&](Key k, Slice v) {
                       ASSERT_NE(expect, oracle.end());
                       EXPECT_EQ(k, expect->first);
                       EXPECT_EQ(v.ToString(), expect->second);
                       ++expect;
                     }).ok());
  EXPECT_EQ(expect, oracle.end());
}

}  // namespace
}  // namespace deutero
