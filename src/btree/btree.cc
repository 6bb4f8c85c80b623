#include "btree/btree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "btree/node.h"
#include "dc/dirty_monitor.h"
#include "storage/page.h"

namespace deutero {

BTree::BTree(SimClock* clock, SimDisk* disk, BufferPool* pool,
             PageAllocator* allocator, LogManager* log, PageId root_pid,
             uint32_t page_size, uint32_t value_size, double leaf_fill,
             double cpu_per_level_us, DirtyPageMonitor* monitor,
             double merge_fill)
    : clock_(clock),
      disk_(disk),
      pool_(pool),
      allocator_(allocator),
      log_(log),
      monitor_(monitor),
      root_pid_(root_pid),
      page_size_(page_size),
      value_size_(value_size),
      leaf_fill_(leaf_fill),
      cpu_per_level_us_(cpu_per_level_us),
      // Clamp below the split point: a merged leaf must never be full
      // enough to immediately re-split.
      merge_fill_(merge_fill < 0 ? 0 : (merge_fill > 0.45 ? 0.45
                                                          : merge_fill)) {}

uint32_t BTree::MergeThreshold() const {
  if (merge_fill_ <= 0) return 0;
  const uint32_t cap = LeafNodeView::Capacity(page_size_, value_size_);
  const uint32_t t = static_cast<uint32_t>(cap * merge_fill_);
  return t < 1 ? 1 : t;  // >= 1 so an emptied leaf always triggers
}

Status BTree::CreateEmpty() {
  disk_->EnsurePages(root_pid_ + 1);
  std::vector<uint8_t> buf(page_size_, 0);
  PageView root(buf.data(), page_size_);
  root.Format(root_pid_, PageType::kLeaf, 0);
  StampPageChecksum(buf.data(), page_size_);
  disk_->WriteImageDirect(root_pid_, buf.data());
  height_ = 1;
  num_rows_ = 0;
  return Status::OK();
}

Status BTree::BulkLoad(uint64_t num_rows,
                       const std::function<void(Key, uint8_t*)>& value_gen) {
  if (num_rows == 0) return CreateEmpty();

  const uint32_t leaf_cap = LeafNodeView::Capacity(page_size_, value_size_);
  const uint32_t internal_cap = InternalNodeView::Capacity(page_size_);
  const uint32_t rows_per_leaf = std::max<uint32_t>(
      1, static_cast<uint32_t>(std::floor(leaf_cap * leaf_fill_)));
  const uint32_t children_per_node = std::max<uint32_t>(
      2, static_cast<uint32_t>(std::floor(internal_cap * leaf_fill_)));

  disk_->EnsurePages(root_pid_ + 1);
  std::vector<uint8_t> buf(page_size_);
  std::vector<uint8_t> value(value_size_);

  // Level 0: leaves. Collect (first key, pid) fences for the level above.
  std::vector<std::pair<Key, PageId>> fences;
  const uint64_t num_leaves = (num_rows + rows_per_leaf - 1) / rows_per_leaf;
  const bool root_is_leaf = num_leaves == 1;
  Key key = 0;
  PageId prev_leaf = kInvalidPageId;
  for (uint64_t leaf = 0; leaf < num_leaves; leaf++) {
    const PageId pid = root_is_leaf ? root_pid_ : allocator_->Allocate();
    PageView page(buf.data(), page_size_);
    page.Format(pid, PageType::kLeaf, 0);
    LeafNodeView node(page, value_size_);
    const uint64_t n = std::min<uint64_t>(rows_per_leaf, num_rows - key);
    for (uint64_t i = 0; i < n; i++, key++) {
      value_gen(key, value.data());
      node.InsertAt(static_cast<uint32_t>(i), key, value.data());
    }
    fences.emplace_back(node.KeyAt(0), pid);
    // Chain leaf siblings: patch the previous leaf's image.
    if (prev_leaf != kInvalidPageId) {
      std::vector<uint8_t> prev(page_size_);
      disk_->ReadImage(prev_leaf, prev.data());
      PageView(prev.data(), page_size_).set_right_sibling(pid);
      StampPageChecksum(prev.data(), page_size_);
      disk_->WriteImageDirect(prev_leaf, prev.data());
    }
    disk_->EnsurePages(pid + 1);
    StampPageChecksum(buf.data(), page_size_);
    disk_->WriteImageDirect(pid, buf.data());
    prev_leaf = pid;
  }

  // Internal levels.
  uint8_t level = 1;
  while (fences.size() > 1) {
    std::vector<std::pair<Key, PageId>> next_fences;
    const bool is_root_level = fences.size() <= children_per_node;
    for (size_t i = 0; i < fences.size(); i += children_per_node) {
      const PageId pid = is_root_level ? root_pid_ : allocator_->Allocate();
      PageView page(buf.data(), page_size_);
      page.Format(pid, PageType::kInternal, level);
      InternalNodeView node(page);
      const size_t n = std::min<size_t>(children_per_node, fences.size() - i);
      for (size_t j = 0; j < n; j++) {
        node.Append(fences[i + j].first, fences[i + j].second);
      }
      // Leftmost node of the level: entry 0 is the -infinity fence.
      if (i == 0) node.SetKeyAt(0, 0);
      next_fences.emplace_back(node.KeyAt(0), pid);
      disk_->EnsurePages(pid + 1);
      StampPageChecksum(buf.data(), page_size_);
      disk_->WriteImageDirect(pid, buf.data());
    }
    fences = std::move(next_fences);
    level++;
  }

  height_ = root_is_leaf ? 1 : level;
  num_rows_ = num_rows;
  return Status::OK();
}

Status BTree::Find(Key key, PageId* leaf_pid) {
  Key lo = 0;
  Key hi = 0;
  bool bounded = false;
  return FindRanged(key, leaf_pid, &lo, &hi, &bounded);
}

Status BTree::FindRanged(Key key, PageId* leaf_pid, Key* lo, Key* hi,
                         bool* bounded) {
  stats_.traversals.fetch_add(1, std::memory_order_relaxed);
  Key cur_lo = 0;
  Key cur_hi = 0;
  bool cur_bounded = false;
  PageId pid = root_pid_;
  while (true) {
    clock_->AdvanceUs(cpu_per_level_us_);
    PageHandle h;
    DEUTERO_RETURN_NOT_OK(pool_->Get(pid, PageClass::kIndex, &h));
    PageView page = h.view();
    if (page.type() == PageType::kLeaf) {
      break;  // only possible when the root itself is a leaf
    }
    InternalNodeView node(page);
    const uint32_t ci = node.FindChildIndex(key);
    // Tighten the fences. Entry 0 of a leftmost node is semantically
    // -infinity (stored as 0), which never raises cur_lo; separators pushed
    // up by splits equal the child's first key, so max() is exact.
    const Key entry_key = node.KeyAt(ci);
    if (entry_key > cur_lo) cur_lo = entry_key;
    if (ci + 1u < node.count()) {
      const Key next_key = node.KeyAt(ci + 1);
      if (!cur_bounded || next_key < cur_hi) cur_hi = next_key;
      cur_bounded = true;
    }
    const PageId child = node.ChildAt(ci);
    if (page.level() == 1) {
      // The child is the leaf. The traversal ends WITHOUT touching it:
      // whether the data page is fetched at all is the redo test's
      // decision (Algorithm 5 skips it when the DPT says no redo is
      // possible).
      pid = child;
      break;
    }
    pid = child;
  }
  *leaf_pid = pid;
  *lo = cur_lo;
  *hi = cur_hi;
  *bounded = cur_bounded;
  return Status::OK();
}

Status BTree::Read(Key key, std::string* value) {
  PageId pid = kInvalidPageId;
  DEUTERO_RETURN_NOT_OK(Find(key, &pid));
  PageHandle h;
  DEUTERO_RETURN_NOT_OK(pool_->Get(pid, PageClass::kData, &h));
  LeafNodeView leaf(h.view(), value_size_);
  const uint32_t i = leaf.Find(key);
  if (i == leaf.count()) return Status::NotFound("key not found");
  value->assign(reinterpret_cast<const char*>(leaf.ValueAt(i)), value_size_);
  return Status::OK();
}

Status LeafApplyRecord(PageView page, uint32_t value_size, LogRecordType type,
                       Key key, Slice after, int64_t* rows_delta) {
  if (type != LogRecordType::kUpdate && type != LogRecordType::kInsert &&
      type != LogRecordType::kDelete && type != LogRecordType::kClr) {
    return Status::InvalidArgument("not a data op");
  }
  // A CLR with an empty image compensates an insert: it deletes the row.
  const bool remove = type == LogRecordType::kDelete ||
                      (type == LogRecordType::kClr && after.empty());
  if (!remove && after.size() != value_size) {
    return Status::InvalidArgument("value size mismatch");
  }
  if (page.type() != PageType::kLeaf) {
    return Status::Corruption("apply target is not a leaf");
  }
  LeafNodeView leaf(page, value_size);
  const uint32_t i = leaf.LowerBound(key);
  const bool present = i < leaf.count() && leaf.KeyAt(i) == key;
  const auto* value = reinterpret_cast<const uint8_t*>(after.data());
  if (remove) {
    if (!present) return Status::NotFound("key not on page");
    leaf.RemoveAt(i);
    (*rows_delta)--;
  } else if (present) {
    if (type == LogRecordType::kInsert) {
      return Status::InvalidArgument("duplicate key");
    }
    leaf.SetValueAt(i, value);
  } else {
    if (type == LogRecordType::kUpdate) {
      return Status::NotFound("key not on page");
    }
    if (leaf.full()) return Status::Corruption("insert into full leaf");
    leaf.InsertAt(i, key, value);
    (*rows_delta)++;
  }
  return Status::OK();
}

Status BTree::Apply(PageId pid, LogRecordType type, Key key, Slice after,
                    Lsn lsn, bool* underfull) {
  PageHandle h;
  DEUTERO_RETURN_NOT_OK(pool_->Get(pid, PageClass::kData, &h));
  int64_t delta = 0;
  DEUTERO_RETURN_NOT_OK(
      LeafApplyRecord(h.view(), value_size_, type, key, after, &delta));
  h.MarkDirty(lsn);
  AdjustRowCount(delta);
  if (underfull != nullptr) {
    *underfull = delta < 0 && LeafNodeView(h.view(), value_size_).count() <
                                  MergeThreshold();
  }
  return Status::OK();
}

Status BTree::LeafContains(PageId pid, Key key, bool* contains) {
  PageHandle h;
  DEUTERO_RETURN_NOT_OK(pool_->Get(pid, PageClass::kData, &h));
  PageView page = h.view();
  if (page.type() != PageType::kLeaf) {
    return Status::Corruption("probe target is not a leaf");
  }
  LeafNodeView leaf(page, value_size_);
  *contains = leaf.Find(key) != leaf.count();
  return Status::OK();
}

Key ScanCursor::key() const {
  assert(valid_);
  return LeafNodeView(h_.view(), value_size_).KeyAt(idx_);
}

Slice ScanCursor::value() const {
  assert(valid_);
  LeafNodeView leaf(h_.view(), value_size_);
  return Slice(reinterpret_cast<const char*>(leaf.ValueAt(idx_)),
               value_size_);
}

Status ScanCursor::Normalize() {
  while (true) {
    PageView page = h_.view();
    LeafNodeView leaf(page, value_size_);
    if (idx_ < leaf.count()) {
      if (leaf.KeyAt(idx_) > hi_) break;  // past the range's upper bound
      valid_ = true;
      return Status::OK();
    }
    // Exhausted this leaf (possibly emptied by deletes): follow the chain.
    const PageId next = page.right_sibling();
    h_.Release();
    if (next == kInvalidPageId) break;
    DEUTERO_RETURN_NOT_OK(pool_->Get(next, PageClass::kData, &h_));
    idx_ = 0;
  }
  valid_ = false;
  h_.Release();
  return Status::OK();
}

Status ScanCursor::Next() {
  assert(valid_);
  idx_++;
  return Normalize();
}

void ScanCursor::Close() {
  valid_ = false;
  h_.Release();
}

Status BTree::NewScan(Key lo, Key hi, ScanCursor* out) {
  out->Close();
  out->pool_ = pool_;
  out->value_size_ = value_size_;
  out->hi_ = hi;
  if (hi < lo) return Status::OK();  // empty range: cursor stays invalid
  PageId pid = kInvalidPageId;
  DEUTERO_RETURN_NOT_OK(Find(lo, &pid));
  DEUTERO_RETURN_NOT_OK(pool_->Get(pid, PageClass::kData, &out->h_));
  out->idx_ = LeafNodeView(out->h_.view(), value_size_).LowerBound(lo);
  return out->Normalize();
}

Status BTree::PrepareInsert(Key key, PageId* leaf_pid) {
  stats_.traversals.fetch_add(1, std::memory_order_relaxed);
  PageHandle h;
  DEUTERO_RETURN_NOT_OK(pool_->Get(root_pid_, PageClass::kIndex, &h));
  clock_->AdvanceUs(cpu_per_level_us_);
  // Preventive top-down splitting: split any full node before descending,
  // so a child split always finds room in its parent.
  {
    PageView page = h.view();
    const bool root_full =
        page.type() == PageType::kLeaf
            ? LeafNodeView(page, value_size_).full()
            : InternalNodeView(page).full();
    if (root_full) DEUTERO_RETURN_NOT_OK(SplitRoot(&h));
  }
  PageId pid = root_pid_;
  while (true) {
    PageView page = h.view();
    if (page.type() == PageType::kLeaf) {
      *leaf_pid = pid;
      return Status::OK();
    }
    InternalNodeView node(page);
    uint32_t ci = node.FindChildIndex(key);
    PageId child = node.ChildAt(ci);
    PageHandle ch;
    DEUTERO_RETURN_NOT_OK(
        pool_->Get(child, ClassForLevel(page.level() - 1), &ch));
    clock_->AdvanceUs(cpu_per_level_us_);
    PageView child_page = ch.view();
    const bool child_full =
        child_page.type() == PageType::kLeaf
            ? LeafNodeView(child_page, value_size_).full()
            : InternalNodeView(child_page).full();
    if (child_full) {
      DEUTERO_RETURN_NOT_OK(SplitChild(&h, &ch, ci));
      // The split may have shifted the key's home to the new sibling.
      ci = node.FindChildIndex(key);
      if (node.ChildAt(ci) != child) {
        child = node.ChildAt(ci);
        ch.Release();
        DEUTERO_RETURN_NOT_OK(
            pool_->Get(child, ClassForLevel(page.level() - 1), &ch));
      }
    }
    h = std::move(ch);
    pid = child;
  }
}

namespace {

std::string PageImage(const PageView& page) {
  return std::string(reinterpret_cast<const char*>(page.data()),
                     page.page_size());
}

}  // namespace

Status BTree::SplitChild(PageHandle* parent_h, PageHandle* child_h,
                         uint32_t child_idx) {
  DirtyPageMonitor::AtomicScope smo_scope(monitor_);
  stats_.splits++;
  PageView parent = parent_h->view();
  PageView child = child_h->view();
  InternalNodeView pnode(parent);
  assert(!pnode.full());

  const PageId sibling_pid = AllocatePage(child.level());
  PageHandle sh;
  DEUTERO_RETURN_NOT_OK(
      pool_->Create(sibling_pid, ClassForLevel(child.level()), &sh));
  PageView sibling = sh.view();
  sibling.Format(sibling_pid, child.type(), child.level());

  Key sep = 0;
  if (child.type() == PageType::kLeaf) {
    LeafNodeView cnode(child, value_size_);
    const uint32_t half = cnode.count() / 2;
    sep = cnode.KeyAt(half);
    LeafNodeView snode(sibling, value_size_);
    cnode.SpillUpperHalfInto(&snode, half);
  } else {
    InternalNodeView cnode(child);
    const uint32_t half = cnode.count() / 2;
    sep = cnode.KeyAt(half);
    InternalNodeView snode(sibling);
    cnode.SpillUpperHalfInto(&snode, half);
  }
  sibling.set_right_sibling(child.right_sibling());
  child.set_right_sibling(sibling_pid);
  pnode.InsertAt(child_idx + 1, sep, sibling_pid);

  // System transaction commit: one atomic SMO record with the after-images.
  const Lsn lsn = log_->next_lsn();
  parent_h->MarkDirty(lsn);
  child_h->MarkDirty(lsn);
  sh.MarkDirty(lsn);
  LogRecord rec;
  rec.type = LogRecordType::kSmo;
  allocator_->Stamp(&rec);
  rec.smo_pages.push_back({parent_h->pid(), PageImage(parent)});
  rec.smo_pages.push_back({child_h->pid(), PageImage(child)});
  rec.smo_pages.push_back({sibling_pid, PageImage(sibling)});
  const Lsn got = log_->Append(rec);
  assert(got == lsn);
  (void)got;
  return Status::OK();
}

Status BTree::SplitRoot(PageHandle* root_h) {
  DirtyPageMonitor::AtomicScope smo_scope(monitor_);
  stats_.splits++;
  stats_.root_splits++;
  PageView root = root_h->view();
  const PageId left_pid = AllocatePage(root.level());
  const PageId right_pid = AllocatePage(root.level());
  PageHandle lh, rh;
  DEUTERO_RETURN_NOT_OK(
      pool_->Create(left_pid, ClassForLevel(root.level()), &lh));
  DEUTERO_RETURN_NOT_OK(
      pool_->Create(right_pid, ClassForLevel(root.level()), &rh));
  PageView left = lh.view();
  PageView right = rh.view();
  left.Format(left_pid, root.type(), root.level());
  right.Format(right_pid, root.type(), root.level());

  Key sep = 0;
  if (root.type() == PageType::kLeaf) {
    LeafNodeView rnode(root, value_size_);
    const uint32_t half = rnode.count() / 2;
    sep = rnode.KeyAt(half);
    LeafNodeView right_node(right, value_size_);
    rnode.SpillUpperHalfInto(&right_node, half);
    LeafNodeView left_node(left, value_size_);
    rnode.SpillUpperHalfInto(&left_node, 0);
  } else {
    InternalNodeView rnode(root);
    const uint32_t half = rnode.count() / 2;
    sep = rnode.KeyAt(half);
    InternalNodeView right_node(right);
    rnode.SpillUpperHalfInto(&right_node, half);
    InternalNodeView left_node(left);
    rnode.SpillUpperHalfInto(&left_node, 0);
  }
  left.set_right_sibling(right_pid);

  // Rewrite the root page in place as an internal node one level up. The
  // leftmost entry's key is semantically -infinity (stored as 0): lookups
  // clamp to entry 0, and later splits of the leftmost child must be able
  // to insert separators below any key the left subtree ever held.
  const uint8_t new_level = root.level() + 1;
  root.Format(root_pid_, PageType::kInternal, new_level);
  InternalNodeView new_root(root);
  new_root.Append(0, left_pid);
  new_root.Append(sep, right_pid);
  height_++;

  const Lsn lsn = log_->next_lsn();
  root_h->MarkDirty(lsn);
  lh.MarkDirty(lsn);
  rh.MarkDirty(lsn);
  LogRecord rec;
  rec.type = LogRecordType::kSmo;
  allocator_->Stamp(&rec);
  rec.smo_pages.push_back({root_pid_, PageImage(root)});
  rec.smo_pages.push_back({left_pid, PageImage(left)});
  rec.smo_pages.push_back({right_pid, PageImage(right)});
  const Lsn got = log_->Append(rec);
  assert(got == lsn);
  (void)got;
  return Status::OK();
}

Status BTree::MaybeMergeLeaf(Key key, bool* merged) {
  if (merged != nullptr) *merged = false;
  const uint32_t threshold = MergeThreshold();
  if (threshold == 0) return Status::OK();

  // Descend to the leaf's parent (level-1 node). Nothing above it changes:
  // a merge modifies the parent, two leaves, and nothing else (the root
  // only when the parent IS the root and the tree collapses).
  PageHandle parent_h;
  DEUTERO_RETURN_NOT_OK(pool_->Get(root_pid_, PageClass::kIndex, &parent_h));
  clock_->AdvanceUs(cpu_per_level_us_);
  while (true) {
    PageView page = parent_h.view();
    if (page.type() == PageType::kLeaf) return Status::OK();  // root leaf
    if (page.level() == 1) break;
    const PageId child = InternalNodeView(page).FindChild(key);
    parent_h.Release();
    DEUTERO_RETURN_NOT_OK(pool_->Get(child, PageClass::kIndex, &parent_h));
    clock_->AdvanceUs(cpu_per_level_us_);
  }
  PageView parent = parent_h.view();
  InternalNodeView pnode(parent);
  const uint32_t ci = pnode.FindChildIndex(key);
  const PageId leaf_pid = pnode.ChildAt(ci);
  PageHandle leaf_h;
  DEUTERO_RETURN_NOT_OK(pool_->Get(leaf_pid, PageClass::kData, &leaf_h));
  clock_->AdvanceUs(cpu_per_level_us_);
  if (leaf_h.view().type() != PageType::kLeaf) {
    return Status::Corruption("merge target is not a leaf");
  }
  if (LeafNodeView(leaf_h.view(), value_size_).count() >= threshold) {
    return Status::OK();  // no longer underfull
  }

  if (pnode.count() == 1) {
    // Sole child: no same-parent sibling to merge with. When the parent is
    // the root the tree collapses back to a root leaf; otherwise the leaf
    // stays until churn refills it (cross-parent merges are not attempted).
    if (parent_h.pid() != root_pid_) return Status::OK();
    // A foreign pin (an open ScanCursor, despite the documented
    // no-writes-during-scan contract) defers the collapse: freeing a page
    // someone stands on would leave the cursor on a kFree page and the
    // undiscardable frame dirty.
    if (pool_->PinCount(leaf_pid) > 1) return Status::OK();
    DEUTERO_RETURN_NOT_OK(CollapseRoot(&parent_h, &leaf_h));
    if (merged != nullptr) *merged = true;
    return Status::OK();
  }

  // Prefer merging into the left sibling (the underfull leaf is then the
  // victim); the leftmost child instead absorbs its right sibling.
  uint32_t victim_ci = 0;  // parent entry to remove
  PageId survivor_pid = kInvalidPageId;
  PageId victim_pid = kInvalidPageId;
  if (ci > 0) {
    survivor_pid = pnode.ChildAt(ci - 1);
    victim_pid = leaf_pid;
    victim_ci = ci;
  } else {
    survivor_pid = leaf_pid;
    victim_pid = pnode.ChildAt(1);
    victim_ci = 1;
  }
  PageHandle survivor_h;
  PageHandle victim_h;
  if (survivor_pid == leaf_pid) {
    survivor_h = std::move(leaf_h);
    DEUTERO_RETURN_NOT_OK(
        pool_->Get(victim_pid, PageClass::kData, &victim_h));
  } else {
    victim_h = std::move(leaf_h);
    DEUTERO_RETURN_NOT_OK(
        pool_->Get(survivor_pid, PageClass::kData, &survivor_h));
  }
  clock_->AdvanceUs(cpu_per_level_us_);
  PageView survivor = survivor_h.view();
  PageView victim = victim_h.view();
  if (survivor.type() != PageType::kLeaf ||
      victim.type() != PageType::kLeaf) {
    return Status::Corruption("merge sibling is not a leaf");
  }
  LeafNodeView snode(survivor, value_size_);
  LeafNodeView vnode(victim, value_size_);
  if (snode.count() + vnode.count() > snode.capacity()) {
    return Status::OK();  // combined node would overflow: skip the merge
  }
  // A foreign pin on the victim (an open ScanCursor, despite the
  // documented no-writes-during-scan contract) defers the merge: freeing
  // a page someone stands on would silently end their scan on a kFree
  // page and leave a dirty dead frame the pool could flush — diverging
  // the runtime disk image from what recovery replay produces. (Pins on
  // the SURVIVOR are harmless: its existing entries keep their slots and
  // the cursor simply sees the absorbed rows next.)
  if (pool_->PinCount(victim_pid) > 1) return Status::OK();
  assert(survivor.right_sibling() == victim_pid);

  // System transaction: move the rows, unlink the victim from the parent
  // and the leaf chain, free its page, and commit everything as one atomic
  // kSmoMerge record (after-images riding, same discipline as splits).
  DirtyPageMonitor::AtomicScope smo_scope(monitor_);
  stats_.merges++;
  snode.AppendFrom(&vnode);
  survivor.set_right_sibling(victim.right_sibling());
  pnode.RemoveAt(victim_ci);
  victim.Format(victim_pid, PageType::kFree, 0);
  allocator_->Free(victim_pid);

  const Lsn lsn = log_->next_lsn();
  parent_h.MarkDirty(lsn);
  survivor_h.MarkDirty(lsn);
  victim_h.MarkDirty(lsn);  // the free image carries pLSN == record LSN
  LogRecord rec;
  rec.type = LogRecordType::kSmoMerge;
  rec.pid = victim_pid;
  allocator_->Stamp(&rec);
  rec.smo_pages.push_back({parent_h.pid(), PageImage(parent)});
  rec.smo_pages.push_back({survivor_pid, PageImage(survivor)});
  rec.smo_pages.push_back({victim_pid, PageImage(victim)});
  const Lsn got = log_->Append(rec);
  assert(got == lsn);
  (void)got;

  // The victim's frame is dead: drop it without a flush. Its changes are
  // all logged and its free image rides the record just appended. The
  // pin pre-check above guarantees the discard cannot fail.
  victim_h.Release();
  const bool discarded = pool_->Discard(victim_pid);
  assert(discarded);
  (void)discarded;
  if (merged != nullptr) *merged = true;
  return Status::OK();
}

Status BTree::CollapseRoot(PageHandle* root_h, PageHandle* child_h) {
  DirtyPageMonitor::AtomicScope smo_scope(monitor_);
  stats_.merges++;
  stats_.root_collapses++;
  PageView root = root_h->view();
  PageView child = child_h->view();
  assert(root.level() == 1 && child.type() == PageType::kLeaf);
  const PageId child_pid = child_h->pid();

  // Rewrite the root page in place as a leaf holding the sole child's rows
  // — the inverse of SplitRoot; the catalog never changes.
  root.Format(root_pid_, PageType::kLeaf, 0);
  LeafNodeView root_leaf(root, value_size_);
  LeafNodeView child_leaf(child, value_size_);
  root_leaf.AppendFrom(&child_leaf);
  root.set_right_sibling(child.right_sibling());  // sole leaf: kInvalid
  child.Format(child_pid, PageType::kFree, 0);
  allocator_->Free(child_pid);
  height_ = 1;

  const Lsn lsn = log_->next_lsn();
  root_h->MarkDirty(lsn);
  child_h->MarkDirty(lsn);
  LogRecord rec;
  rec.type = LogRecordType::kSmoMerge;
  rec.pid = child_pid;
  allocator_->Stamp(&rec);
  rec.smo_pages.push_back({root_pid_, PageImage(root)});
  rec.smo_pages.push_back({child_pid, PageImage(child)});
  const Lsn got = log_->Append(rec);
  assert(got == lsn);
  (void)got;

  child_h->Release();
  const bool discarded = pool_->Discard(child_pid);
  assert(discarded);  // caller pre-checked for foreign pins
  (void)discarded;
  return Status::OK();
}

Status BTree::RefreshHeight() {
  PageHandle h;
  DEUTERO_RETURN_NOT_OK(pool_->Get(root_pid_, PageClass::kIndex, &h));
  height_ = h.view().level() + 1;
  return Status::OK();
}

Status BTree::LeafRangeByPid(PageId pid, Key* lo, Key* hi, bool* bounded) {
  PageHandle root_h;
  DEUTERO_RETURN_NOT_OK(pool_->Get(root_pid_, PageClass::kIndex, &root_h));
  if (root_h.view().type() == PageType::kLeaf) {
    if (pid != root_pid_) return Status::NotFound("pid is not in this tree");
    *lo = 0;
    *bounded = false;
    return Status::OK();
  }
  // DFS over the internal pages, propagating each subtree's fence
  // interval; a leaf's range is the interval of the level-1 entry naming
  // it. The search never reads a leaf.
  struct Subtree {
    PageId pid;
    Key lower;
    Key upper;
    bool has_upper;
  };
  std::vector<Subtree> stack = {{root_pid_, 0, 0, false}};
  root_h.Release();
  while (!stack.empty()) {
    const Subtree cur = stack.back();
    stack.pop_back();
    PageHandle h;
    DEUTERO_RETURN_NOT_OK(pool_->Get(cur.pid, PageClass::kIndex, &h));
    PageView page = h.view();
    if (page.type() != PageType::kInternal) {
      return Status::Corruption("index descent reached a non-internal page");
    }
    InternalNodeView node(page);
    for (uint32_t i = 0; i < node.count(); i++) {
      const PageId child = node.ChildAt(i);
      const Key child_lower = i == 0 ? cur.lower : node.KeyAt(i);
      const bool child_has_upper = i + 1 < node.count() || cur.has_upper;
      const Key child_upper =
          i + 1 < node.count() ? node.KeyAt(i + 1) : cur.upper;
      if (page.level() == 1) {
        if (child != pid) continue;
        *lo = child_lower;
        *hi = child_upper;
        *bounded = child_has_upper;
        return Status::OK();
      }
      stack.push_back({child, child_lower, child_upper, child_has_upper});
    }
  }
  return Status::NotFound("pid is not a leaf of this tree");
}

Status BTree::PreloadIndex() {
  return DescendBatched({}, /*every_child=*/true);
}

Status BTree::PrefetchPaths(std::span<const Key> keys) {
  if (keys.empty()) return Status::OK();
  return DescendBatched(keys, /*every_child=*/false);
}

void BTree::StartPreload(Descent* d) {
  d->Start(this, {}, /*every_child=*/true);
  pool_->Prefetch(std::span<const PageId>(&root_pid_, 1), PageClass::kIndex);
}

Status BTree::DescendBatched(std::span<const Key> keys, bool every_child) {
  Descent d;
  d.Start(this, keys, every_child);
  while (!d.done()) DEUTERO_RETURN_NOT_OK(d.ReadLevel(/*wait=*/true));
  return Status::OK();
}

void BTree::Descent::Start(BTree* tree, std::span<const Key> keys,
                           bool every_child) {
  tree_ = tree;
  keys_ = keys;
  every_child_ = every_child;
  level_ = 0;
  arrived_ = 0;
  frontier_.clear();
  frontier_.push_back({tree->root_pid_, 0, keys.size()});
}

Status BTree::Descent::Step() {
  if (done()) return Status::OK();
  const BufferPool& pool = *tree_->pool_;
  for (; arrived_ < frontier_.size(); arrived_++) {
    const PageId pid = frontier_[arrived_].pid;
    if (!pool.HasArrived(pid) && pool.IsResidentOrPending(pid)) {
      return Status::OK();  // in flight
    }
  }
  return ReadLevel(/*wait=*/false);
}

Status BTree::Descent::ReadLevel(bool wait) {
  BTree& t = *tree_;
  children_.clear();
  uint8_t level = 0;
  // Read the level (a waiting descent's first Get of each page waits for
  // its I/O). A path read pays a traversal's per-level CPU once per page
  // it reads; the preload keeps its I/O-only cost.
  for (const Reach& r : frontier_) {
    if (!wait && !t.pool_->HasArrived(r.pid)) continue;  // dropped
    if (!every_child_) t.clock_->AdvanceUs(t.cpu_per_level_us_);
    PageHandle h;
    DEUTERO_RETURN_NOT_OK(t.pool_->Get(r.pid, PageClass::kIndex, &h));
    PageView page = h.view();
    if (page.type() != PageType::kInternal ||
        (level_ != 0 && page.level() != level_)) {
      continue;  // a leaf root, or a child that never reached the device
    }
    level = page.level();
    if (every_child_ && level == 1) continue;  // the preload ends here
    InternalNodeView node(page);
    if (every_child_) {
      for (uint32_t i = 0; i < node.count(); i++) {
        children_.push_back({node.ChildAt(i), 0, 0});
      }
      continue;
    }
    // Keys are sorted: every key below the next separator shares the
    // child of the first.
    for (size_t k = r.lo; k < r.hi;) {
      const uint32_t ci = node.FindChildIndex(keys_[k]);
      size_t end = k + 1;
      if (ci + 1u < node.count()) {
        const Key upper = node.KeyAt(ci + 1);
        while (end < r.hi && keys_[end] < upper) end++;
      } else {
        end = r.hi;
      }
      children_.push_back({node.ChildAt(ci), k, end});
      k = end;
    }
  }
  frontier_.clear();
  arrived_ = 0;
  if (children_.empty()) return Status::OK();
  pids_.clear();
  for (const Reach& c : children_) pids_.push_back(c.pid);
  t.pool_->Prefetch(pids_, t.ClassForLevel(static_cast<uint8_t>(level - 1)));
  if (level == 1) return Status::OK();  // leaves are not waited for
  frontier_.swap(children_);
  level_ = static_cast<uint8_t>(level - 1);
  return Status::OK();
}

Status BTree::CheckSubtree(PageId pid, int expected_level, Key lower_fence,
                           bool has_upper, Key upper_fence, uint64_t* rows) {
  PageHandle h;
  DEUTERO_RETURN_NOT_OK(pool_->Get(
      pid, expected_level > 0 ? PageClass::kIndex : PageClass::kData, &h));
  PageView page = h.view();
  if (page.level() != expected_level) {
    return Status::Corruption("level mismatch: pid " + std::to_string(pid) +
                              " level " + std::to_string(page.level()) +
                              " expected " + std::to_string(expected_level));
  }
  if (page.type() == PageType::kLeaf) {
    if (expected_level != 0) return Status::Corruption("leaf above level 0");
    LeafNodeView leaf(page, value_size_);
    if (leaf.count() > leaf.capacity()) {
      return Status::Corruption("leaf overflow");
    }
    for (uint32_t i = 0; i < leaf.count(); i++) {
      const Key k = leaf.KeyAt(i);
      if (i > 0 && leaf.KeyAt(i - 1) >= k) {
        return Status::Corruption("leaf keys out of order");
      }
      if (k < lower_fence || (has_upper && k >= upper_fence)) {
        return Status::Corruption("leaf key outside fences");
      }
    }
    *rows += leaf.count();
    return Status::OK();
  }
  if (page.type() != PageType::kInternal) {
    return Status::Corruption("unexpected page type in tree");
  }
  InternalNodeView node(page);
  if (node.count() == 0) return Status::Corruption("empty internal node");
  if (node.count() > node.capacity()) {
    return Status::Corruption("internal overflow");
  }
  for (uint32_t i = 0; i < node.count(); i++) {
    if (i > 0 && node.KeyAt(i - 1) >= node.KeyAt(i)) {
      return Status::Corruption("internal keys out of order");
    }
  }
  const uint16_t n = node.count();
  h.Release();
  for (uint32_t i = 0; i < n; i++) {
    // Re-pin for each child to bound pin depth: the deep recursion below
    // must not hold this frame, or a small pool could not evict it.
    PageHandle h2;
    DEUTERO_RETURN_NOT_OK(pool_->Get(pid, PageClass::kIndex, &h2));
    InternalNodeView node2(h2.view());
    if (node2.count() != n) return Status::Corruption("node changed underfoot");
    const Key lo = i == 0 ? lower_fence : node2.KeyAt(i);
    const bool child_has_upper = (i + 1 < n) || has_upper;
    const Key hi = (i + 1 < n) ? node2.KeyAt(i + 1) : upper_fence;
    const PageId child = node2.ChildAt(i);
    const int child_level = expected_level - 1;
    h2.Release();
    DEUTERO_RETURN_NOT_OK(
        CheckSubtree(child, child_level, lo, child_has_upper, hi, rows));
  }
  return Status::OK();
}

Status BTree::CheckWellFormed(uint64_t* row_count) {
  uint64_t rows = 0;
  PageHandle h;
  DEUTERO_RETURN_NOT_OK(pool_->Get(root_pid_, PageClass::kIndex, &h));
  const int root_level = h.view().level();
  h.Release();
  DEUTERO_RETURN_NOT_OK(
      CheckSubtree(root_pid_, root_level, 0, false, 0, &rows));
  if (row_count != nullptr) *row_count = rows;
  return Status::OK();
}

Status BTree::CountEmptyLeaves(uint64_t* empty_leaves) {
  *empty_leaves = 0;
  PageId pid = root_pid_;
  bool root_is_leaf = true;
  while (true) {
    PageHandle h;
    DEUTERO_RETURN_NOT_OK(pool_->Get(pid, PageClass::kIndex, &h));
    PageView page = h.view();
    if (page.type() == PageType::kLeaf) break;
    root_is_leaf = false;
    pid = InternalNodeView(page).ChildAt(0);
  }
  if (root_is_leaf) return Status::OK();  // an empty table is legal
  while (pid != kInvalidPageId) {
    PageHandle h;
    DEUTERO_RETURN_NOT_OK(pool_->Get(pid, PageClass::kData, &h));
    PageView page = h.view();
    if (page.type() != PageType::kLeaf) {
      return Status::Corruption("non-leaf on the sibling chain");
    }
    if (page.num_slots() == 0) (*empty_leaves)++;
    pid = page.right_sibling();
  }
  return Status::OK();
}

Status BTree::ScanAll(const std::function<void(Key, Slice)>& fn) {
  // Descend to the leftmost leaf, then follow the sibling chain.
  PageId pid = root_pid_;
  while (true) {
    PageHandle h;
    DEUTERO_RETURN_NOT_OK(pool_->Get(pid, PageClass::kIndex, &h));
    PageView page = h.view();
    if (page.type() == PageType::kLeaf) break;
    pid = InternalNodeView(page).ChildAt(0);
  }
  while (pid != kInvalidPageId) {
    PageHandle h;
    DEUTERO_RETURN_NOT_OK(pool_->Get(pid, PageClass::kData, &h));
    PageView page = h.view();
    LeafNodeView leaf(page, value_size_);
    for (uint32_t i = 0; i < leaf.count(); i++) {
      fn(leaf.KeyAt(i),
         Slice(reinterpret_cast<const char*>(leaf.ValueAt(i)), value_size_));
    }
    pid = page.right_sibling();
  }
  return Status::OK();
}

}  // namespace deutero
