// Unit tests for the on-page format: headers, meta page, leaf and internal
// node views.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "btree/node.h"
#include "common/random.h"
#include "storage/page.h"

namespace deutero {
namespace {

constexpr uint32_t kPageSize = 1024;
constexpr uint32_t kValueSize = 26;

class FormattedPage {
 public:
  FormattedPage(PageType type, uint8_t level) : buf_(kPageSize, 0xAB) {
    PageView p(buf_.data(), kPageSize);
    p.Format(7, type, level);
  }
  PageView view() { return PageView(buf_.data(), kPageSize); }

 private:
  std::vector<uint8_t> buf_;
};

TEST(PageViewTest, FormatInitializesHeader) {
  FormattedPage fp(PageType::kLeaf, 0);
  PageView p = fp.view();
  EXPECT_EQ(p.page_id(), 7u);
  EXPECT_EQ(p.plsn(), kInvalidLsn);
  EXPECT_EQ(p.type(), PageType::kLeaf);
  EXPECT_EQ(p.level(), 0);
  EXPECT_EQ(p.num_slots(), 0);
  EXPECT_EQ(p.right_sibling(), kInvalidPageId);
}

TEST(PageViewTest, HeaderFieldsRoundTrip) {
  FormattedPage fp(PageType::kInternal, 2);
  PageView p = fp.view();
  p.set_plsn(0xABCDEF0102030405ULL);
  p.set_num_slots(321);
  p.set_right_sibling(99);
  EXPECT_EQ(p.plsn(), 0xABCDEF0102030405ULL);
  EXPECT_EQ(p.num_slots(), 321);
  EXPECT_EQ(p.right_sibling(), 99u);
  EXPECT_EQ(p.level(), 2);
}

TEST(PageViewTest, PayloadExcludesHeader) {
  FormattedPage fp(PageType::kLeaf, 0);
  PageView p = fp.view();
  EXPECT_EQ(p.payload_size(), kPageSize - kPageHeaderSize);
  EXPECT_EQ(p.payload(), p.data() + kPageHeaderSize);
}

// ---------------------------------------------------------------------------
// LeafNodeView
// ---------------------------------------------------------------------------

std::vector<uint8_t> Val(uint8_t fill) {
  return std::vector<uint8_t>(kValueSize, fill);
}

TEST(LeafNodeTest, CapacityMatchesGeometry) {
  EXPECT_EQ(LeafNodeView::Capacity(kPageSize, kValueSize),
            (kPageSize - kPageHeaderSize) / (8 + kValueSize));
  EXPECT_EQ(LeafNodeView::Capacity(8192, 26), (8192u - 32u) / 34u);  // 239
}

TEST(LeafNodeTest, InsertSortedAndFind) {
  FormattedPage fp(PageType::kLeaf, 0);
  LeafNodeView leaf(fp.view(), kValueSize);
  leaf.InsertAt(0, 20, Val(2).data());
  leaf.InsertAt(0, 10, Val(1).data());
  leaf.InsertAt(2, 30, Val(3).data());
  ASSERT_EQ(leaf.count(), 3);
  EXPECT_EQ(leaf.KeyAt(0), 10u);
  EXPECT_EQ(leaf.KeyAt(1), 20u);
  EXPECT_EQ(leaf.KeyAt(2), 30u);
  EXPECT_EQ(leaf.Find(20), 1u);
  EXPECT_EQ(leaf.Find(25), leaf.count());
  EXPECT_EQ(leaf.ValueAt(1)[0], 2);
}

TEST(LeafNodeTest, LowerBound) {
  FormattedPage fp(PageType::kLeaf, 0);
  LeafNodeView leaf(fp.view(), kValueSize);
  for (uint32_t i = 0; i < 10; i++) {
    leaf.InsertAt(i, 10 * (i + 1), Val(0).data());
  }
  EXPECT_EQ(leaf.LowerBound(5), 0u);
  EXPECT_EQ(leaf.LowerBound(10), 0u);
  EXPECT_EQ(leaf.LowerBound(11), 1u);
  EXPECT_EQ(leaf.LowerBound(100), 9u);
  EXPECT_EQ(leaf.LowerBound(101), 10u);
}

TEST(LeafNodeTest, SetValueOverwrites) {
  FormattedPage fp(PageType::kLeaf, 0);
  LeafNodeView leaf(fp.view(), kValueSize);
  leaf.InsertAt(0, 5, Val(1).data());
  leaf.SetValueAt(0, Val(9).data());
  EXPECT_EQ(leaf.ValueAt(0)[0], 9);
  EXPECT_EQ(leaf.ValueAt(0)[kValueSize - 1], 9);
}

TEST(LeafNodeTest, RemoveAtShiftsTail) {
  FormattedPage fp(PageType::kLeaf, 0);
  LeafNodeView leaf(fp.view(), kValueSize);
  for (uint32_t i = 0; i < 5; i++) leaf.InsertAt(i, i, Val(i).data());
  leaf.RemoveAt(1);
  ASSERT_EQ(leaf.count(), 4);
  EXPECT_EQ(leaf.KeyAt(0), 0u);
  EXPECT_EQ(leaf.KeyAt(1), 2u);
  EXPECT_EQ(leaf.ValueAt(1)[0], 2);
  EXPECT_EQ(leaf.KeyAt(3), 4u);
}

TEST(LeafNodeTest, SpillUpperHalf) {
  FormattedPage a(PageType::kLeaf, 0);
  FormattedPage b(PageType::kLeaf, 0);
  LeafNodeView src(a.view(), kValueSize);
  LeafNodeView dst(b.view(), kValueSize);
  for (uint32_t i = 0; i < 10; i++) {
    src.InsertAt(i, i, Val(static_cast<uint8_t>(i)).data());
  }
  src.SpillUpperHalfInto(&dst, 6);
  EXPECT_EQ(src.count(), 6);
  EXPECT_EQ(dst.count(), 4);
  EXPECT_EQ(dst.KeyAt(0), 6u);
  EXPECT_EQ(dst.KeyAt(3), 9u);
}

TEST(LeafNodeTest, FillToCapacity) {
  FormattedPage fp(PageType::kLeaf, 0);
  LeafNodeView leaf(fp.view(), kValueSize);
  const uint32_t cap = leaf.capacity();
  for (uint32_t i = 0; i < cap; i++) leaf.InsertAt(i, i, Val(1).data());
  EXPECT_TRUE(leaf.full());
  EXPECT_EQ(leaf.count(), cap);
  for (uint32_t i = 0; i < cap; i++) EXPECT_EQ(leaf.KeyAt(i), i);
}

// ---------------------------------------------------------------------------
// InternalNodeView
// ---------------------------------------------------------------------------

TEST(InternalNodeTest, CapacityMatchesGeometry) {
  EXPECT_EQ(InternalNodeView::Capacity(kPageSize),
            (kPageSize - kPageHeaderSize) / 12);
}

TEST(InternalNodeTest, FindChildLowFenceConvention) {
  FormattedPage fp(PageType::kInternal, 1);
  InternalNodeView node(fp.view());
  node.Append(0, 100);    // keys [0, 50) -> 100
  node.Append(50, 101);   // keys [50, 90) -> 101
  node.Append(90, 102);   // keys >= 90 -> 102
  EXPECT_EQ(node.FindChild(0), 100u);
  EXPECT_EQ(node.FindChild(49), 100u);
  EXPECT_EQ(node.FindChild(50), 101u);
  EXPECT_EQ(node.FindChild(89), 101u);
  EXPECT_EQ(node.FindChild(90), 102u);
  EXPECT_EQ(node.FindChild(1000000), 102u);
}

TEST(InternalNodeTest, FindChildClampsBelowFirstFence) {
  FormattedPage fp(PageType::kInternal, 1);
  InternalNodeView node(fp.view());
  node.Append(100, 7);
  node.Append(200, 8);
  // Search keys below the first fence still go to child 0.
  EXPECT_EQ(node.FindChild(5), 7u);
}

TEST(InternalNodeTest, InsertAtMaintainsOrder) {
  FormattedPage fp(PageType::kInternal, 1);
  InternalNodeView node(fp.view());
  node.Append(10, 1);
  node.Append(30, 3);
  node.InsertAt(1, 20, 2);
  ASSERT_EQ(node.count(), 3);
  EXPECT_EQ(node.KeyAt(1), 20u);
  EXPECT_EQ(node.ChildAt(1), 2u);
  EXPECT_EQ(node.ChildAt(2), 3u);
}

TEST(InternalNodeTest, SpillUpperHalf) {
  FormattedPage a(PageType::kInternal, 1);
  FormattedPage b(PageType::kInternal, 1);
  InternalNodeView src(a.view());
  InternalNodeView dst(b.view());
  for (uint32_t i = 0; i < 9; i++) src.Append(i * 10, i);
  src.SpillUpperHalfInto(&dst, 4);
  EXPECT_EQ(src.count(), 4);
  EXPECT_EQ(dst.count(), 5);
  EXPECT_EQ(dst.KeyAt(0), 40u);
  EXPECT_EQ(dst.ChildAt(4), 8u);
}

TEST(InternalNodeTest, FindChildRandomizedAgainstLinearScan) {
  FormattedPage fp(PageType::kInternal, 1);
  InternalNodeView node(fp.view());
  std::vector<Key> fences;
  Random rng(11);
  Key k = 0;
  for (uint32_t i = 0; i < 60; i++) {
    k += 1 + rng.Uniform(50);
    fences.push_back(k);
    node.Append(k, 1000 + i);
  }
  for (int trial = 0; trial < 2000; trial++) {
    const Key probe = rng.Uniform(k + 100);
    uint32_t expect = 0;
    for (uint32_t i = 0; i < fences.size(); i++) {
      if (fences[i] <= probe) expect = i;
    }
    EXPECT_EQ(node.FindChildIndex(probe), expect) << "probe=" << probe;
  }
}

}  // namespace
}  // namespace deutero
