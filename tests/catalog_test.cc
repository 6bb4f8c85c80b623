// Catalog tests: meta-page round trip (index extent cursor included),
// validation, and capacity limits.
#include <gtest/gtest.h>

#include "common/coding.h"
#include "sim/clock.h"
#include "sim/sim_disk.h"
#include "storage/catalog.h"
#include "storage/page.h"

namespace deutero {
namespace {

constexpr uint32_t kPageSize = 1024;

class CatalogTest : public ::testing::Test {
 protected:
  CatalogTest() : disk_(&clock_, kPageSize, IoModelOptions{}) {
    disk_.EnsurePages(1);
  }
  SimClock clock_;
  SimDisk disk_;
};

TEST_F(CatalogTest, WriteReadRoundTrip) {
  Catalog cat;
  cat.set_next_page_id(77);
  ASSERT_TRUE(cat.Add({1, 1, 3, 26, 1000}).ok());
  ASSERT_TRUE(cat.Add({9, 40, 1, 12, 0}).ok());
  cat.WriteTo(&disk_, kPageSize);

  Catalog read;
  ASSERT_TRUE(Catalog::ReadFrom(disk_, kPageSize, &read).ok());
  EXPECT_EQ(read.next_page_id(), 77u);
  ASSERT_EQ(read.tables().size(), 2u);
  const TableInfo* t = read.Find(9);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->root_pid, 40u);
  EXPECT_EQ(t->height, 1u);
  EXPECT_EQ(t->value_size, 12u);
  const TableInfo* d = read.Find(1);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->num_rows, 1000u);
}

TEST_F(CatalogTest, RoundTripKeepsTheIndexExtentCursor) {
  Catalog cat;
  cat.set_next_page_id(77);
  cat.set_index_extent({70, 77});
  cat.set_rows_covered_lsn(12345);
  cat.set_free_list({3, 9});
  ASSERT_TRUE(cat.Add({1, 1, 3, 26, 1000}).ok());
  cat.WriteTo(&disk_, kPageSize);

  Catalog read;
  ASSERT_TRUE(Catalog::ReadFrom(disk_, kPageSize, &read).ok());
  EXPECT_EQ(read.next_page_id(), 77u);
  EXPECT_EQ(read.index_extent().next, 70u);
  EXPECT_EQ(read.index_extent().end, 77u);
  EXPECT_EQ(read.rows_covered_lsn(), 12345u);
  EXPECT_EQ(read.free_list(), (std::vector<PageId>{3, 9}));
  ASSERT_NE(read.Find(1), nullptr);
  EXPECT_EQ(read.Find(1)->num_rows, 1000u);

  // A never-reserved extent reads back as the empty {0, 0}.
  Catalog fresh;
  fresh.set_next_page_id(5);
  fresh.WriteTo(&disk_, kPageSize);
  ASSERT_TRUE(Catalog::ReadFrom(disk_, kPageSize, &read).ok());
  EXPECT_TRUE(read.index_extent() == IndexExtent());
}

/// A cursor past its own end or past the high-water mark would hand out
/// pids the allocator never reserved, some of them live: corruption.
TEST_F(CatalogTest, CorruptIndexExtentCursorRejected) {
  for (const IndexExtent bad : {IndexExtent{72, 70}, IndexExtent{70, 78},
                                IndexExtent{90, 90}}) {
    Catalog cat;
    cat.set_next_page_id(77);
    cat.set_index_extent(bad);
    ASSERT_TRUE(cat.Add({1, 1, 1, 26, 0}).ok());
    cat.WriteTo(&disk_, kPageSize);
    Catalog read;
    EXPECT_TRUE(Catalog::ReadFrom(disk_, kPageSize, &read).IsCorruption())
        << "[" << bad.next << ", " << bad.end << ")";
  }
}

/// The free-list fills whatever room the fixed header and the table
/// entries leave: a list longer than that keeps its oldest entries, and the
/// header fields before it are intact.
TEST_F(CatalogTest, FullFreeListTruncatesToTheRemainingRoom) {
  Catalog cat;
  cat.set_next_page_id(5000);
  cat.set_index_extent({4990, 4996});
  ASSERT_TRUE(cat.Add({1, 1, 2, 26, 10}).ok());
  ASSERT_TRUE(cat.Add({2, 40, 1, 12, 0}).ok());
  std::vector<PageId> free_list;
  for (PageId p = 100; p < 400; p++) free_list.push_back(p);
  cat.set_free_list(free_list);
  cat.WriteTo(&disk_, kPageSize);

  Catalog read;
  ASSERT_TRUE(Catalog::ReadFrom(disk_, kPageSize, &read).ok());
  // Payload minus the 28-byte header, two 24-byte entries and the count.
  const size_t room = (kPageSize - kPageHeaderSize - 28 - 2 * 24 - 4) / 4;
  ASSERT_LT(room, free_list.size());
  EXPECT_EQ(read.free_list(),
            std::vector<PageId>(free_list.begin(), free_list.begin() + room));
  EXPECT_EQ(read.next_page_id(), 5000u);
  EXPECT_TRUE(read.index_extent() == (IndexExtent{4990, 4996}));
  ASSERT_EQ(read.tables().size(), 2u);
  EXPECT_EQ(read.Find(2)->root_pid, 40u);
}

/// The table entries are bounded by the page, not only by kMaxTables: a
/// full 1 KB page round-trips, and an entry count past it is corruption
/// rather than a read off the end of the page.
TEST_F(CatalogTest, TableEntriesAreBoundedByThePage) {
  EXPECT_EQ(Catalog::MaxTables(kPageSize),
            (kPageSize - kPageHeaderSize - 28 - 4) / 24);
  EXPECT_EQ(Catalog::MaxTables(8192), Catalog::kMaxTables);
  Catalog cat;
  cat.set_next_page_id(500);
  const size_t fit = Catalog::MaxTables(kPageSize);
  for (uint32_t i = 1; i <= fit; i++) {
    ASSERT_TRUE(cat.Add({i, i, 1, 26, i}).ok());
  }
  cat.set_free_list({400, 401});
  cat.WriteTo(&disk_, kPageSize);
  Catalog read;
  ASSERT_TRUE(Catalog::ReadFrom(disk_, kPageSize, &read).ok());
  ASSERT_EQ(read.tables().size(), fit);
  EXPECT_EQ(read.Find(static_cast<TableId>(fit))->num_rows, fit);

  // Claim one entry more than the page holds.
  std::vector<uint8_t> image(kPageSize);
  disk_.ReadImage(kMetaPageId, image.data());
  EncodeFixed32(reinterpret_cast<char*>(image.data() + kPageHeaderSize + 8),
                static_cast<uint32_t>(fit + 1));
  StampPageChecksum(image.data(), kPageSize);
  EXPECT_TRUE(Catalog::Decode(image.data(), kPageSize, &read).IsCorruption());
}

TEST_F(CatalogTest, FindUnknownReturnsNull) {
  Catalog cat;
  ASSERT_TRUE(cat.Add({1, 1, 1, 26, 0}).ok());
  EXPECT_EQ(cat.Find(2), nullptr);
}

TEST_F(CatalogTest, DuplicateTableIdRejected) {
  Catalog cat;
  ASSERT_TRUE(cat.Add({1, 1, 1, 26, 0}).ok());
  EXPECT_TRUE(cat.Add({1, 5, 1, 26, 0}).IsInvalidArgument());
}

TEST_F(CatalogTest, InvalidTableIdRejected) {
  Catalog cat;
  EXPECT_TRUE(cat.Add({kInvalidTableId, 1, 1, 26, 0}).IsInvalidArgument());
}

TEST_F(CatalogTest, CapacityEnforced) {
  Catalog cat;
  for (uint32_t i = 1; i <= Catalog::kMaxTables; i++) {
    ASSERT_TRUE(cat.Add({i, i, 1, 26, 0}).ok());
  }
  EXPECT_TRUE(
      cat.Add({Catalog::kMaxTables + 1, 999, 1, 26, 0}).IsInvalidArgument());
}

TEST_F(CatalogTest, BadMagicRejected) {
  std::vector<uint8_t> zero(kPageSize, 0);
  disk_.WriteImageDirect(kMetaPageId, zero.data());
  Catalog read;
  EXPECT_TRUE(Catalog::ReadFrom(disk_, kPageSize, &read).IsCorruption());
}

TEST_F(CatalogTest, UpdateEntryInPlaceAndRewrite) {
  Catalog cat;
  ASSERT_TRUE(cat.Add({1, 1, 1, 26, 0}).ok());
  cat.Find(1)->height = 4;
  cat.Find(1)->num_rows = 42;
  cat.WriteTo(&disk_, kPageSize);
  Catalog read;
  ASSERT_TRUE(Catalog::ReadFrom(disk_, kPageSize, &read).ok());
  EXPECT_EQ(read.Find(1)->height, 4u);
  EXPECT_EQ(read.Find(1)->num_rows, 42u);
}

}  // namespace
}  // namespace deutero
