// Shared helpers for the test suite: small engine geometries that keep
// runtimes in milliseconds while exercising multi-level trees and real
// cache pressure.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/options.h"
#include "common/value_codec.h"
#include "core/engine.h"
#include "storage/catalog.h"
#include "storage/page.h"

namespace deutero {
namespace testing_util {

/// Tiny geometry: 1 KB pages (29 rows/leaf), multi-level tree at a few
/// thousand rows, heavy cache pressure at the default 64-frame cache.
inline EngineOptions SmallOptions() {
  EngineOptions o;
  o.page_size = 1024;
  o.value_size = 26;
  o.num_rows = 5000;          // ~181 leaves, 2-level tree
  o.cache_pages = 64;
  o.checkpoint_interval_updates = 300;
  o.updates_per_txn = 10;
  o.bw_written_capacity = 20;
  o.delta_dirty_capacity = 50;
  o.lazy_writer_reference_cache_pages = 64;
  o.prefetch_window = 8;
  o.seed = 42;
  return o;
}

/// Medium geometry: deeper tree, larger cache; still fast.
inline EngineOptions MediumOptions() {
  EngineOptions o = SmallOptions();
  o.num_rows = 60000;  // ~2,178 leaves, 3-level tree
  o.cache_pages = 256;
  o.lazy_writer_reference_cache_pages = 256;
  o.checkpoint_interval_updates = 1000;
  return o;
}

#define ASSERT_OK(expr)                                             \
  do {                                                              \
    const ::deutero::Status _st = (expr);                           \
    ASSERT_TRUE(_st.ok()) << "status: " << _st.ToString();          \
  } while (false)

#define EXPECT_OK(expr)                                             \
  do {                                                              \
    const ::deutero::Status _st = (expr);                           \
    EXPECT_TRUE(_st.ok()) << "status: " << _st.ToString();          \
  } while (false)

/// The ENTIRE post-recovery stable state: every disk page (dirty cache
/// pages flushed first) including the catalog page, plus the allocator's
/// free-list, high-water mark and index extent cursor — captured per method
/// for byte-identical comparison.
struct StateImage {
  std::vector<PageId> free_list;
  PageId hwm = kInvalidPageId;
  IndexExtent index_extent;
  std::vector<std::string> pages;
};

inline StateImage CaptureState(Engine* e) {
  EXPECT_OK(e->dc().pool().FlushAllDirty());
  StateImage s;
  const PageAllocator& alloc = e->dc().allocator();
  s.free_list = alloc.free_list();
  s.hwm = alloc.next_page_id();
  s.index_extent = alloc.index_extent();
  SimDisk& d = e->dc().disk();
  std::vector<uint8_t> buf(e->options().page_size);
  for (PageId p = 0; p < d.num_pages(); p++) {
    d.ReadImage(p, buf.data());
    s.pages.emplace_back(buf.begin(), buf.end());
  }
  return s;
}

inline std::string DescribeExtent(const IndexExtent& x) {
  return "[" + std::to_string(x.next) + "," + std::to_string(x.end) + ")";
}

/// One page image for a divergence report; the meta page is decoded with
/// the catalog codec.
inline std::string DescribePage(const std::string& img) {
  const auto* data = reinterpret_cast<const uint8_t*>(img.data());
  const auto size = static_cast<uint32_t>(img.size());
  const PageView page(const_cast<uint8_t*>(data), size);
  std::string d = "plsn=" + std::to_string(page.plsn()) +
                  " slots=" + std::to_string(page.num_slots());
  if (page.type() != PageType::kMeta) return d;
  Catalog cat;
  const Status st = Catalog::Decode(data, size, &cat);
  if (!st.ok()) return d + " [meta: " + st.ToString() + "]";
  d += " [meta next_pid=" + std::to_string(cat.next_page_id()) +
       " index_extent=" + DescribeExtent(cat.index_extent()) +
       " free=" + std::to_string(cat.free_list().size()) +
       " rows_covered_lsn=" + std::to_string(cat.rows_covered_lsn());
  for (const TableInfo& t : cat.tables()) {
    d += " t" + std::to_string(t.id) + "{root=" + std::to_string(t.root_pid) +
         " height=" + std::to_string(t.height) +
         " rows=" + std::to_string(t.num_rows) + "}";
  }
  return d + "]";
}

/// Assert byte identity, reporting the first divergent page.
inline void ExpectSameState(const StateImage& got, const StateImage& want,
                            const std::string& label) {
  EXPECT_EQ(got.free_list, want.free_list) << label << ": free-list";
  EXPECT_EQ(got.hwm, want.hwm) << label << ": high-water mark";
  EXPECT_TRUE(got.index_extent == want.index_extent)
      << label << ": index extent " << DescribeExtent(got.index_extent)
      << " vs " << DescribeExtent(want.index_extent);
  ASSERT_EQ(got.pages.size(), want.pages.size()) << label << ": page count";
  for (size_t p = 0; p < got.pages.size(); p++) {
    ASSERT_EQ(got.pages[p] == want.pages[p], true)
        << label << ": page " << p << " diverged ("
        << DescribePage(got.pages[p]) << " vs " << DescribePage(want.pages[p])
        << ")";
  }
}

}  // namespace testing_util
}  // namespace deutero
