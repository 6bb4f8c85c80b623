// Shared helpers for the test suite: small engine geometries that keep
// runtimes in milliseconds while exercising multi-level trees and real
// cache pressure.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/options.h"
#include "common/value_codec.h"
#include "core/engine.h"
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
/// pages flushed first) including the catalog page, plus the allocator
/// free-list — captured per method for byte-identical comparison.
struct StateImage {
  std::vector<PageId> free_list;
  std::vector<std::string> pages;
};

inline StateImage CaptureState(Engine* e) {
  EXPECT_OK(e->dc().pool().FlushAllDirty());
  StateImage s;
  s.free_list = e->dc().allocator().free_list();
  SimDisk& d = e->dc().disk();
  std::vector<uint8_t> buf(e->options().page_size);
  for (PageId p = 0; p < d.num_pages(); p++) {
    d.ReadImage(p, buf.data());
    s.pages.emplace_back(buf.begin(), buf.end());
  }
  return s;
}

/// Assert byte identity, reporting the first divergent page.
inline void ExpectSameState(const StateImage& got, const StateImage& want,
                            const std::string& label) {
  EXPECT_EQ(got.free_list, want.free_list) << label << ": free-list";
  ASSERT_EQ(got.pages.size(), want.pages.size()) << label << ": page count";
  auto describe = [](const std::string& img) {
    PageView page(
        reinterpret_cast<uint8_t*>(const_cast<char*>(img.data())),
        static_cast<uint32_t>(img.size()));
    std::string d = "plsn=" + std::to_string(page.plsn()) +
                    " slots=" + std::to_string(page.num_slots());
    if (page.type() == PageType::kMeta) {
      MetaView meta(page);
      d += " [meta next_pid=" + std::to_string(meta.next_page_id()) + "]";
      // The multi-table catalog stores rows/height per entry; surface the
      // first entry's counters from the raw layout (id at +12, rows +28).
      const char* p = reinterpret_cast<const char*>(page.payload());
      d += " tables=" + std::to_string(DecodeFixed32(p + 8));
      d += " t0_height=" + std::to_string(DecodeFixed32(p + 12 + 8));
      d += " t0_rows=" + std::to_string(DecodeFixed64(p + 12 + 16));
      d += " next=" + std::to_string(DecodeFixed32(p + 4));
    }
    return d;
  };
  for (size_t p = 0; p < got.pages.size(); p++) {
    ASSERT_EQ(got.pages[p] == want.pages[p], true)
        << label << ": page " << p << " diverged (" << describe(got.pages[p])
        << " vs " << describe(want.pages[p]) << ")";
  }
}

}  // namespace testing_util
}  // namespace deutero
