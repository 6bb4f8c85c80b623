#include "storage/catalog.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "common/coding.h"
#include "storage/page.h"

namespace deutero {

namespace {

/// Bytes of the fixed header before the table entries, and of one entry
/// (see catalog.h).
constexpr size_t kHeaderSize = 28;
constexpr size_t kEntrySize = 24;

}  // namespace

size_t Catalog::MaxTables(uint32_t page_size) {
  const size_t fixed = kPageHeaderSize + kHeaderSize + 4;  // + free count
  if (page_size < fixed) return 0;
  return std::min(kMaxTables, (page_size - fixed) / kEntrySize);
}

const TableInfo* Catalog::Find(TableId id) const {
  for (const TableInfo& t : tables_) {
    if (t.id == id) return &t;
  }
  return nullptr;
}

TableInfo* Catalog::Find(TableId id) {
  for (TableInfo& t : tables_) {
    if (t.id == id) return &t;
  }
  return nullptr;
}

Status Catalog::Add(const TableInfo& info) {
  if (info.id == kInvalidTableId) {
    return Status::InvalidArgument("invalid table id");
  }
  if (Find(info.id) != nullptr) {
    return Status::InvalidArgument("table id already exists");
  }
  if (tables_.size() >= kMaxTables) {
    return Status::InvalidArgument("catalog full");
  }
  tables_.push_back(info);
  return Status::OK();
}

void Catalog::WriteTo(SimDisk* disk, uint32_t page_size) const {
  assert(tables_.size() <= MaxTables(page_size));
  std::vector<uint8_t> buf(page_size, 0);
  PageView page(buf.data(), page_size);
  page.Format(kMetaPageId, PageType::kMeta, 0);
  char* p = reinterpret_cast<char*>(page.payload());
  EncodeFixed32(p, kMetaMagic);
  EncodeFixed32(p + 4, next_page_id_);
  EncodeFixed32(p + 8, static_cast<uint32_t>(tables_.size()));
  EncodeFixed64(p + 12, rows_covered_lsn_);
  EncodeFixed32(p + 20, index_extent_.next);
  EncodeFixed32(p + 24, index_extent_.end);
  char* entry = p + kHeaderSize;
  for (const TableInfo& t : tables_) {
    EncodeFixed32(entry, t.id);
    EncodeFixed32(entry + 4, t.root_pid);
    EncodeFixed32(entry + 8, t.height);
    EncodeFixed32(entry + 12, t.value_size);
    EncodeFixed64(entry + 16, t.num_rows);
    entry += kEntrySize;
  }
  const char* page_end =
      reinterpret_cast<const char*>(page.payload()) + page.payload_size();
  // Allocator free-list, bounded by the page: dropping the tail leaks those
  // pages (safe — they are simply never reallocated) but cannot corrupt.
  const size_t room = static_cast<size_t>(page_end - entry);
  size_t nfree = free_list_.size();
  if (room < 4) {
    nfree = 0;
  } else if (nfree > (room - 4) / 4) {
    nfree = (room - 4) / 4;
  }
  if (room >= 4) {
    EncodeFixed32(entry, static_cast<uint32_t>(nfree));
    entry += 4;
    for (size_t i = 0; i < nfree; i++) {
      EncodeFixed32(entry, free_list_[i]);
      entry += 4;
    }
  }
  disk->EnsurePages(1);
  StampPageChecksum(buf.data(), page_size);
  disk->WriteImageDirect(kMetaPageId, buf.data());
}

Status Catalog::ReadFrom(const SimDisk& disk, uint32_t page_size,
                         Catalog* out) {
  if (disk.num_pages() == 0) {
    out->Clear();
    return Status::Corruption("empty device");
  }
  std::vector<uint8_t> buf(page_size);
  disk.ReadImage(kMetaPageId, buf.data());
  return Decode(buf.data(), page_size, out);
}

Status Catalog::Decode(const uint8_t* image, uint32_t page_size,
                       Catalog* out) {
  out->Clear();
  if (!VerifyPageChecksum(image, page_size)) {
    return Status::Corruption("catalog page checksum mismatch");
  }
  const char* p = reinterpret_cast<const char*>(image + kPageHeaderSize);
  const char* page_end = reinterpret_cast<const char*>(image + page_size);
  if (DecodeFixed32(p) != kMetaMagic) {
    return Status::Corruption("bad catalog magic");
  }
  out->next_page_id_ = DecodeFixed32(p + 4);
  const uint32_t n = DecodeFixed32(p + 8);
  if (n > kMaxTables) return Status::Corruption("catalog entry count");
  out->rows_covered_lsn_ = DecodeFixed64(p + 12);
  out->index_extent_ = {DecodeFixed32(p + 20), DecodeFixed32(p + 24)};
  if (out->index_extent_.next > out->index_extent_.end ||
      out->index_extent_.end > out->next_page_id_) {
    return Status::Corruption("catalog index extent cursor out of range");
  }
  if (kHeaderSize + static_cast<size_t>(n) * kEntrySize >
      static_cast<size_t>(page_end - p)) {
    return Status::Corruption("catalog entries overflow meta page");
  }
  const char* entry = p + kHeaderSize;
  for (uint32_t i = 0; i < n; i++) {
    TableInfo t;
    t.id = DecodeFixed32(entry);
    t.root_pid = DecodeFixed32(entry + 4);
    t.height = DecodeFixed32(entry + 8);
    t.value_size = DecodeFixed32(entry + 12);
    t.num_rows = DecodeFixed64(entry + 16);
    out->tables_.push_back(t);
    entry += kEntrySize;
  }
  if (entry + 4 <= page_end) {
    const uint32_t nfree = DecodeFixed32(entry);
    entry += 4;
    if (entry + static_cast<size_t>(nfree) * 4 > page_end) {
      return Status::Corruption("catalog free-list overflows meta page");
    }
    out->free_list_.reserve(nfree);
    for (uint32_t i = 0; i < nfree; i++) {
      out->free_list_.push_back(DecodeFixed32(entry));
      entry += 4;
    }
  }
  return Status::OK();
}

}  // namespace deutero
