// On-page format. Every data page starts with a fixed 32-byte header that
// carries the page LSN (pLSN) used by the redo idempotence test (paper §2.2).
// B-tree node payloads are laid out after the header (see btree/node.h);
// the meta page (page 0) stores the catalog (see storage/catalog.h).
//
// All multi-byte fields are little-endian via common/coding.h.
#pragma once

#include <cstdint>

#include "common/coding.h"
#include "common/types.h"

namespace deutero {

enum class PageType : uint8_t {
  kFree = 0,
  kMeta = 1,
  kInternal = 2,
  kLeaf = 3,
};

// Header layout (byte offsets):
//   [0]  u32  page_id
//   [4]  u64  plsn
//   [12] u8   page_type
//   [13] u8   level          (0 = leaf; internal nodes are >= 1)
//   [14] u16  num_slots
//   [16] u32  right_sibling  (kInvalidPageId if none)
//   [20] u32  checksum       (CRC32C; was reserved0 before PR 7)
//   [24] u64  reserved1
inline constexpr uint32_t kPageHeaderSize = 32;

// On-disk format note: the former reserved0 slot now carries a CRC32C of
// the whole page excluding the slot itself, stamped whenever a page image
// goes to the stable device (buffer-pool flush, bulk load, catalog persist,
// repair write-back) and verified on every buffer-pool read-in. The slot
// was always written as zero before this change, so 0 doubles as the
// "never stamped" legacy marker: VerifyPageChecksum accepts it (a page
// image created before its first flush — including every pre-PR 7 image —
// simply carries no protection), and CheckWellFormed reads through the
// pool, so legacy pages pass integrity checks unchanged. A computed CRC of
// exactly 0 is remapped to 1 to keep the marker unambiguous.
inline constexpr uint32_t kPageChecksumOffset = 20;

/// A typed, non-owning view over one page worth of bytes. The frame memory is
/// owned by the buffer pool (or a stack buffer in tests).
class PageView {
 public:
  PageView(uint8_t* data, uint32_t page_size)
      : data_(data), page_size_(page_size) {}

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  uint32_t page_size() const { return page_size_; }

  PageId page_id() const {
    return DecodeFixed32(reinterpret_cast<const char*>(data_));
  }
  void set_page_id(PageId pid) {
    EncodeFixed32(reinterpret_cast<char*>(data_), pid);
  }

  Lsn plsn() const {
    return DecodeFixed64(reinterpret_cast<const char*>(data_ + 4));
  }
  void set_plsn(Lsn lsn) {
    EncodeFixed64(reinterpret_cast<char*>(data_ + 4), lsn);
  }

  PageType type() const { return static_cast<PageType>(data_[12]); }
  void set_type(PageType t) { data_[12] = static_cast<uint8_t>(t); }

  uint8_t level() const { return data_[13]; }
  void set_level(uint8_t lvl) { data_[13] = lvl; }

  uint16_t num_slots() const {
    return DecodeFixed16(reinterpret_cast<const char*>(data_ + 14));
  }
  void set_num_slots(uint16_t n) {
    EncodeFixed16(reinterpret_cast<char*>(data_ + 14), n);
  }

  PageId right_sibling() const {
    return DecodeFixed32(reinterpret_cast<const char*>(data_ + 16));
  }
  void set_right_sibling(PageId pid) {
    EncodeFixed32(reinterpret_cast<char*>(data_ + 16), pid);
  }

  uint32_t checksum() const {
    return DecodeFixed32(
        reinterpret_cast<const char*>(data_ + kPageChecksumOffset));
  }
  void set_checksum(uint32_t c) {
    EncodeFixed32(reinterpret_cast<char*>(data_ + kPageChecksumOffset), c);
  }

  /// Zero the page and initialize the header.
  void Format(PageId pid, PageType type, uint8_t level);

  uint8_t* payload() { return data_ + kPageHeaderSize; }
  const uint8_t* payload() const { return data_ + kPageHeaderSize; }
  uint32_t payload_size() const { return page_size_ - kPageHeaderSize; }

 private:
  uint8_t* data_;
  uint32_t page_size_;
};

/// CRC32C of the page bytes excluding the checksum slot, remapped so it is
/// never 0 (0 = "never stamped"). Allocation-free: two chained Crc32c calls
/// over the raw buffer — safe on the buffer-pool read-in hot path.
uint32_t ComputePageChecksum(const uint8_t* data, uint32_t page_size);

/// Stamp the checksum slot. Call immediately before a page image goes to
/// the stable device; a cached copy legitimately goes stale the moment the
/// page is re-dirtied, so in-memory frames carry no validity guarantee.
void StampPageChecksum(uint8_t* data, uint32_t page_size);

/// True when the stored checksum matches — or is the legacy 0 marker (page
/// image never stamped; see the format note above).
bool VerifyPageChecksum(const uint8_t* data, uint32_t page_size);

/// First word of the meta page's payload; the rest of page 0 is the
/// catalog (layout in storage/catalog.h).
inline constexpr uint32_t kMetaMagic = 0xDE07E401;

}  // namespace deutero
