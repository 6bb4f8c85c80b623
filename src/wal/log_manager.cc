#include "wal/log_manager.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>

#include "common/coding.h"
#include "common/crc32.h"

namespace deutero {

LogManager::LogManager(SimClock* clock, uint32_t log_page_size,
                       double log_page_read_ms)
    : clock_(clock),
      log_page_size_(log_page_size),
      log_page_read_ms_(log_page_read_ms) {
  MutexLock lk(&grow_mu_);
  Reallocate(kFirstLsn);
  raw()[0] = '\0';  // offset 0 pad
  ResetCursors(kFirstLsn);
}

LogManager::~LogManager() { std::free(raw()); }

void LogManager::Reallocate(uint64_t capacity) {
  char* base = static_cast<char*>(std::realloc(raw(), capacity));
  if (base == nullptr) throw std::bad_alloc();
  // Outstanding zero-copy views may dangle if the storage moved.
  generation_.fetch_add(1, std::memory_order_release);
  base_.store(base, std::memory_order_release);
  capacity_.store(capacity, std::memory_order_release);
}

void LogManager::ResetCursors(Lsn end) {
  reserved_end_.store(end, std::memory_order_release);
  stable_end_.store(end, std::memory_order_release);
  filled_mark_.store(end, std::memory_order_release);
  for (auto& s : inflight_) s.store(kSlotFree, std::memory_order_release);
}

uint32_t LogManager::ClaimSlot() {
  for (;;) {
    for (uint32_t i = 0; i < kInflightSlots; i++) {
      uint64_t expected = kSlotFree;
      // Conservative claim: the cursor's CURRENT value lower-bounds the
      // window this thread is about to fetch-add, so a concurrent
      // filled_through() between the claim and the fetch-add still sees a
      // floor at or below the new window's start. (Both this CAS and the
      // reads in filled_through() are seq_cst: a scanner that observes the
      // advanced cursor is ordered after this store and must see the claim.)
      if (inflight_[i].compare_exchange_strong(
              expected, reserved_end_.load(std::memory_order_seq_cst),
              std::memory_order_seq_cst)) {
        return i;
      }
    }
    std::this_thread::yield();
  }
}

void LogManager::EnterFill() {
  for (;;) {
    fillers_.fetch_add(1, std::memory_order_seq_cst);
    if (!growth_pending_.load(std::memory_order_seq_cst)) return;
    // A grower is quiescing encoders: back out and wait for it to finish.
    if (fillers_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      MutexLock lk(&grow_mu_);
      grow_cv_.NotifyAll();
    }
    MutexLock lk(&grow_mu_);
    grow_cv_.Wait(&grow_mu_, [&] {
      return !growth_pending_.load(std::memory_order_seq_cst);
    });
  }
}

void LogManager::ExitFill() {
  if (fillers_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
      growth_pending_.load(std::memory_order_seq_cst)) {
    MutexLock lk(&grow_mu_);
    grow_cv_.NotifyAll();
  }
}

void LogManager::EnsureCapacity(uint64_t end) {
  if (end <= capacity_.load(std::memory_order_acquire)) return;
  MutexLock lk(&grow_mu_);
  // One grower at a time. The quiesce wait below releases grow_mu_, so a
  // second grower could enter beside the first, and after the first
  // unparked the encoders, resize again under them. It waits the first one
  // out instead, then re-checks: the first may have grown past `end`.
  grow_cv_.Wait(&grow_mu_, [&] {
    return !growth_pending_.load(std::memory_order_seq_cst);
  });
  if (end <= capacity_.load(std::memory_order_acquire)) return;
  // Quiesce: new encoders park in EnterFill, in-flight ones drain (they
  // never block while holding the fill token, so this terminates). Parked
  // reservations do NOT hold the token — a thread stalled between Reserve
  // and Publish cannot deadlock growth; its later Publish encodes into the
  // new storage.
  growth_pending_.store(true, std::memory_order_seq_cst);
  grow_cv_.Wait(&grow_mu_, [&] {
    return fillers_.load(std::memory_order_seq_cst) == 0;
  });
  Reallocate(std::max({end, capacity_.load(std::memory_order_relaxed) * 2,
                       uint64_t{4096}}));
  growth_pending_.store(false, std::memory_order_seq_cst);
  grow_cv_.NotifyAll();
}

LogManager::Reservation LogManager::Reserve(LogRecordType type,
                                            uint32_t payload_len) {
  const uint64_t total = kFrameSize + uint64_t{payload_len};
  Reservation r;
  r.type = type;
  r.payload_len = payload_len;
  r.slot = ClaimSlot();
  r.lsn = reserved_end_.fetch_add(total, std::memory_order_seq_cst);
  // Tighten the conservative claim to the actual window start. (Monotone:
  // the claimed floor was <= r.lsn, so the filled mark never regresses.)
  inflight_[r.slot].store(r.lsn, std::memory_order_seq_cst);
  EnsureCapacity(r.lsn + total);
  return r;
}

void LogManager::Publish(const Reservation& r, const char* payload) {
  EnterFill();
  char* dst = raw() + r.lsn;
  EncodeFixed32(dst, r.payload_len);
  dst[4] = static_cast<char>(r.type);
  uint32_t crc = Crc32c(dst + 4, 1);  // covers type byte + payload
  if (r.payload_len > 0) {
    crc = Crc32c(payload, r.payload_len, crc);
    std::memcpy(dst + kFrameSize, payload, r.payload_len);
  }
  EncodeFixed32(dst + 5, crc);
  ExitFill();
  // Retire the reservation: the filled mark may now pass this window.
  inflight_[r.slot].store(kSlotFree, std::memory_order_seq_cst);
  NoteAppendStats(r.type, r.payload_len);
}

void LogManager::NoteAppendStats(LogRecordType type, uint32_t payload_len) {
  MutexLock lk(&stats_mu_);
  stats_.records_appended++;
  stats_.bytes_appended += kFrameSize + payload_len;
  stats_.by_type[static_cast<size_t>(type)]++;
  if (type == LogRecordType::kDeltaRecord) {
    stats_.delta_bytes += payload_len;
  } else if (type == LogRecordType::kBwRecord) {
    stats_.bw_bytes += payload_len;
  }
}

Lsn LogManager::Append(const LogRecord& rec, Lsn* end_lsn) {
  assert(rec.type != LogRecordType::kInvalid);
  // PayloadSizeHint() is only an upper bound, but the reserved window must
  // be exact (the next record starts right behind it) — encode to a
  // reusable per-thread scratch first, then claim exactly that many bytes.
  thread_local std::string scratch;
  scratch.clear();
  rec.EncodePayloadTo(&scratch);
  const Reservation r =
      Reserve(rec.type, static_cast<uint32_t>(scratch.size()));
  Publish(r, scratch.data());
  if (end_lsn != nullptr) *end_lsn = r.lsn + kFrameSize + r.payload_len;
  return r.lsn;
}

Lsn LogManager::filled_through() const {
  // Read the cursor FIRST: if this load observes a window's fetch-add, the
  // seq_cst total order puts the (program-order earlier) conservative slot
  // claim before it, so the slot scan below cannot miss that window.
  uint64_t low = reserved_end_.load(std::memory_order_seq_cst);
  for (const auto& s : inflight_) {
    const uint64_t v = s.load(std::memory_order_seq_cst);
    if (v < low) low = v;
  }
  // A slot claimed from a cursor value read before later windows filled
  // can hold a floor below one already returned, until its claimant
  // tightens it. Its window still starts past that earlier result (the
  // scan that returned it could not see the claim, so the claimant's
  // fetch-add came after that scan's cursor read), so every result is a
  // valid floor and the mark only moves forward.
  Lsn mark = filled_mark_.load(std::memory_order_seq_cst);
  while (mark < low && !filled_mark_.compare_exchange_weak(
                           mark, low, std::memory_order_seq_cst)) {
  }
  return std::max(mark, low);
}

bool LogManager::Flush() {
  const Lsn filled = filled_through();
  Lsn cur = stable_end_.load(std::memory_order_acquire);
  bool advanced = false;
  while (cur < filled) {
    if (stable_end_.compare_exchange_weak(cur, filled,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      advanced = true;
      break;
    }
  }
  if (advanced) {
    MutexLock lk(&stats_mu_);
    stats_.flushes++;
  }
  return advanced;
}

void LogManager::AppendShipped(Slice raw_bytes) {
  if (raw_bytes.empty()) return;
  const uint32_t slot = ClaimSlot();
  const Lsn lsn =
      reserved_end_.fetch_add(raw_bytes.size(), std::memory_order_seq_cst);
  inflight_[slot].store(lsn, std::memory_order_seq_cst);
  EnsureCapacity(lsn + raw_bytes.size());
  EnterFill();
  std::memcpy(raw() + lsn, raw_bytes.data(), raw_bytes.size());
  ExitFill();
  inflight_[slot].store(kSlotFree, std::memory_order_seq_cst);
  // Shipped bytes are already durable on the channel: stable immediately.
  // (A mirror appends serially, so the filled mark covers this chunk.)
  const Lsn filled = filled_through();
  Lsn cur = stable_end_.load(std::memory_order_acquire);
  while (cur < filled &&
         !stable_end_.compare_exchange_weak(cur, filled,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
  }
  MutexLock lk(&stats_mu_);
  stats_.bytes_appended += raw_bytes.size();
}

Status LogManager::ViewRecordAt(Lsn lsn, LogRecordView* out) {
  LogRecordType type = LogRecordType::kInvalid;
  uint32_t len = 0;
  if (!ParseFrame(lsn, stable_end(), &type, &len)) {
    return Status::InvalidArgument("no valid stable record at lsn");
  }
  Slice payload(raw() + lsn + kFrameSize, len);
  DEUTERO_RETURN_NOT_OK(LogRecordView::DecodePayload(type, payload, out));
  out->lsn = lsn;
  return Status::OK();
}

void LogManager::Crash() {
  // Caller contract: no reservation in flight (appenders quiesced).
  assert(filled_through() == next_lsn());
  MutexLock lk(&grow_mu_);
  generation_.fetch_add(1, std::memory_order_release);
  ResetCursors(stable_end());
  device_end_ = stable_end();
}

bool LogManager::ParseFrame(Lsn lsn, Lsn limit, LogRecordType* type,
                            uint32_t* payload_len) const {
  if (lsn < kFirstLsn || lsn + kFrameSize > limit) return false;
  const char* base = raw();
  const uint32_t len = DecodeFixed32(base + lsn);
  if (lsn + kFrameSize + len > limit) return false;
  const uint32_t stored_crc = DecodeFixed32(base + lsn + 5);
  const uint32_t actual =
      Crc32c(base + lsn + kFrameSize, len, Crc32c(base + lsn + 4, 1));
  if (stored_crc != actual) return false;
  *type = static_cast<LogRecordType>(
      static_cast<unsigned char>(base[lsn + 4]));
  *payload_len = len;
  return true;
}

Status LogManager::ReadRecordAt(Lsn lsn, LogRecord* out, PageMemo* memo) {
  // Reads may target the volatile tail: runtime rollback follows backchains
  // into not-yet-flushed records (always published by then — undo runs with
  // the appender quiesced under the engine's write gate). After a Crash()
  // the tail is gone, so recovery-time reads are implicitly limited to
  // stable bytes.
  LogRecordType type = LogRecordType::kInvalid;
  uint32_t len = 0;
  if (!ParseFrame(lsn, next_lsn(), &type, &len)) {
    return Status::InvalidArgument("no valid record at lsn");
  }
  if (lsn < device_end_) {
    const int64_t page = static_cast<int64_t>(lsn / log_page_size_);
    if (memo == nullptr || memo->page != page) {
      clock_->AdvanceMs(log_page_read_ms_);
      if (memo != nullptr) {
        memo->page = page;
        memo->pages_charged++;
      }
    }
  }
  Slice payload(raw() + lsn + kFrameSize, len);
  DEUTERO_RETURN_NOT_OK(LogRecord::DecodePayload(type, payload, out));
  out->lsn = lsn;
  return Status::OK();
}

LogManager::Snapshot LogManager::TakeSnapshot() const {
  MutexLock lk(&grow_mu_);
  Snapshot snap;
  snap.stable_log.assign(raw(), stable_end());
  snap.master = master_;
  return snap;
}

void LogManager::RestoreSnapshot(const Snapshot& snap) {
  MutexLock lk(&grow_mu_);
  generation_.fetch_add(1, std::memory_order_release);
  const uint64_t end = snap.stable_log.size();
  if (end > capacity_.load(std::memory_order_relaxed)) Reallocate(end);
  std::memcpy(raw(), snap.stable_log.data(), end);
  master_ = snap.master;
  ResetCursors(end);
  device_end_ = stable_end();
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

LogManager::Iterator::Iterator(LogManager* log, Lsn start, bool charge_io)
    : log_(log), lsn_(start < kFirstLsn ? kFirstLsn : start),
      charge_io_(charge_io) {
  ParseCurrent();
}

void LogManager::Iterator::ChargePagesThrough(Lsn end_offset) {
  const int64_t last_page =
      static_cast<int64_t>((end_offset - 1) / log_->log_page_size_);
  while (last_charged_page_ < last_page) {
    last_charged_page_++;
    pages_read_++;
    // Counting is unconditional (callers that charge elsewhere — the
    // parallel redo dispatcher batches its clock touches — still need the
    // page count); only the clock charge is gated.
    if (charge_io_) log_->clock_->AdvanceMs(log_->log_page_read_ms_);
  }
}

void LogManager::Iterator::ParseCurrent() {
  valid_ = false;
  LogRecordType type = LogRecordType::kInvalid;
  uint32_t len = 0;
  // A frame that does not verify (truncated or corrupted) ends the scan:
  // the write-ahead discipline guarantees nothing after it is needed.
  if (!log_->ParseFrame(lsn_, log_->stable_end(), &type, &len)) return;
  const Lsn end = lsn_ + kFrameSize + len;
  if (last_charged_page_ < 0) {
    last_charged_page_ = static_cast<int64_t>(lsn_ / log_->log_page_size_) - 1;
  }
  ChargePagesThrough(end);
  Slice payload(log_->raw() + lsn_ + kFrameSize, len);
  // Zero-copy decode: rec_'s slices alias the log buffer, vectors reused.
  const Status st = LogRecordView::DecodePayload(type, payload, &rec_);
  if (!st.ok()) return;
  rec_.lsn = lsn_;
  payload_len_ = len;
  generation_ = log_->generation();
  valid_ = true;
}

void LogManager::Iterator::Next() {
  assert(valid_);
  const uint32_t len = DecodeFixed32(log_->raw() + lsn_);
  lsn_ += kFrameSize + len;
  ParseCurrent();
}

void LogManager::Iterator::Seek(Lsn lsn) {
  assert(lsn >= lsn_);
  lsn_ = lsn;
  last_charged_page_ =
      std::max(last_charged_page_,
               static_cast<int64_t>(lsn_ / log_->log_page_size_) - 1);
  ParseCurrent();
}

}  // namespace deutero
