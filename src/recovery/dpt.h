// Dirty page table (paper §3): entries (PID, rLSN, lastLSN). rLSN is a
// conservative lower bound on the LSN of the operation that first dirtied
// the page; lastLSN is the LSN (or LSN proxy, in logical DPT construction)
// of the last observed update and is only used while building the table.
// The logical DC pass also stamps each entry with the scan sequence number
// of the DirtySet entry that set its rLSN (claim_seq): the PF-list is the
// table sorted by (rLSN, claim_seq), the order redo claims the pages in
// (prefetch.h). The stamp sits in the 4 bytes after the 32-bit pid key,
// so a slot stays 24 bytes.
//
// Storage: an open-addressed robin-hood table (the buffer-pool PageTable
// design, storage/page_table.h) instead of unordered_map. Every redo record
// performs a Find here, so lookups scan a contiguous array of slots rather
// than chasing node pointers. Unlike the pool's table the entry count is
// not known up front (it is bounded by the dirty-page count discovered
// during analysis), so this table grows by doubling at 50% load — O(1)
// amortized, a handful of allocations per recovery instead of one per node.
//
// Pointer stability: an Entry* returned by Find() is invalidated by ANY
// subsequent AddOrUpdate/AddExact/Remove (robin-hood displacement,
// backward-shift deletion, growth). Use it immediately; never cache it.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"

namespace deutero {

class DirtyPageTable {
 public:
  struct Entry {
   private:
    friend class DirtyPageTable;
    // The key leads the slot: with it at the end, SQL analysis (insert and
    // probe heavy) ran about 50 % slower.
    PageId pid_ = kInvalidPageId;  ///< The slot's key; invalid = empty.

   public:
    uint32_t claim_seq = 0;  ///< DC pass: DirtySet entry that set rLSN.
    Lsn rlsn = kInvalidLsn;
    Lsn last_lsn = kInvalidLsn;
  };

  DirtyPageTable() { InitSlots(kInitialSlots); }

  /// Lookup; nullptr if absent (Algorithm 1 line 4 / Algorithm 5 line 6).
  const Entry* Find(PageId pid) const {
    size_t i = Bucket(pid);
    size_t dist = 0;
    while (true) {
      const Entry& s = slots_[i];
      if (s.pid_ == pid) return &s;
      // Empty slot, or an element closer to its home than we are to ours:
      // the robin-hood invariant says `pid` cannot be further right.
      if (s.pid_ == kInvalidPageId || dist > DistanceFromHome(s.pid_, i)) {
        return nullptr;
      }
      i = (i + 1) & mask_;
      dist++;
    }
  }
  Entry* Find(PageId pid) {
    return const_cast<Entry*>(
        static_cast<const DirtyPageTable*>(this)->Find(pid));
  }

  /// ADDENTRY semantics of Algorithms 3 and 4: first mention sets rLSN and
  /// lastLSN to `lsn` and stamps `claim_seq`; later mentions only advance
  /// lastLSN.
  void AddOrUpdate(PageId pid, Lsn lsn, uint32_t claim_seq = 0) {
    auto [e, inserted] = FindOrInsert(pid);
    if (inserted) {
      e->rlsn = lsn;
      e->claim_seq = claim_seq;
    }
    e->last_lsn = lsn;
  }

  /// Direct insert with distinct rLSN/lastLSN (checkpoint seeds, redo's
  /// shard splits).
  void AddExact(PageId pid, Lsn rlsn, Lsn last_lsn, uint32_t claim_seq = 0) {
    auto [e, inserted] = FindOrInsert(pid);
    if (inserted || e->rlsn == kInvalidLsn) {
      e->rlsn = rlsn;
      e->claim_seq = claim_seq;
    }
    e->last_lsn = last_lsn;
  }

  /// Remove `pid`; returns whether it was present. Backward-shift deletion
  /// keeps probe chains dense (no tombstones to scan over later).
  bool Remove(PageId pid) {
    size_t i = Bucket(pid);
    size_t dist = 0;
    while (true) {
      const Entry& s = slots_[i];
      if (s.pid_ == pid) break;
      if (s.pid_ == kInvalidPageId || dist > DistanceFromHome(s.pid_, i)) {
        return false;
      }
      i = (i + 1) & mask_;
      dist++;
    }
    size_t next = (i + 1) & mask_;
    while (slots_[next].pid_ != kInvalidPageId &&
           DistanceFromHome(slots_[next].pid_, next) > 0) {
      slots_[i] = slots_[next];
      i = next;
      next = (next + 1) & mask_;
    }
    slots_[i] = Entry{};
    size_--;
    return true;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void Clear() {
    slots_.assign(slots_.size(), Entry{});
    size_ = 0;
  }

  /// Visit every (pid, entry) pair, unordered.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Entry& s : slots_) {
      if (s.pid_ != kInvalidPageId) fn(s.pid_, s);
    }
  }

  size_t slot_count() const { return slots_.size(); }

 private:
  static constexpr size_t kInitialSlots = 64;

  void InitSlots(size_t slots) {
    slots_.assign(slots, Entry{});
    mask_ = slots - 1;
    // Fibonacci hashing: the multiply spreads dense PID ranges, the shift
    // keeps exactly log2(slots) high-quality bits.
    shift_ = 64;
    while (slots > 1) {
      shift_--;
      slots >>= 1;
    }
  }

  size_t Bucket(PageId pid) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(pid) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  size_t DistanceFromHome(PageId pid, size_t at) const {
    return (at - Bucket(pid)) & mask_;
  }

  void Grow() {
    std::vector<Entry> old = std::move(slots_);
    InitSlots(old.size() * 2);
    size_ = 0;
    for (const Entry& s : old) {
      if (s.pid_ != kInvalidPageId) *FindOrInsert(s.pid_).first = s;
    }
  }

  /// Find `pid`'s entry, inserting a default one if absent; second is true
  /// when the entry was newly inserted. Robin-hood insertion; grows at 50%
  /// load.
  std::pair<Entry*, bool> FindOrInsert(PageId pid) {
    assert(pid != kInvalidPageId);
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    size_t i = Bucket(pid);
    size_t dist = 0;
    Entry cur;
    cur.pid_ = pid;
    Entry* result = nullptr;
    while (true) {
      Entry& s = slots_[i];
      if (s.pid_ == kInvalidPageId) {
        s = cur;
        size_++;
        return {result != nullptr ? result : &s, true};
      }
      if (s.pid_ == cur.pid_) {
        // Only reachable for the original key (displaced residents are
        // unique): the entry already exists.
        return {&s, false};
      }
      const size_t s_dist = DistanceFromHome(s.pid_, i);
      if (s_dist < dist) {
        // Rob the rich: displace the closer-to-home resident and continue
        // inserting it instead. The original key's final slot is fixed at
        // the first displacement.
        std::swap(s, cur);
        if (result == nullptr) result = &s;
        dist = s_dist;
      }
      i = (i + 1) & mask_;
      dist++;
    }
  }

  static_assert(sizeof(Entry) == 24, "the redo-hot slot grew");
  std::vector<Entry> slots_;
  size_t mask_ = 0;
  unsigned shift_ = 0;
  size_t size_ = 0;
};

}  // namespace deutero
