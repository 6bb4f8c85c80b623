// Dirty page table (paper §3): entries (PID, rLSN, lastLSN). rLSN is a
// conservative lower bound on the LSN of the operation that first dirtied
// the page; lastLSN is the LSN (or LSN proxy, in logical DPT construction)
// of the last observed update and is only used while building the table.
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
    Lsn rlsn = kInvalidLsn;
    Lsn last_lsn = kInvalidLsn;
  };

  DirtyPageTable() { InitSlots(kInitialSlots); }

  /// Lookup; nullptr if absent (Algorithm 1 line 4 / Algorithm 5 line 6).
  const Entry* Find(PageId pid) const {
    size_t i = Bucket(pid);
    size_t dist = 0;
    while (true) {
      const Slot& s = slots_[i];
      if (s.pid == pid) return &s.entry;
      // Empty slot, or an element closer to its home than we are to ours:
      // the robin-hood invariant says `pid` cannot be further right.
      if (s.pid == kInvalidPageId || dist > DistanceFromHome(s.pid, i)) {
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
  /// lastLSN to `lsn`; later mentions only advance lastLSN. Returns whether
  /// this was a first mention (the PF-list's unit, App. A.2).
  bool AddOrUpdate(PageId pid, Lsn lsn) {
    auto [e, inserted] = FindOrInsert(pid);
    if (inserted) e->rlsn = lsn;
    e->last_lsn = lsn;
    return inserted;
  }

  /// Direct insert with distinct rLSN/lastLSN (perfect-DPT construction).
  void AddExact(PageId pid, Lsn rlsn, Lsn last_lsn) {
    auto [e, inserted] = FindOrInsert(pid);
    if (inserted || e->rlsn == kInvalidLsn) e->rlsn = rlsn;
    e->last_lsn = last_lsn;
  }

  /// Remove `pid`; returns whether it was present. Backward-shift deletion
  /// keeps probe chains dense (no tombstones to scan over later).
  bool Remove(PageId pid) {
    size_t i = Bucket(pid);
    size_t dist = 0;
    while (true) {
      Slot& s = slots_[i];
      if (s.pid == pid) break;
      if (s.pid == kInvalidPageId || dist > DistanceFromHome(s.pid, i)) {
        return false;
      }
      i = (i + 1) & mask_;
      dist++;
    }
    size_t next = (i + 1) & mask_;
    while (slots_[next].pid != kInvalidPageId &&
           DistanceFromHome(slots_[next].pid, next) > 0) {
      slots_[i] = slots_[next];
      i = next;
      next = (next + 1) & mask_;
    }
    slots_[i] = Slot{};
    size_--;
    return true;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void Clear() {
    slots_.assign(slots_.size(), Slot{});
    size_ = 0;
  }

  /// Visit every (pid, entry) pair, unordered.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Slot& s : slots_) {
      if (s.pid != kInvalidPageId) fn(s.pid, s.entry);
    }
  }

  size_t slot_count() const { return slots_.size(); }

 private:
  static constexpr size_t kInitialSlots = 64;

  struct Slot {
    PageId pid = kInvalidPageId;  ///< kInvalidPageId marks an empty slot.
    Entry entry;
  };

  void InitSlots(size_t slots) {
    slots_.assign(slots, Slot{});
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
    std::vector<Slot> old = std::move(slots_);
    InitSlots(old.size() * 2);
    size_ = 0;
    for (const Slot& s : old) {
      if (s.pid != kInvalidPageId) *FindOrInsert(s.pid).first = s.entry;
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
    PageId cur_pid = pid;
    Entry cur_entry;
    Entry* result = nullptr;
    while (true) {
      Slot& s = slots_[i];
      if (s.pid == kInvalidPageId) {
        s.pid = cur_pid;
        s.entry = cur_entry;
        size_++;
        return {result != nullptr ? result : &s.entry, true};
      }
      if (s.pid == cur_pid) {
        // Only reachable for the original key (displaced residents are
        // unique): the entry already exists.
        return {&s.entry, false};
      }
      const size_t s_dist = DistanceFromHome(s.pid, i);
      if (s_dist < dist) {
        // Rob the rich: displace the closer-to-home resident and continue
        // inserting it instead. The original key's final slot is fixed at
        // the first displacement.
        std::swap(s.pid, cur_pid);
        std::swap(s.entry, cur_entry);
        if (result == nullptr) result = &s.entry;
        dist = s_dist;
      }
      i = (i + 1) & mask_;
      dist++;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  unsigned shift_ = 0;
  size_t size_ = 0;
};

}  // namespace deutero
