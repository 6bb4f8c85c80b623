#include "recovery/prefetch.h"

#include <algorithm>
#include <tuple>

namespace deutero {

namespace {

/// The tail part of a PF-list: its entries from `tail_begin` on.
std::span<const PageId> TailOf(const std::vector<PageId>* pf_list,
                               size_t tail_begin) {
  if (pf_list == nullptr || tail_begin >= pf_list->size()) return {};
  return std::span<const PageId>(*pf_list).subspan(tail_begin);
}

}  // namespace

std::vector<PageId> BuildPfList(const DirtyPageTable& dpt,
                                std::span<const PageId> tail) {
  std::vector<PageId> list;
  list.reserve(dpt.size() + tail.size());
  dpt.ForEach([&](PageId pid, const DirtyPageTable::Entry&) {
    list.push_back(pid);
  });
  // The pid breaks ties (a DC-pass DPT has none: each stamp names a
  // distinct DirtySet entry), so the order does not depend on ForEach's.
  std::sort(list.begin(), list.end(), [&](PageId a, PageId b) {
    const DirtyPageTable::Entry* ea = dpt.Find(a);
    const DirtyPageTable::Entry* eb = dpt.Find(b);
    return std::tie(ea->rlsn, ea->claim_seq, a) <
           std::tie(eb->rlsn, eb->claim_seq, b);
  });
  list.insert(list.end(), tail.begin(), tail.end());
  return list;
}

PrefetchWindow::PrefetchWindow(BufferPool* pool, uint32_t window,
                               const DirtyPageTable* dpt, uint32_t max_pages,
                               std::span<const PageId> tail)
    : pool_(pool),
      window_(window),
      dpt_(dpt),
      rider_bound_(dpt == nullptr || max_pages <= window
                       ? 0
                       : static_cast<uint32_t>(
                             std::min<uint64_t>(pool->capacity() / 8,
                                                max_pages - window))),
      tail_(tail.begin(), tail.end()) {
  std::sort(tail_.begin(), tail_.end());
  // Bounded by the window and the rider bound: never reallocates.
  inflight_.reserve(window);
  riders_.reserve(rider_bound_);
  batch_.reserve(window + rider_bound_);
  if (dpt != nullptr) runs_.reserve(window);
}

void PrefetchWindow::Drain() {
  const size_t before = inflight_.size();
  inflight_.erase(
      std::remove_if(inflight_.begin(), inflight_.end(),
                     [this](PageId pid) {
                       // Loaded means a demand Get claimed the page (or an
                       // eviction materialized it); not-resident means it was
                       // evicted. Either way the slot is free. Budget is
                       // deliberately tied to CONSUMPTION, not to I/O
                       // completion: this keeps the read-ahead moving at
                       // redo's pace instead of flooding the cache (the
                       // paper's "prefetching proceeds too quickly" hazard).
                       return !pool_->IsResidentOrPending(pid) ||
                              pool_->IsLoaded(pid);
                     }),
      inflight_.end());
  // Escape hatch: a prefetched page that redo never claims (every one of
  // its log records failed the rLSN test) would otherwise occupy a window
  // slot forever in a cache with no eviction pressure.
  if (inflight_.size() == before && budget() == 0) {
    if (++stalled_pumps_ > 64 && !inflight_.empty()) {
      inflight_.erase(inflight_.begin());
      stalled_pumps_ = 0;
    }
  } else {
    stalled_pumps_ = 0;
  }
}

void PrefetchWindow::Issue(const std::vector<PageId>& heads) {
  if (heads.empty()) return;
  batch_.assign(heads.begin(), heads.end());
  if (dpt_ != nullptr) AddRiders(heads.size());
  pool_->Prefetch(batch_, PageClass::kData);
  for (size_t k = 0; k < batch_.size(); k++) {
    const PageId pid = batch_[k];
    if (!pool_->IsResidentOrPending(pid)) continue;  // not issued
    if (k < heads.size()) {
      if (!pool_->IsLoaded(pid)) inflight_.push_back(pid);
    } else if (!pool_->HasArrived(pid)) {
      riders_.push_back(pid);
    }
  }
}

uint64_t PrefetchWindow::RoomBeyondMargin(size_t heads) const {
  // Only frames that hold no page, and only those the heads leave over:
  // the whole batch then fits without a single eviction. A margin of
  // window + rider bound frames, the most pages the read-ahead keeps in
  // flight, also stays unused: once riders stop, later heads fill that
  // margin while redo claims the riders already read, rather than
  // evicting them unclaimed as soon as the pool is full.
  const uint64_t unused = pool_->unused_frames();
  const uint64_t keep = heads + window_ + rider_bound_;
  return unused > keep ? unused - keep : 0;
}

void PrefetchWindow::AddRiders(size_t heads) {
  uint64_t room = RoomBeyondMargin(heads);
  if (room == 0) return;
  // A rider's slot frees when its I/O lands, claimed or not (see the
  // header comment), so riders need no escape hatch. Only the room here
  // reads the rider count, so landed riders leave here rather than on
  // every Drain.
  riders_.erase(std::remove_if(riders_.begin(), riders_.end(),
                               [this](PageId pid) {
                                 return !pool_->IsResidentOrPending(pid) ||
                                        pool_->HasArrived(pid);
                               }),
                riders_.end());
  room = std::min<uint64_t>(room, rider_bound_ - riders_.size());
  if (room == 0) return;
  runs_.clear();
  for (size_t k = 0; k < heads; k++) runs_.emplace_back(batch_[k], batch_[k]);
  const uint32_t cap = pool_->max_batch_pages();
  const uint32_t gap = pool_->max_read_gap();
  for (auto& [lo, hi] : runs_) {
    // Up from the head, then down: every page of its span that can ride,
    // reading through the gaps between them.
    for (PageId pid = hi + 1; room > 0 && pid - lo < cap && pid - hi - 1 <= gap;
         pid++) {
      if (CanRide(pid)) {
        batch_.push_back(hi = pid);
        room--;
      }
    }
    for (PageId pid = lo; room > 0 && pid > 0;) {
      pid--;
      if (hi - pid >= cap || lo - pid - 1 > gap) break;
      if (CanRide(pid)) {
        batch_.push_back(lo = pid);
        room--;
      }
    }
  }
}

bool PrefetchWindow::CanRide(PageId pid) const {
  if (pid == kInvalidPageId) return false;
  for (const auto& [lo, hi] : runs_) {
    if (pid >= lo && pid <= hi) return false;
  }
  const bool wanted = dpt_->Find(pid) != nullptr ||
                      std::binary_search(tail_.begin(), tail_.end(), pid);
  return wanted && !pool_->IsResidentOrPending(pid);
}

PfListPrefetcher::PfListPrefetcher(BufferPool* pool,
                                   const DirtyPageTable* dpt,
                                   const std::vector<PageId>* pf_list,
                                   uint32_t window, size_t tail_begin)
    : window_(pool, window, dpt, UINT32_MAX, TailOf(pf_list, tail_begin)),
      dpt_(dpt),
      pf_list_(pf_list),
      tail_begin_(tail_begin) {}

void PfListPrefetcher::Pump() {
  window_.Drain();
  uint32_t budget = window_.budget();
  if (budget == 0 || pf_list_ == nullptr) return;
  std::vector<PageId>& batch = batch_;  // member scratch: 0 allocs/pump
  batch.clear();
  while (budget > 0 && cursor_ < pf_list_->size()) {
    const bool tail = cursor_ >= tail_begin_;
    const PageId pid = (*pf_list_)[cursor_++];
    // A DPT page is fetched only while the DPT names it: a page outside it
    // never needs redo.
    if (!tail && dpt_->Find(pid) == nullptr) continue;
    if (window_.pool()->IsResidentOrPending(pid)) continue;
    // A tail page goes out as a head only where a rider could: redo reads
    // it on demand otherwise (see the header comment).
    if (tail && window_.RoomBeyondMargin(batch.size()) == 0) continue;
    batch.push_back(pid);
    budget--;
  }
  window_.Issue(batch);
}

void LogDrivenPrefetcher::Pump(uint64_t redo_records_consumed) {
  window_.Drain();
  uint32_t budget = window_.budget();
  if (budget == 0) return;
  std::vector<PageId>& batch = batch_;  // member scratch: 0 allocs/pump
  batch.clear();
  while (budget > 0 && ahead_.Valid() &&
         ahead_consumed_ < redo_records_consumed + lookahead_records_) {
    const LogRecordView& rec = ahead_.record();
    ahead_consumed_++;
    if (rec.IsRedoableDataOp()) {
      const DirtyPageTable::Entry* e = dpt_->Find(rec.pid);
      // Issue only if the DPT says this record might need redo.
      if (e != nullptr && rec.lsn >= e->rlsn &&
          !window_.pool()->IsResidentOrPending(rec.pid)) {
        batch.push_back(rec.pid);
        budget--;
      }
    }
    ahead_.Next();
  }
  window_.Issue(batch);
}

}  // namespace deutero
