// Data-page prefetchers (paper Appendix A.2). Both keep a bounded window of
// outstanding asynchronous reads ahead of the redo cursor and re-check DPT
// membership at issue time.
//
//  * PfListPrefetcher (logical recovery): candidates come from the PF-list
//    — "log-driven read-ahead using the PF-list instead of the log".
//    App. A.2 concatenates the Δ-record DirtySets in first-mention order.
//    BuildPfList lists the DC pass's final DPT in claim order instead: by
//    rLSN, then by the scan number of the DirtySet entry that set it (the
//    DPT's claim stamp, analysis.h). Redo claims a page at its first
//    record at or after its rLSN, and pages that share an rLSN in the
//    order their updates were logged, which is DirtySet order; so this is
//    the order redo asks for the pages. A page whose rLSN a later flush
//    raised (the checkpoint's RSSP flush, the lazy writer) sits at its
//    first mention in App. A.2's list, far ahead of its claim; there it
//    fills the claim-paced window (below) with pages redo needs much
//    later, and the pages redo needs next become demand reads. The list
//    names each DPT page once.
//  * LogDrivenPrefetcher (SQL recovery): candidates come from scanning the
//    log ahead of the redo cursor, issuing pages whose DPT entry passes the
//    rLSN test. A page may be issued again if it was evicted meanwhile —
//    the paper notes this as the scheme's disadvantage.
//
// DPT-run read-ahead. The drive reads a run of up to max_batch_pages
// pid-contiguous pages as one I/O (App. A), but a pump tops its window up
// one or two pages at a time, so the pool is almost never handed a run.
// The prefetchers therefore form runs from the DPT: every page a pump
// picks, the *head*, grows into the pid-contiguous pages around it that
// are in the DPT and neither cached nor pending, up to max_batch_pages
// pages per run. These *riders* are pages redo fetches anyway (DPT
// members: never a gap page, a pruned entry or a freed pid), so recovery
// reads the same pages with fewer seeks.
//
// Heads and riders are bounded apart. Heads keep the claim-paced window:
// a slot frees only when redo claims its page, which holds read-ahead to
// redo's pace. Riders reach the cache out of redo's order, so holding them
// in those slots until claimed would clog the window with pages redo needs
// much later; a rider instead leaves its own bound, (max_batch_pages - 1)
// x window, as soon as its I/O lands. Riders in flight also stay within
// capacity / 8, and a rider fills only a frame that holds no page, beyond
// a margin of window + rider bound unused frames. So a rider never costs
// an eviction, read-ahead can never exhaust the pool, and when the pool
// fills up, the riders already read have been claimed rather than being
// the first pages evicted. The log-driven prefetcher also keeps heads plus
// riders in flight within its lookahead, the most pages its log read-ahead
// could name; at the default lookahead (8 x window) that bound equals the
// rider bound.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "recovery/dpt.h"
#include "storage/buffer_pool.h"
#include "wal/log_manager.h"

namespace deutero {

/// Shared windowing logic: track in-flight prefetched pages and top the
/// window up from a candidate source.
class PrefetchWindow {
 public:
  /// `window` bounds the heads in flight. With a `dpt`, Issue() grows every
  /// head into its DPT run (see the header comment); without one it issues
  /// the heads alone. `max_pages` caps heads plus riders in flight.
  PrefetchWindow(BufferPool* pool, uint32_t window,
                 const DirtyPageTable* dpt = nullptr,
                 uint32_t max_pages = UINT32_MAX);

  /// Remove heads that redo claimed (or that were evicted).
  void Drain();

  /// Issue `heads` and, with a DPT, their riders, as one Prefetch call.
  void Issue(const std::vector<PageId>& heads);

  /// Heads issued and not yet claimed.
  uint32_t inflight() const { return static_cast<uint32_t>(inflight_.size()); }
  uint32_t budget() const {
    return inflight() >= window_ ? 0 : window_ - inflight();
  }
  /// Riders held against their bound, and that bound. Riders whose I/O
  /// has landed leave when Issue() next needs rider room.
  uint32_t riders_inflight() const {
    return static_cast<uint32_t>(riders_.size());
  }
  uint32_t rider_bound() const { return rider_bound_; }
  BufferPool* pool() { return pool_; }

 private:
  /// Append to batch_ the riders of the heads in batch_[0, heads).
  void AddRiders(size_t heads);
  /// True if `pid` is a DPT page, neither cached nor pending, and outside
  /// every run formed so far by this Issue.
  bool CanRide(PageId pid) const;

  BufferPool* pool_;
  uint32_t window_;
  const DirtyPageTable* dpt_;
  uint32_t rider_bound_;
  std::vector<PageId> inflight_;
  std::vector<PageId> riders_;
  // Issue() scratch, reserved up front so a pump never allocates.
  std::vector<PageId> batch_;                    ///< Heads, then riders.
  std::vector<std::pair<PageId, PageId>> runs_;  ///< Each head's [lo, hi].
  uint32_t stalled_pumps_ = 0;
};

/// The PF-list in claim order: every page of `dpt`, sorted by (rLSN,
/// claim stamp). Allocates only the list: the sort reads its keys from the
/// DPT.
std::vector<PageId> BuildPfList(const DirtyPageTable& dpt);

class PfListPrefetcher {
 public:
  /// `pf_list` (BuildPfList) must outlive the prefetcher; pages that are
  /// not in `dpt` are skipped.
  PfListPrefetcher(BufferPool* pool, const DirtyPageTable* dpt,
                   const std::vector<PageId>* pf_list, uint32_t window)
      : window_(pool, window, dpt), dpt_(dpt), pf_list_(pf_list) {}

  /// Called before each redo step: keep the window full.
  void Pump();

  const PrefetchWindow& window() const { return window_; }

 private:
  PrefetchWindow window_;
  const DirtyPageTable* dpt_;
  const std::vector<PageId>* pf_list_;
  size_t cursor_ = 0;
  std::vector<PageId> batch_;  ///< Scratch reused across Pump() calls.
};

class LogDrivenPrefetcher {
 public:
  /// `lookahead_records` bounds how far ahead of the redo cursor the log
  /// read-ahead may run (the paper's "certain number of log pages").
  LogDrivenPrefetcher(BufferPool* pool, const DirtyPageTable* dpt,
                      LogManager* log, Lsn start, uint32_t window,
                      uint32_t lookahead_records)
      : window_(pool, window, dpt, lookahead_records),
        dpt_(dpt),
        // The read-ahead shares the sequential log stream already charged to
        // the redo scan; it must not double-charge I/O.
        ahead_(log->NewIterator(start, /*charge_io=*/false)),
        lookahead_records_(lookahead_records) {}

  /// Called per redo step with the number of records the redo pass has
  /// consumed so far.
  void Pump(uint64_t redo_records_consumed);

  const PrefetchWindow& window() const { return window_; }

 private:
  PrefetchWindow window_;
  const DirtyPageTable* dpt_;
  LogManager::Iterator ahead_;
  uint32_t lookahead_records_;
  uint64_t ahead_consumed_ = 0;
  std::vector<PageId> batch_;  ///< Scratch reused across Pump() calls.
};

}  // namespace deutero
