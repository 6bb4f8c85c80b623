// Data-page prefetchers (paper Appendix A.2). Both keep a bounded window of
// outstanding asynchronous reads ahead of the redo cursor and re-check DPT
// membership at issue time. Redo's dispatcher pumps them at every
// partition count, under the pass's pool gate (redo.h).
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
//    names each DPT page once, then the log's tail. Redo handles the
//    records at or after the last Δ-record's TC-LSN with the basic
//    algorithm (§4.3): it fetches every page they update, and the DPT
//    names only the pages a Δ-record saw. The DC pass lists the others
//    (DcRecoveryResult::tail_pages, analysis.h), each once, in the order
//    the tail first updates them, and BuildPfList appends them: redo
//    claims the DPT pages before the tail and the tail's pages in that
//    order. Unlisted, each was a one-page demand read at a full seek that
//    no span could carry: 49.8 per Log2 recovery on bench/e2e's
//    zipf_resident (seed 1), all of its demand reads there.
//  * LogDrivenPrefetcher (SQL recovery): candidates come from scanning the
//    log ahead of the redo cursor, issuing pages whose DPT entry passes the
//    rLSN test. A page may be issued again if it was evicted meanwhile —
//    the paper notes this as the scheme's disadvantage.
//
// Span read-ahead. The drive reads up to max_batch_pages pids as one I/O
// (App. A), but a pump tops its window up one or two pages at a time, so
// the pool is almost never handed a batch. The prefetchers therefore grow
// every page a pump picks, the *head*, into its *span*: up to
// max_batch_pages pids around it, whose DPT pages that are neither cached
// nor pending join the head's read as *riders*. The pool reads the span in
// one I/O and drops the gap pages between its riders (BufferPool::Prefetch;
// SimDisk's gap rule says when reading through a gap beats a second seek).
// Riders are pages redo fetches anyway (DPT members: never a gap page, a
// pruned entry or a freed pid), so recovery reads the same pages with fewer
// seeks. Spans replace pid-contiguous DPT runs, which stopped at the
// first clean pid: on bench/e2e's zipf_resident (seed 1) Log2 read about
// 1.4 pages per I/O that way, 1,257 pages in 909 I/Os, while a 1-to-6-page
// gap costs 0.12 to 0.72 ms of transfer against a 3.75 ms sorted seek.
//
// Heads and riders are bounded apart. Heads keep the claim-paced window:
// a slot frees only when redo claims its page, which holds read-ahead to
// redo's pace. Riders reach the cache out of redo's order, so holding them
// in those slots until claimed would clog the window with pages redo needs
// much later; a rider instead leaves its own bound, capacity / 8, as soon
// as its I/O lands. A rider also fills only a frame that holds no page,
// beyond a margin of window + rider bound unused frames. So a rider never
// costs an eviction, read-ahead can never exhaust the pool, and when the
// pool fills up, the riders already read have been claimed rather than
// being the first pages evicted. Tail pages are wanted pages like DPT
// pages: one rides in any span that passes over it. As a head, a tail page
// follows the riders' rule: it goes out only into a frame that holds no
// page, beyond the same margin, or the pump skips it and redo reads it on
// demand. A DPT head may evict (the window holds it to redo's pace), but
// the tail is listed whatever the pool holds: in a pool the DPT
// over-commits, unguarded tail heads evicted pages and were evicted unused
// in turn. On bench/e2e's fig2a_uniform (seed 1, 819 frames) they took
// Log2's wasted prefetches per recovery from 26 to 37 and its recovery
// 1.6 % slower. The guard is a property of the pool at pump time, not of
// a workload. The log-driven prefetcher also keeps heads
// plus riders in flight within its lookahead, the most pages its log
// read-ahead could name; at the default lookahead (8 x window) that caps
// its riders at 7 x window.
//
// The bound once had a (max_batch_pages - 1) x window term as well, the
// most riders pid-contiguous runs could add. Spans made it bind: on
// zipf_resident (seed 1, window 32) all 224 of its slots held riders whose
// I/O had not landed in 284 to 332 of the 644 to 671 issues of each Log2
// recovery, so each of those heads went out alone and paid a full seek.
// Without the term Log2 recovers there in 2,375 sim ms instead of 3,274.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
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
  /// head into its span (see the header comment); without one it issues
  /// the heads alone. `max_pages` caps heads plus riders in flight. `tail`
  /// names wanted pages the DPT does not (the log's tail): they ride in
  /// spans as DPT pages do.
  PrefetchWindow(BufferPool* pool, uint32_t window,
                 const DirtyPageTable* dpt = nullptr,
                 uint32_t max_pages = UINT32_MAX,
                 std::span<const PageId> tail = {});

  /// Remove heads that redo claimed (or that were evicted). After 64
  /// stalled pumps, counting only those after which the clock moved, free
  /// the oldest head too: the escape hatch.
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

  /// How many more pages a batch of `heads` heads may take into frames
  /// that hold no page, beyond a margin of window + rider bound: the room
  /// of its riders, and of a tail page as a head.
  uint64_t RoomBeyondMargin(size_t heads) const;

 private:
  /// Append to batch_ the riders of the heads in batch_[0, heads).
  void AddRiders(size_t heads);
  /// True if `pid` is a DPT or tail page, neither cached nor pending, and
  /// outside every span formed so far by this Issue.
  bool CanRide(PageId pid) const;

  BufferPool* pool_;
  uint32_t window_;
  const DirtyPageTable* dpt_;
  uint32_t rider_bound_;
  std::vector<PageId> tail_;  ///< Sorted, for CanRide's lookup.
  std::vector<PageId> inflight_;
  std::vector<PageId> riders_;
  // Issue() scratch, reserved up front so a pump never allocates.
  std::vector<PageId> batch_;                    ///< Heads, then riders.
  std::vector<std::pair<PageId, PageId>> runs_;  ///< Each head's span.
  uint32_t stalled_pumps_ = 0;
  double last_drain_ms_ = -1;  ///< The clock at the last Drain.
};

/// The PF-list in claim order: every page of `dpt`, sorted by (rLSN,
/// claim stamp), then the `tail` pages (DcRecoveryResult::tail_pages) as
/// they are. Allocates only the list: the sort reads its keys from the
/// DPT.
std::vector<PageId> BuildPfList(const DirtyPageTable& dpt,
                                std::span<const PageId> tail = {});

class PfListPrefetcher {
 public:
  /// `pf_list` (BuildPfList) must outlive the prefetcher. Its entries
  /// before `tail_begin` are DPT pages, skipped once the DPT no longer
  /// names them; those from `tail_begin` on are tail pages, issued as
  /// heads only where RoomBeyondMargin allows (see the header comment).
  PfListPrefetcher(BufferPool* pool, const DirtyPageTable* dpt,
                   const std::vector<PageId>* pf_list, uint32_t window,
                   size_t tail_begin = SIZE_MAX);

  /// Called before each redo step: keep the window full.
  void Pump();

  const PrefetchWindow& window() const { return window_; }

 private:
  PrefetchWindow window_;
  const DirtyPageTable* dpt_;
  const std::vector<PageId>* pf_list_;
  size_t tail_begin_;
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
