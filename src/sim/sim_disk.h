// Deterministic simulated disk. Stores the stable page images and charges
// simulated time per I/O using a seek + transfer model:
//
//   single read (demand)   : random_seek_ms + transfer_ms_per_page
//   single read (prefetch) : random_seek_ms * sorted_seek_factor + transfer
//                            (pending asynchronous requests are elevator-
//                             sorted by the drive, shortening seeks)
//   contiguous run of n    : one positioning cost + n * transfer
//   write                  : write_seek_ms + transfer
//
// The gap rule. A run may span pages its caller does not want: rather than
// stop at one wanted page and position again for the next, a read can
// transfer the gap of unwanted pages between them. That pays while the
// gap's transfer costs less than the positioning it saves;
// MaxReadThroughGap() is the longest gap that does. Under the default
// model (5 ms seek x 0.75 sorted, 0.12 ms per page) a prefetch reads
// through up to 31 pages, so every gap inside an 8-page run pays.
//
// The device has `io_channels` independent service channels; a request is
// assigned to the earliest-free channel. Completion times are returned to the
// caller (the buffer pool), which either waits (synchronous miss) or records
// the pending completion (prefetch).
//
// DESIGN — crash model and faults. A scheduled write updates the stable
// image at schedule time: the content is what the controller acknowledged,
// and every later read must see it. What a CRASH leaves behind is a
// separate question, answered per the fault plan (common/options.h,
// executed by the owned FaultInjector):
//
//   * Plan inactive (default): every scheduled write is atomically stable —
//     the historical contract (the harness crashes at operation boundaries
//     after in-flight writes are accounted, DESIGN.md §5).
//   * Torn-write mode (torn_write_rate > 0): a triggered write is tracked
//     as in-flight in `torn_pending_` (pid -> the sector-granular torn
//     image: a prefix of the new content, the rest the previous stable
//     bytes). A later write of the same page destages and supersedes the
//     entry. At crash the engine calls ApplyCrashTears(), which installs
//     the torn images; a clean shutdown calls DrainInFlight(), which
//     discards them (the writes destaged). Reads between schedule and
//     crash still see the acknowledged content — the tear only exists on
//     the post-crash stable image. The surviving prefix always covers
//     sector 0 (the header: pLSN + checksum) and never the whole page, so
//     a tear is always CRC-detectable — see FaultInjector::NextTornWrite
//     for why a full revert would be an undetectable lost write.
//   * Transient read/write failures surface as Status::IOError from the
//     Schedule* calls. Device time is still charged (the arm moved); the
//     image is NOT updated on a failed write.
//   * Bit flips silently corrupt the stable image after a write is
//     acknowledged; only the page-checksum verify on a later read-in can
//     see them.
//
// WriteImageDirect / ReadImage are out-of-band administrative accesses
// (bulk load, catalog bootstrap, page repair write-back) and are never
// subject to faults. The WAL lives in LogManager, not here, so the fault
// plan covers data pages only — the log has its own per-record CRC.
//
// Snapshots share pages. The stable image is a DiskImage: one shared
// buffer per page. SnapshotImage() copies one pointer per page, and
// RestoreImage() shares the snapshot's pages back in. Every write path
// (ScheduleWrite, WriteImageDirect, ApplyCrashTears,
// CorruptStableByteForTest, MutableImageForTest) copies the one page it
// writes, and only while another image still holds that page; a page no
// snapshot holds is written in place. So an ImageData() pointer is valid
// until that page's next write, and a snapshot never sees a later write.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/options.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/clock.h"
#include "sim/fault_injector.h"

namespace deutero {

/// A stable image of a SimDisk, one shared buffer per page (see the header
/// comment). Copies share every page; the device copies a page before it
/// writes it while another image holds it, so an image never changes.
class DiskImage {
 public:
  uint64_t num_pages() const { return pages_.size(); }
  /// The bytes of `pid` (page_size of them), valid while this image lives.
  const uint8_t* page(PageId pid) const { return pages_[pid].get(); }

  /// Page by page: equal when both hold the same bytes on every page.
  bool operator==(const DiskImage& other) const;

 private:
  friend class SimDisk;
  using Page = std::shared_ptr<uint8_t[]>;
  uint32_t page_size_ = 0;
  std::vector<Page> pages_;
};

class SimDisk {
 public:
  struct Stats {
    uint64_t read_ios = 0;        ///< Read operations issued (a run counts 1).
    uint64_t pages_read = 0;      ///< Pages transferred by reads.
    uint64_t batched_reads = 0;   ///< Read runs covering more than one page.
    uint64_t gap_pages = 0;       ///< Of pages_read, those a run read
                                  ///< through and its caller dropped.
    uint64_t write_ios = 0;
    uint64_t pages_written = 0;
    double read_service_ms = 0;   ///< Device time spent servicing reads.
    double write_service_ms = 0;
    uint64_t read_errors = 0;     ///< Injected transient read failures.
    uint64_t write_errors = 0;
    uint64_t latency_spikes = 0;
    uint64_t bits_flipped = 0;    ///< Latent stable-image corruptions.
    uint64_t writes_torn = 0;     ///< Pending tears applied by a crash.
  };

  SimDisk(SimClock* clock, uint32_t page_size, const IoModelOptions& io);

  uint32_t page_size() const { return page_size_; }
  uint64_t num_pages() const { return image_.num_pages(); }

  /// Grow the device to at least n pages (new pages are zero-filled).
  void EnsurePages(uint64_t n);

  /// Schedule a single-page read. On success *completion is its completion
  /// time (ms); on an injected transient failure returns IOError (device
  /// time still charged, *completion still set — the caller decides whether
  /// to wait out the failed attempt before retrying).
  Status ScheduleRead(PageId pid, bool sorted, double* completion);

  /// Schedule a read of `count` contiguous pages starting at `first` as one
  /// I/O; same contract as ScheduleRead. `gap_pages` of them are gap pages
  /// the caller reads through and drops (counted in Stats::gap_pages).
  Status ScheduleReadRun(PageId first, uint32_t count, bool sorted,
                         double* completion, uint32_t gap_pages = 0);

  /// The gap rule (see the header comment): the most unwanted pages one
  /// sorted (prefetch) read transfers between two wanted ones; 0 when no
  /// gap pays.
  uint32_t MaxReadThroughGap() const;

  /// Schedule a page write. On success the stable image holds the
  /// acknowledged content and *completion is used for stall accounting; see
  /// the DESIGN note above for what a crash does to it under the fault
  /// plan. On an injected transient failure returns IOError and leaves the
  /// image untouched.
  Status ScheduleWrite(PageId pid, const void* data, double* completion);

  /// Copy the stable image of `pid` into `out` (no simulated cost; data
  /// delivery happens when the caller decides the read completed).
  void ReadImage(PageId pid, void* out) const;

  /// Write the stable image directly with no simulated cost and no faults
  /// (bulk load, repair write-back).
  void WriteImageDirect(PageId pid, const void* data);

  /// Raw pointer into the stable image of `pid` (asserts bounds); valid
  /// until the page's next write.
  const uint8_t* ImageData(PageId pid) const;

  /// Earliest time all channels are idle (used by tests and crash drain).
  double IdleAtMs() const;

  /// Forget device queue state; the device is idle at the current clock.
  /// Called when a crash starts a new measurement epoch.
  void ResetTime();

  // ---- crash semantics of in-flight writes (torn-write mode) ----

  /// Crash: install every pending torn image into the stable image. The
  /// engine's crash path MUST call exactly one of ApplyCrashTears /
  /// DrainInFlight so in-flight writes are resolved explicitly.
  void ApplyCrashTears();

  /// Clean shutdown / checkpoint-complete destage: in-flight writes made it
  /// to the platter intact; forget the pending tears.
  void DrainInFlight() { torn_pending_.clear(); }

  uint64_t pending_torn_writes() const { return torn_pending_.size(); }

  /// Test hook: flip one stable-image bit (media corruption without a
  /// fault plan — targeted corruption scenarios).
  void CorruptStableByteForTest(PageId pid, uint32_t offset, uint8_t mask);

  /// Test hook: the stable image of `pid`, writable. Copies the page first
  /// while a snapshot holds it, like every write; valid until the page's
  /// next write.
  uint8_t* MutableImageForTest(PageId pid) { return WritablePage(pid); }

  FaultInjector& injector() { return injector_; }

  /// I/O model this device was built with (retry/backoff knobs live here so
  /// the buffer pool and the device agree on one fault policy).
  const IoModelOptions& io_options() const { return io_; }

  /// Independent service channels (per-channel elevators). With 1 channel
  /// every request serializes behind one head; with more, the reads a redo
  /// prefetcher keeps in flight overlap in simulated time.
  uint32_t channels() const {
    return static_cast<uint32_t>(channel_busy_until_.size());
  }

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

  /// Snapshot / restore of the full stable image (side-by-side experiments
  /// and the media archive). Both share pages: one pointer copy per page.
  /// Pending tears are volatile controller state and are not part of a
  /// snapshot; restore clears them.
  DiskImage SnapshotImage() const { return image_; }
  void RestoreImage(const DiskImage& image);

 private:
  double Schedule(double service_ms, bool is_write);
  /// The page `pid` for writing: a private copy first while another image
  /// holds it.
  uint8_t* WritablePage(PageId pid);
  /// Positioning cost of one read.
  double SeekMs(bool sorted) const {
    return io_.random_seek_ms * (sorted ? io_.sorted_seek_factor : 1.0);
  }

  SimClock* clock_;
  const uint32_t page_size_;
  IoModelOptions io_;
  FaultInjector injector_;
  DiskImage image_;
  std::vector<double> channel_busy_until_;
  /// Torn-write mode: pid -> the image a crash would leave (sector-granular
  /// prefix of the latest acknowledged write over the prior stable bytes).
  std::unordered_map<PageId, std::vector<uint8_t>> torn_pending_;
  Stats stats_;
};

}  // namespace deutero
