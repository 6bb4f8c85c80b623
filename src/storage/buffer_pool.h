// Database cache. Responsibilities beyond pin/unpin caching:
//
//  * pLSN maintenance: every logged modification stamps the page header
//    through PageHandle::MarkDirty (paper §2.2 idempotence test).
//  * Dirty monitoring hooks: a callback fires on every dirtying so the DC can
//    append to the Δ-record DirtySet (paper §4.1), and on every flush
//    completion so it can append to the WrittenSet (§3.3).
//  * WAL rule (EOSL contract, §4.1): a dirty page may be flushed only when
//    its pLSN is covered by the TC's stable log; otherwise the pool first
//    invokes the WAL-force callback.
//  * SQL-Server penultimate checkpointing (§3.2): a per-frame phase bit is
//    captured at dirtying time; the checkpoint flushes exactly the frames
//    dirtied before the begin-checkpoint record (bit flip).
//  * Lazy writer: flushes the oldest-dirtied pages whenever the dirty count
//    exceeds a watermark — the background cleaning that shapes the dirty
//    fraction of the cache (Fig. 2(b)).
//  * Replacement: second-chance CLOCK, flushing a dirty victim first.
//    Clean victims are not preferred: a lazy-writer watermark near the
//    capacity keeps the pool mostly dirty, and a hand hunting for clean
//    victims circles it, clearing every ref bit, and evicts the few clean
//    pages left — hot B-tree internal pages the next descent reads back.
//  * Prefetch: asynchronous reads, each a *span*: one I/O over at most
//    max_batch_pages() pids (paper App. A reads up to 8 contiguous pages at
//    once) that carries every wanted page in its reach. It reads through
//    the gaps between them when the device's gap rule says that beats a
//    second seek (SimDisk::MaxReadThroughGap) and installs only the wanted
//    pages. A demand Get on a pending page stalls only until that I/O's
//    completion time.
//  * Media-failure handling (PR 7): every read-in verifies the page CRC and
//    every flush stamps it; transient device errors are retried with
//    sim-time exponential backoff (kIoRetryLimit / kIoBackoffBaseMs); a
//    checksum mismatch invokes the repair callback (single-page logical
//    redo, recovery/page_repairer.h) and only surfaces as
//    Status::Corruption when repair is unavailable or fails, with the
//    offending pid retrievable via TakeCorruptPage().
//
// Concurrency (PR 8). The pool serves two very different caller classes:
//
//  * MUTATORS — logged writes, checkpoint sweeps, the lazy writer, DDL,
//    recovery passes — run one-at-a-time: under the engine's exclusive
//    forward gate at runtime, or on the one thread that runs every
//    recovery pass. Nothing here changes for them.
//  * CONCURRENT READERS under the engine's shared gate. Their hot path
//    (Get hit, Unpin, the Is*/PinCount probes) takes only a per-shard
//    page-table latch: the table is split kTableShards ways by pid hash,
//    each shard owning its own fixed-geometry PageTable, its gets/hits
//    counters, and the hit-mutable frame fields (pins, ref, cls).
//    Everything structural — demand miss, pending-prefetch claim, Create,
//    Prefetch, eviction, flushes, Discard, Reset — serializes on the
//    pool-wide miss_mu_ (it owns free_frames_, the clock hand, dirty
//    bookkeeping, and all device I/O). Lock order: miss_mu_ first, then
//    shard latches (never the reverse; the hit path takes exactly one
//    shard latch and nothing else). Frame identity fields (pid, state,
//    ready_at_ms, ...) are written only by miss_mu_ holders, and any write
//    visible to the hit path (state transitions, table Put/Erase) is
//    additionally made under the pid's shard latch, so a latched reader
//    can never observe a torn mapping. loaded/dirty/pinned counts are
//    atomics; Stats is folded from the shards lazily in stats().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/mutex.h"
#include "common/options.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/clock.h"
#include "sim/sim_disk.h"
#include "storage/page.h"
#include "storage/page_table.h"

namespace deutero {

/// Why a page is being requested; used to split stall accounting between
/// index and data pages (paper §5.3 reports index wait separately).
enum class PageClass : uint8_t { kData = 0, kIndex = 1 };

class BufferPool;

/// RAII pin on a cached page. Movable, not copyable.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
  PageHandle& operator=(PageHandle&& other) noexcept;
  ~PageHandle() { Release(); }

  bool valid() const { return pool_ != nullptr; }
  PageId pid() const { return pid_; }

  /// Mutable view of the page bytes.
  PageView view();
  /// Read-only view of the page bytes.
  const PageView view() const;

  /// Record that a logged operation with LSN `lsn` modified this page:
  /// stamps the pLSN and performs dirty bookkeeping + callbacks.
  void MarkDirty(Lsn lsn);

  /// Drop the pin early.
  void Release();

 private:
  friend class BufferPool;
  PageHandle(BufferPool* pool, uint32_t frame, PageId pid)
      : pool_(pool), frame_(frame), pid_(pid) {}

  BufferPool* pool_ = nullptr;
  uint32_t frame_ = 0;
  PageId pid_ = kInvalidPageId;
};

class BufferPool {
 public:
  /// Retry policy for transient I/O errors: an IOError from the device is
  /// retried up to kIoRetryLimit times, charging simulated exponential
  /// backoff (kIoBackoffBaseMs * 2^attempt) before each retry. Exhaustion
  /// surfaces the IOError to the caller.
  static constexpr uint32_t kIoRetryLimit = 4;
  static constexpr double kIoBackoffBaseMs = 0.5;

  struct Stats {
    uint64_t gets = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;           ///< Demand fetches (sync reads issued).
    uint64_t data_fetches = 0;     ///< Pages read from disk, data class.
    uint64_t index_fetches = 0;    ///< Pages read from disk, index class.
    uint64_t prefetch_issued = 0;  ///< Pages submitted via Prefetch().
    uint64_t prefetch_used = 0;    ///< Prefetched pages later demanded.
    uint64_t prefetch_wasted = 0;  ///< Prefetched pages evicted unused.
    uint64_t stall_count = 0;      ///< Demand waits (sync or pending).
    double stall_ms = 0;           ///< Total demand wait time.
    double data_stall_ms = 0;
    double index_stall_ms = 0;
    uint64_t evictions = 0;
    uint64_t dirty_evictions = 0;  ///< Evictions that had to flush first.
    uint64_t flushes = 0;          ///< Page writes (all causes).
    uint64_t lazy_flushes = 0;     ///< Writes issued by the lazy writer.
    uint64_t checkpoint_flushes = 0;
    uint64_t wal_forces = 0;       ///< Log forces triggered by the WAL rule.
    uint64_t io_retries = 0;       ///< Re-issued reads/writes after IOError.
    double backoff_ms = 0;         ///< Sim time spent backing off.
    uint64_t checksum_failures = 0;  ///< Read-ins failing CRC verification.
    uint64_t repairs = 0;          ///< Corrupt pages rebuilt in place.
  };

  using FlushCallback = std::function<void(PageId, Lsn plsn)>;
  using DirtyCallback = std::function<void(PageId, Lsn lsn, bool was_clean)>;
  using WalForceCallback = std::function<void(Lsn required)>;
  using StableLsnProvider = std::function<Lsn()>;
  /// Rebuild the corrupt page `pid` into `frame_data` (page_size bytes) and
  /// write the repaired image back to the stable device. MUST NOT re-enter
  /// the pool: the callback runs inside its miss path, under miss_mu_.
  using RepairCallback = std::function<Status(PageId pid, uint8_t* frame_data)>;

  BufferPool(SimClock* clock, SimDisk* disk, uint64_t capacity_pages,
             uint32_t page_size, uint32_t max_batch_pages = 8);

  // Hook registration (engine wiring).
  void set_flush_callback(FlushCallback cb) { flush_cb_ = std::move(cb); }
  void set_dirty_callback(DirtyCallback cb) { dirty_cb_ = std::move(cb); }
  void set_wal_force_callback(WalForceCallback cb) {
    wal_force_cb_ = std::move(cb);
  }
  void set_stable_lsn_provider(StableLsnProvider p) {
    stable_lsn_ = std::move(p);
  }
  void set_repair_callback(RepairCallback cb) { repair_cb_ = std::move(cb); }

  /// Pin `pid`, fetching it (and possibly waiting on a pending prefetch).
  Status Get(PageId pid, PageClass cls, PageHandle* handle);

  /// Materialize a brand-new page in the cache without reading the device
  /// (page allocation during an SMO). The frame is zero-filled; the caller
  /// formats it and stamps it dirty with the SMO's LSN.
  Status Create(PageId pid, PageClass cls, PageHandle* handle);

  /// Current pin count of `pid` (0 when not resident). A leaf merge uses
  /// this to detect foreign pins (an open ScanCursor) on its victim: a
  /// page it is about to free must be pinned by nobody but the merge
  /// itself, or the cursor would be left standing on a freed page.
  uint32_t PinCount(PageId pid) const;

  /// True if the page is loaded or has a pending read.
  bool IsResidentOrPending(PageId pid) const;
  /// True if the page is loaded (usable without a wait).
  bool IsLoaded(PageId pid) const;
  /// True if the page is loaded OR its pending read's completion time has
  /// passed — i.e. it no longer occupies the device queue. Prefetch windows
  /// use this to bound outstanding I/O, not unclaimed buffers.
  bool HasArrived(PageId pid) const;

  /// Best-effort asynchronous reads. Duplicates and resident pages are
  /// skipped. The rest go out in span I/Os: each read starts at the lowest
  /// wanted pid not yet issued and takes every wanted pid within
  /// max_batch_pages() pids of it, as long as no gap between two of them
  /// exceeds max_read_gap(). The span is one SimDisk::ScheduleReadRun; its
  /// gap pages (clean, resident or freed pids nobody asked for) are
  /// transferred and dropped: never installed, never checksummed, never
  /// counted as fetches, so a resident page in a span keeps its bytes. A
  /// span the pool cannot supply frames for shrinks to its leading wanted
  /// pages that got one. Returns the number of page reads actually issued.
  uint32_t Prefetch(std::span<const PageId> pids, PageClass cls);

  /// Frames that hold no page (never filled since Reset, or given back by
  /// Discard or a failed read). Filling one costs no eviction.
  uint64_t unused_frames() const;
  /// Most pids one read I/O spans, gap pages included.
  uint32_t max_batch_pages() const { return max_batch_pages_; }
  /// Longest gap a prefetch span reads through (the device's gap rule).
  uint32_t max_read_gap() const { return max_read_gap_; }

  /// Synchronously flush one resident dirty page (respects the WAL rule).
  /// IOError after retry exhaustion leaves the page dirty and resident.
  Status FlushPage(PageId pid);

  /// Drop a resident page from the cache WITHOUT flushing it, even if
  /// dirty (page deallocation: a leaf-merge SMO freed it, so its content is
  /// dead — every change to it is logged and its free-page after-image
  /// rides the merge record). The frame leaves the dirty bitmap and FIFO
  /// accounting, so neither the lazy writer nor a checkpoint will waste a
  /// write on it. Returns false if the page is not resident, still pinned,
  /// or has a pending read.
  bool Discard(PageId pid);

  /// Flush every dirty frame whose checkpoint phase bit equals the phase
  /// before the most recent FlipCheckpointPhase(). `*flushed` (optional)
  /// receives the number of pages flushed before any error; the sweep stops
  /// at the first frame whose write cannot be retried to success.
  Status FlushPhasePages(uint64_t* flushed = nullptr);

  /// Capture the begin-checkpoint instant: frames dirtied from now on belong
  /// to the new phase and are exempt from the in-progress checkpoint flush.
  void FlipCheckpointPhase() { current_phase_ = !current_phase_; }

  /// Flush all dirty pages regardless of phase (shutdown / tests). Same
  /// error contract as FlushPhasePages.
  Status FlushAllDirty(uint64_t* flushed = nullptr);

  /// Runtime DPT capture (ARIES checkpointing, paper §3.1): every dirty
  /// frame's (pid, first-dirty LSN).
  void CollectDirtyPages(
      std::vector<std::pair<PageId, Lsn>>* out) const;

  /// Lazy writer: flush oldest-dirtied pages while dirty count exceeds the
  /// watermark. No-op when the watermark is 0 (disabled).
  Status LazyWriterTick();

  void set_dirty_watermark(uint64_t pages) { dirty_watermark_ = pages; }
  uint64_t dirty_watermark() const { return dirty_watermark_; }

  /// Enable/disable monitor callbacks (disabled during recovery passes).
  void set_callbacks_enabled(bool on) { callbacks_enabled_ = on; }
  bool callbacks_enabled() const { return callbacks_enabled_; }

  /// Drop all cached state (crash): frames, pins must be zero.
  void Reset();

  uint64_t capacity() const { return capacity_; }
  uint64_t resident_pages() const { return loaded_count_.load(); }
  uint64_t dirty_pages() const { return dirty_count_.load(); }
  uint64_t pinned_pages() const { return pinned_count_.load(); }

  /// Counter snapshot with the per-shard gets/hits folded in. Call from a
  /// quiesced pool (tests, experiment reports); the reference stays valid
  /// until the next stats() call.
  const Stats& stats() const;
  void ResetStats();

  /// Pid of the most recent unrepaired checksum failure, cleared on read.
  /// The engine uses this to distinguish media corruption from other
  /// Corruption statuses (e.g. structural B-tree checks) and to target a
  /// remote repair before retrying. Latched: the failing reader records the
  /// pid under miss_mu_, and with the engine gate held shared, several
  /// readers can fail (and the engine poll) concurrently.
  PageId TakeCorruptPage() {
    MutexLock lk(&miss_mu_);
    const PageId p = last_corrupt_pid_;
    last_corrupt_pid_ = kInvalidPageId;
    return p;
  }
  PageId last_corrupt_pid() const {
    MutexLock lk(&miss_mu_);
    return last_corrupt_pid_;
  }

 private:
  friend class PageHandle;

  enum class FrameState : uint8_t { kEmpty, kPending, kLoaded };

  struct Frame {
    PageId pid = kInvalidPageId;
    FrameState state = FrameState::kEmpty;
    double ready_at_ms = 0;
    bool dirty = false;
    bool phase = false;
    bool ref = false;
    bool prefetched = false;
    PageClass cls = PageClass::kData;
    uint16_t pins = 0;
    uint64_t dirty_seq = 0;
    Lsn first_dirty_lsn = kInvalidLsn;
  };

  uint8_t* FrameData(uint32_t frame) {
    return arena_.data() + static_cast<uint64_t>(frame) * page_size_;
  }
  const uint8_t* FrameData(uint32_t frame) const {
    return arena_.data() + static_cast<uint64_t>(frame) * page_size_;
  }

  /// One page-table shard: its own fixed-geometry table plus the counters
  /// the latched hit path bumps. Each table is sized for the full frame
  /// count so a skewed pid hash can never overflow a shard.
  struct TableShard {
    mutable Mutex mu;
    PageTable table GUARDED_BY(mu);
    uint64_t gets GUARDED_BY(mu) = 0;
    uint64_t hits GUARDED_BY(mu) = 0;
    explicit TableShard(uint64_t cap) : table(cap) {}
  };
  static constexpr size_t kTableShards = 16;

  size_t ShardIndex(PageId pid) const {
    // Same Fibonacci spread the tables use; the top bits pick the shard.
    return static_cast<size_t>((pid * 0x9E3779B97F4A7C15ull) >> 60) &
           (kTableShards - 1);
  }
  TableShard& ShardFor(PageId pid) const { return *shards_[ShardIndex(pid)]; }

  /// Slow path of Get (demand miss or pending-prefetch claim); serializes
  /// on miss_mu_.
  Status GetSlow(PageId pid, PageClass cls, PageHandle* handle)
      EXCLUDES(miss_mu_);

  /// Find a frame to (re)use; evicts if necessary. Busy when every frame is
  /// pinned or pending; a dirty eviction can also surface a write IOError.
  /// Caller holds miss_mu_ and no shard latch.
  Status AllocFrame(uint32_t* out) REQUIRES(miss_mu_);

  /// Evict the loaded, unpinned frame chosen by the second-chance clock,
  /// flushing it first if dirty; the hand ends one past the victim. Same
  /// contract as AllocFrame.
  Status EvictSomeFrame(uint32_t* out) REQUIRES(miss_mu_);

  /// Remove a clean, unpinned, loaded frame from the mapping table.
  /// Caller holds miss_mu_ and `sh.mu` (the frame's pid maps to `sh`).
  void EvictFrame(uint32_t frame, TableShard& sh)
      REQUIRES(miss_mu_, sh.mu);

  /// Stamp the checksum and write the frame out, retrying transient device
  /// errors with exponential backoff. On success clears the dirty bit and
  /// fires the flush callback; on exhaustion the frame stays dirty.
  Status FlushFrame(uint32_t frame, uint64_t* counter) REQUIRES(miss_mu_);

  /// Demand-read `pid` into `dest` with transient-error retry/backoff; the
  /// clock ends at the final attempt's completion (plus backoff waits).
  Status ReadPageWithRetry(PageId pid, bool sorted, uint8_t* dest)
      REQUIRES(miss_mu_);

  /// CRC-check freshly read-in bytes; on mismatch attempt callback repair.
  /// Corruption (and last_corrupt_pid_ set) when unrepairable.
  Status VerifyOrRepair(PageId pid, uint8_t* data) REQUIRES(miss_mu_);

  /// Count a retry and advance sim time by base * 2^attempt.
  void Backoff(uint32_t attempt) REQUIRES(miss_mu_);

  void Unpin(uint32_t frame, PageId pid);
  void MarkDirtyInternal(uint32_t frame, Lsn lsn);

  SimClock* clock_;
  SimDisk* disk_;
  const uint64_t capacity_;
  const uint32_t page_size_;
  const uint32_t max_batch_pages_;
  const uint32_t max_read_gap_;

  std::vector<uint8_t> arena_;
  /// NOT annotated: frames_ is dual-guarded — identity fields are written
  /// by miss_mu_ holders, hit-mutable fields (pins, ref, cls) under the
  /// pid's shard latch, and MarkDirtyInternal runs mutator-serialized under
  /// the engine's exclusive forward gate. No single capability expresses
  /// that, so the contract lives in the comment up top (and under TSan).
  std::vector<Frame> frames_;
  std::vector<uint32_t> free_frames_ GUARDED_BY(miss_mu_);
  /// Sharded pid -> frame map (see the concurrency note up top).
  std::array<std::unique_ptr<TableShard>, kTableShards> shards_;
  /// Serializes the structural slow path: misses, prefetch, eviction,
  /// flush sweeps, Discard, Reset. Always taken BEFORE any shard latch.
  mutable Mutex miss_mu_;
  /// Dirty bookkeeping (dirty_fifo_, dirty_bits_, next_dirty_seq_,
  /// current_phase_) is NOT annotated for the same reason as frames_:
  /// MarkDirtyInternal mutates it gate-serialized without miss_mu_, while
  /// the flush sweeps mutate it under miss_mu_.
  std::deque<std::pair<PageId, uint64_t>> dirty_fifo_;  ///< (pid, dirty_seq).
  /// One bit per frame, set while the frame is dirty. FlushPhasePages /
  /// FlushAllDirty sweep it word-at-a-time in frame order instead of
  /// materializing and sorting a victims vector per checkpoint.
  std::vector<uint64_t> dirty_bits_;
  /// Prefetch() scratch reused across calls (dedup list + reserved frames).
  std::vector<PageId> prefetch_want_ GUARDED_BY(miss_mu_);
  std::vector<uint32_t> prefetch_fidx_ GUARDED_BY(miss_mu_);

  std::atomic<uint64_t> loaded_count_{0};
  std::atomic<uint64_t> dirty_count_{0};
  std::atomic<uint64_t> pinned_count_{0};
  uint64_t next_dirty_seq_ = 1;
  uint64_t dirty_watermark_ = 0;
  uint32_t clock_hand_ GUARDED_BY(miss_mu_) = 0;
  bool current_phase_ = false;
  bool callbacks_enabled_ = true;
  PageId last_corrupt_pid_ GUARDED_BY(miss_mu_) = kInvalidPageId;

  FlushCallback flush_cb_;
  DirtyCallback dirty_cb_;
  WalForceCallback wal_force_cb_;
  StableLsnProvider stable_lsn_;
  RepairCallback repair_cb_;

  /// Slow-path counters; gets/hits live in the shards.
  Stats stats_ GUARDED_BY(miss_mu_);
  /// stats() scratch (shards folded in).
  mutable Stats merged_stats_ GUARDED_BY(miss_mu_);
};

}  // namespace deutero
