// Engine configuration. Defaults correspond to the paper's experimental setup
// at 1/10 linear scale (DESIGN.md §2): 43,600 data pages of 8 KB (229 rows
// per page, 10^7 rows), checkpoint every 4,000 updates, a ~10-record tail of
// the log, and caches from 819 (64 MB-class) to 26,214 (2 GB-class) pages.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace deutero {

/// Which DPT-construction spectrum point the DC uses (paper §4.2, App. D).
enum class DptMode : uint8_t {
  /// Δ-records carry (DirtySet, WrittenSet, FW-LSN, FirstDirty, TC-LSN) —
  /// the paper's chosen point (§4.1/§4.2).
  kStandard = 0,
  /// Δ-records additionally carry per-update LSNs (DirtyLSNs), letting the DC
  /// rebuild exactly the SQL-Server DPT (App. D.1) at higher logging cost.
  kPerfect = 1,
  /// Δ-records without FW-LSN and FirstDirty (App. D.2): less logging, more
  /// conservative rLSNs, flush pruning only across Δ-record boundaries.
  kReduced = 2,
};

/// How checkpoints prepare for recovery (paper §3).
enum class CheckpointScheme : uint8_t {
  /// SQL Server's penultimate scheme (§3.2): bCkpt, flush everything
  /// dirtied before it (RSSP), eCkpt. The redo scan starts at the last
  /// completed bCkpt with an empty DPT. Required by the logical family,
  /// whose Δ-record DPT construction assumes the RSSP flush contract.
  kPenultimate = 0,
  /// Classic ARIES (§3.1): the checkpoint record captures the runtime DPT
  /// and flushes nothing. Cheap checkpoints; the redo scan starts at the
  /// oldest rLSN in the captured DPT. SQL-family recovery only.
  kAries = 1,
};

/// Recovery method under test (paper §5.2).
enum class RecoveryMethod : uint8_t {
  kLog0 = 0,  ///< Basic logical redo (Algorithm 2), no DPT, no prefetch.
  kLog1 = 1,  ///< Logical redo with the Δ-record DPT (Algorithms 4+5).
  kLog2 = 2,  ///< Log1 plus index preload and PF-list data prefetch (App. A).
  kSql1 = 3,  ///< Physiological redo with the BW-record DPT (Algorithms 1+3).
  kSql2 = 4,  ///< SQL1 plus log-driven data prefetch (App. A.2).
};

/// Returns a stable display name ("Log0", "Sql2", ...).
const char* RecoveryMethodName(RecoveryMethod m);

/// Deterministic media-fault plan, executed by the FaultInjector the
/// SimDisk owns (sim/fault_injector.h). All decisions are drawn from one
/// seeded RNG in I/O-issue order, so a (seed, workload) pair replays the
/// identical fault sequence — a failing storm campaign reproduces from its
/// printed seed alone. All rates are per-I/O probabilities in [0, 1]; the
/// default plan (all rates zero) injects nothing and costs nothing.
struct FaultPlanOptions {
  uint64_t seed = 0;
  /// Transient read/write failures: the I/O returns Status::IOError but
  /// charges device time (the arm moved; the transfer failed). A triggered
  /// fault fails `burst` consecutive attempts (drawn uniformly from
  /// [1, max_failure_burst]) before the retried I/O succeeds, so bursts no
  /// longer than BufferPool::kIoRetryLimit always recover.
  double read_error_rate = 0;
  double write_error_rate = 0;
  uint32_t max_failure_burst = 2;
  /// Latency spikes: a triggered I/O's service time is multiplied by
  /// latency_spike_factor (remapped sectors, thermal recalibration).
  double latency_spike_rate = 0;
  double latency_spike_factor = 8.0;
  /// Latent corruption: a triggered page write flips one random bit of the
  /// stable image AFTER the write is acknowledged — detected only when the
  /// page checksum is verified on a later read-in. Never targets page 0
  /// (the boot/meta block is duplexed in a real deployment).
  double bit_flip_rate = 0;
  /// Torn-write crash mode: a triggered ScheduleWrite is tracked as
  /// in-flight; if the engine crashes before a later write of the same page
  /// destages it, the stable image keeps only a sector-granular prefix of
  /// the new content (SimDisk::ApplyCrashTears). The prefix covers sector 0
  /// (the page header) but never the whole page, so every content-changing
  /// tear is CRC-detectable — see FaultInjector::NextTornWrite for why a
  /// full revert would be an undetectable lost write. Zero keeps the
  /// historical contract: every scheduled write is atomically stable.
  /// Page 0 is exempt, like bit flips.
  double torn_write_rate = 0;
  uint32_t sector_bytes = 512;

  bool enabled() const {
    return read_error_rate > 0 || write_error_rate > 0 ||
           latency_spike_rate > 0 || bit_flip_rate > 0 || torn_write_rate > 0;
  }
};

/// Cost model for the simulated disk and CPU. Recovery time in the paper is
/// gated by data-page I/O (Appendix B); these constants control the simulated
/// milliseconds charged per event. Absolute values are era-plausible for a
/// 2011 server drive; only relative shapes matter for reproduction.
struct IoModelOptions {
  /// Positioning cost of a random synchronous single-page read (ms).
  double random_seek_ms = 5.0;
  /// Per-page transfer cost (ms).
  double transfer_ms_per_page = 0.12;
  /// Positioning cost factor for asynchronous reads issued through the
  /// prefetcher: pending requests are elevator-sorted by the drive, which
  /// shortens seeks. Applied to random_seek_ms.
  double sorted_seek_factor = 0.75;
  /// Positioning cost of a page write (ms). Writes are buffered and
  /// elevator-scheduled by the controller, hence cheaper than reads.
  double write_seek_ms = 2.0;
  double log_page_read_ms = 0.25;  ///< Sequential log read, per log page.
  /// The most pages one read I/O spans, gap pages included (paper App. A
  /// reads up to 8 contiguous pages at once): a prefetch reads every
  /// wanted page within this many pids of its first page in one I/O,
  /// transferring the unwanted pages between them (SimDisk's gap rule).
  /// The redo prefetchers grow each page they issue into a span of this
  /// size (recovery/prefetch.h).
  uint32_t max_batch_pages = 8;
  /// Number of I/Os the device can service concurrently: the SimDisk keeps
  /// one elevator (busy-until cursor) per channel and assigns each request
  /// to the earliest-free one. 1 (default) is the classic single-head
  /// drive where every read serializes behind one arm (the App. B model);
  /// raising it lets the redo prefetchers' reads overlap in simulated time
  /// (demand misses still wait for their own completion). Clamped to
  /// [1, 64] at engine open.
  uint32_t io_channels = 1;

  /// CPU charged per log record examined during a recovery scan (µs).
  double cpu_per_log_record_us = 5.0;
  /// CPU charged per B-tree level traversed on a cached path (µs).
  double cpu_per_btree_level_us = 2.0;
  /// CPU charged per redo operation actually applied (µs).
  double cpu_per_redo_apply_us = 5.0;
  /// CPU charged per DPT mutation event during analysis/DC-pass DPT
  /// construction (µs): every AddOrUpdate/seed/prune probe/remove the
  /// pass performs (recovery/analysis.h says where in the pass it is
  /// charged).
  double cpu_per_dpt_update_us = 1.0;

  /// Media-fault plan (sim/fault_injector.h). Inactive by default.
  FaultPlanOptions faults;
};

/// Test-only fault injection points (used by crash tests).
struct CrashPoints {
  bool after_begin_checkpoint = false;  ///< Crash between bCkpt and RSSP.
  bool after_rssp = false;              ///< Crash between RSSP and eCkpt.
};

struct EngineOptions {
  // ---- geometry ----
  uint32_t page_size = 8192;  ///< Data page size in bytes.
  uint32_t value_size = 26;   ///< Fixed record payload size ("data" column).
  uint64_t num_rows = 10'000'000;  ///< Rows bulk-loaded at creation.
  double leaf_fill_fraction = 0.95;  ///< Bulk-load leaf fill factor.

  // ---- cache ----
  uint64_t cache_pages = 819;  ///< Buffer pool capacity (64 MB-class default).

  /// Lazy-writer dirty watermark: the background writer flushes the
  /// oldest-dirtied pages whenever the dirty count exceeds
  ///   lazy_writer_base_fraction * lazy_writer_reference_cache_pages
  ///       * (cache_pages / lazy_writer_reference_cache_pages)^0.67.
  /// This is the SQL-Server lazy-writer/recovery-interval analog; the curve
  /// is calibrated so the dirty fraction of the cache falls from ~30 % at the
  /// 64 MB-class cache to ~10 % at the 2 GB-class cache (paper Fig. 2(b)).
  double lazy_writer_base_fraction = 0.30;
  uint64_t lazy_writer_reference_cache_pages = 819;
  /// When non-zero, the watermark additionally scales with
  /// sqrt(checkpoint_interval / this): with rarer checkpoints the dirty pool
  /// grows until flush pressure balances (paper App. C: the DPT roughly
  /// doubles when the interval grows 5x). Zero disables interval scaling.
  uint64_t lazy_writer_reference_interval = 0;

  // ---- transactions / logging ----
  uint32_t updates_per_txn = 10;  ///< Paper §5.2: small 10-update txns.
  uint32_t log_page_size = 8192;
  /// Checkpoint cadence in updates (ci1 at 1/10 scale). Appendix C scales
  /// this by 5x and 10x.
  uint64_t checkpoint_interval_updates = 4000;

  // ---- DC monitoring (Δ- and BW-record cadence, §3.3/§4.1) ----
  /// WrittenSet capacity: a Δ-record followed by a BW-record is emitted when
  /// this many flushes have been captured.
  uint32_t bw_written_capacity = 100;
  /// DirtySet capacity: an extra Δ-record (dirty pages only) is emitted when
  /// this many dirty-page entries accumulate between BW emissions.
  uint32_t delta_dirty_capacity = 250;

  DptMode dpt_mode = DptMode::kStandard;
  CheckpointScheme checkpoint_scheme = CheckpointScheme::kPenultimate;

  // ---- prefetch (App. A) ----
  /// Max outstanding prefetched head pages: the pages a redo prefetcher
  /// picks from the PF-list or the log, each freeing its slot when redo
  /// claims it. The DPT neighbours that ride in a head's I/O have their
  /// own bound (recovery/prefetch.h).
  uint32_t prefetch_window = 32;

  // ---- recovery parallelism ----
  /// No pass reads this: every recovery pass (DPT construction, redo,
  /// undo) and a standby's continuous replay run on one thread, whatever
  /// its value. It is kept only because bench/e2e sets it for its par3
  /// twin; a later benchmark change removes the field together with
  /// par3.
  uint32_t recovery_threads = 1;

  // ---- concurrent front end (PR 8) ----
  /// Group commit: when enabled, a committing transaction appends its
  /// commit record, releases its locks, and enqueues a durability request;
  /// one batcher thread forces the log once per window — as soon as
  /// group_commit_max_batch commits are waiting, or at latest
  /// group_commit_window_us of real time after the first waiter arrived —
  /// then wakes every waiter whose commit LSN the stable prefix covers.
  /// max_batch <= 1 (default) disables the pipeline entirely: commits
  /// force the log themselves and no batcher thread exists, preserving
  /// the historical serial behavior bit-exactly.
  uint32_t group_commit_window_us = 200;
  uint32_t group_commit_max_batch = 1;
  /// Lock-manager shards (hash(table, key) -> shard); clamped to [1, 256]
  /// at engine open.
  uint32_t lock_shards = 16;

  bool GroupCommitEnabled() const { return group_commit_max_batch > 1; }

  // ---- logical redo ----
  /// Memoize the last (table, leaf) of logical redo's index traversal and
  /// reuse it while record keys stay inside the leaf's fence range. Safe
  /// because the tree's structure is frozen during the redo pass (the DC
  /// pass replayed all SMOs first). Off reproduces the paper's
  /// every-operation re-traversal cost.
  bool redo_leaf_memo = true;

  // ---- media resilience ----
  /// Keep a page-image archive: at every completed checkpoint (and at the
  /// end of recovery) the DC snapshots the stable disk image together with
  /// the oldest first-dirty LSN still in cache. A page whose stable copy
  /// later fails its checksum is rebuilt from the archived image plus a
  /// page-scoped logical replay of the log tail (recovery/page_repairer.h).
  /// The archive is the simulation stand-in for a backup medium. It shares
  /// pages with the device (sim/sim_disk.h), so a capture copies a pointer
  /// per page, and each page written after it is copied once. Off by
  /// default: every capture after the first verifies the checksum of every
  /// stable page first, and the archive keeps an old copy of each page
  /// written since.
  bool media_archive = false;

  // ---- misc ----
  uint64_t seed = 42;            ///< Workload / layout determinism.
  TableId table_id = kDefaultTableId;

  IoModelOptions io;
  CrashPoints crash_points;

  /// Rows per leaf page under this geometry (helper used by sizing code).
  uint64_t RowsPerLeaf() const;
  /// Number of leaf pages num_rows will occupy at leaf_fill_fraction.
  uint64_t ExpectedLeafPages() const;
};

}  // namespace deutero
