// The integrated common log (paper §5.1): one append-only stream holding TC
// records (updates, txn control, checkpoints) and DC records (Δ, BW, SMO,
// RSSP-ack). LSNs are byte offsets. The manager also owns the master record
// — the boot block that names the last completed checkpoint, which recovery
// reads to find its redo scan start point (§3.2).
//
// Concurrent appends (PR 8): threads claim (lsn, len) windows with a single
// fetch-add over the reservation cursor (the ERMIA/Skeena log-space
// allocation idiom), encode the frame in place, and publish. The stable
// prefix only ever advances to the *all-filled-through* mark — the lowest
// start offset of any still-unpublished reservation — so a hole (a window
// still being encoded while later LSNs finish) can never be exposed to
// Flush(), replication StableBytes(), or the checkpoint bLSN.
//
// Crash model: Crash() truncates the volatile tail back to the last flushed
// byte; the master record is only updated synchronously at checkpoint end
// and therefore survives.
//
// Framing: [u32 payload_len][u8 type][u32 crc32c(type + payload)][payload].
// Readers verify the CRC: a torn or corrupted stable record terminates the
// scan (treated as end of log) instead of being mis-parsed.
//
// Reading costs: recovery iterators charge log_page_read_ms per 8 KB log
// page touched — the sequential log read cost all methods share (App. B).
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <string>

#include "common/mutex.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/clock.h"
#include "wal/log_record.h"

namespace deutero {

/// Boot block naming the last completed checkpoint.
struct MasterRecord {
  Lsn bckpt_lsn = kInvalidLsn;  ///< bCkpt of the last completed checkpoint.
  Lsn eckpt_lsn = kInvalidLsn;  ///< Matching eCkpt.
  uint64_t checkpoint_count = 0;
};

class LogManager {
 public:
  struct Stats {
    uint64_t records_appended = 0;
    uint64_t bytes_appended = 0;
    uint64_t flushes = 0;
    /// Appended record counts by LogRecordType value.
    std::array<uint64_t, static_cast<size_t>(LogRecordType::kMaxType)>
        by_type{};
    uint64_t delta_bytes = 0;  ///< Payload bytes of Δ-records (App. D cost).
    uint64_t bw_bytes = 0;     ///< Payload bytes of BW-records.
  };

  LogManager(SimClock* clock, uint32_t log_page_size, double log_page_read_ms);
  ~LogManager();

  /// A claimed-but-unpublished (lsn, len) log window. Returned by Reserve();
  /// the window becomes visible to Flush()/StableBytes() only at Publish().
  struct Reservation {
    Lsn lsn = kInvalidLsn;         ///< Window start — the record's LSN.
    uint32_t payload_len = 0;
    LogRecordType type = LogRecordType::kInvalid;
    uint32_t slot = 0;             ///< In-flight table index (internal).
  };

  /// Atomically claim the window for one record of `payload_len` payload
  /// bytes: one fetch-add on the reservation cursor orders concurrent
  /// appenders without a lock. Until the matching Publish(), the window
  /// pins the all-filled-through mark at or below its start, so the stable
  /// prefix can never cover a hole. Every Reserve() MUST be Publish()ed.
  Reservation Reserve(LogRecordType type, uint32_t payload_len);

  /// Encode frame + payload into the reserved window and retire the
  /// reservation, letting the all-filled-through mark advance past every
  /// contiguous published window. `payload` must be exactly r.payload_len
  /// bytes.
  void Publish(const Reservation& r, const char* payload);

  /// Append a record to the volatile tail (Reserve + encode + Publish);
  /// returns its LSN. Thread-safe against concurrent Append/Flush. When
  /// `end_lsn` is non-null it receives the first offset past the record —
  /// the durability point a committing transaction must wait for.
  Lsn Append(const LogRecord& rec, Lsn* end_lsn = nullptr);

  /// Replication: append raw pre-framed log bytes shipped from another
  /// LogManager, immediately stable (the channel IS the stable medium).
  /// The bytes must continue this log's offset space exactly — a standby
  /// mirror starts empty and appends each pulled chunk in order, so every
  /// mirror LSN equals the primary LSN of the same record. Chunks may cut
  /// a record mid-frame: the CRC check makes the torn tail invisible to
  /// readers until the next chunk completes it.
  void AppendShipped(Slice raw);

  /// Replication: the stable bytes [from, stable_end()) — what a channel
  /// publishes. The slice aliases the log buffer (valid until the next
  /// growth/Crash/RestoreSnapshot; take it under the publish lock and copy).
  Slice StableBytes(Lsn from) const {
    const Lsn stable = stable_end();
    if (from >= stable) return Slice();
    return Slice(raw() + from, stable - from);
  }

  /// Zero-copy random-access decode of the stable record at `lsn` (the
  /// standby applier re-reads buffered operations by mirror offset). No
  /// I/O charge; the view aliases the log buffer under the usual
  /// generation rule.
  Status ViewRecordAt(Lsn lsn, LogRecordView* out);

  /// Advance the stable prefix to the all-filled-through mark. Returns true
  /// if the mark moved (a real device force); false if everything published
  /// was already stable. Thread-safe.
  bool Flush();

  /// End of the stable log: the first offset NOT covered by stable storage.
  /// A record is stable iff lsn + frame < stable_end.
  Lsn stable_end() const {
    return stable_end_.load(std::memory_order_acquire);
  }

  /// All bytes below this offset are fully encoded — no reservation hole.
  /// stable_end() never advances past it, and it never moves back (until
  /// Crash/RestoreSnapshot). O(#in-flight slots).
  Lsn filled_through() const;

  /// LSN the next append will receive (the reservation cursor). With
  /// appenders in flight this is a moving lower bound; quiesced (as in all
  /// recovery and checkpoint paths) it equals filled_through().
  Lsn next_lsn() const {
    return reserved_end_.load(std::memory_order_acquire);
  }

  /// Discard the unflushed tail (crash). Caller must have quiesced
  /// appenders (no reservation in flight).
  void Crash();

  /// The log page a pass's last charged ReadRecordAt read, and the pages
  /// it has charged. A pass keeps one across its reads (RunUndo), never
  /// the log: runtime rollbacks read the log too.
  struct PageMemo {
    int64_t page = -1;
    uint64_t pages_charged = 0;
  };

  /// Random-access read of the record at `lsn` (undo backchains: recovery's
  /// pass and runtime rollback). A record below the log end found at the
  /// last Crash() or RestoreSnapshot() is on the device and costs one log
  /// page read; one appended since is still in the log buffer and is free.
  /// With a `memo`, a read of the page it names is free too, and a charged
  /// read makes its page the memo's: consecutive reads on one page pay it
  /// once.
  Status ReadRecordAt(Lsn lsn, LogRecord* out, PageMemo* memo = nullptr);

  /// Sequential scanner over stable records, charging sequential read I/O.
  ///
  /// record() is a zero-copy view: its Slice fields alias the log buffer and
  /// its vector scratch is reused across Next(), so a steady-state scan
  /// performs no per-record heap allocation. The view (and any Slice taken
  /// from it) is invalidated by buffer growth/Crash/RestoreSnapshot on the
  /// owning log; debug builds enforce this with a generation check. All
  /// recovery passes satisfy the rule (they only append during undo, which
  /// reads via ReadRecordAt's owning records instead).
  class Iterator {
   public:
    bool Valid() const { return valid_; }
    Lsn lsn() const { return lsn_; }
    const LogRecordView& record() const {
      assert(generation_ == log_->generation() &&
             "LogRecordView used across log mutation");
      return rec_;
    }
    void Next();
    /// Payload byte count of the current record (frame length field).
    uint32_t payload_size() const { return payload_len_; }
    /// Log pages touched so far by this iterator (their sequential-read
    /// cost is charged to the clock only when charge_io was set).
    uint64_t pages_read() const { return pages_read_; }
    /// Move forward to the record at `lsn` (>= lsn()) as a new iterator
    /// there would, except that the pages this one touched already are
    /// not touched again, and the pages between the two records are not
    /// read: one cursor over a pass's ascending re-reads pays each log page
    /// once.
    void Seek(Lsn lsn);

   private:
    friend class LogManager;
    Iterator(LogManager* log, Lsn start, bool charge_io);
    void ParseCurrent();
    void ChargePagesThrough(Lsn end_offset);

    LogManager* log_ = nullptr;
    Lsn lsn_ = kInvalidLsn;
    LogRecordView rec_;
    uint32_t payload_len_ = 0;
    uint64_t generation_ = 0;  ///< log_->generation() when rec_ was parsed.
    bool valid_ = false;
    bool charge_io_ = false;
    int64_t last_charged_page_ = -1;
    uint64_t pages_read_ = 0;
  };

  /// Iterate stable records with lsn >= start.
  Iterator NewIterator(Lsn start, bool charge_io) {
    return Iterator(this, start, charge_io);
  }

  // ---- master record ----
  void WriteMaster(const MasterRecord& m) { master_ = m; }
  const MasterRecord& master() const { return master_; }

  // ---- snapshot/restore for side-by-side experiments ----
  struct Snapshot {
    std::string stable_log;
    MasterRecord master;
  };
  Snapshot TakeSnapshot() const;
  void RestoreSnapshot(const Snapshot& snap);

  // Unlatched reference to the counters, for quiesced reads only (tests,
  // post-pass reporting). The analysis cannot express "no appender is
  // live"; StatsSnapshot() is the latched form for concurrent use.
  const Stats& stats() const NO_THREAD_SAFETY_ANALYSIS { return stats_; }
  /// Copy of the counters taken under the stats mutex — the form to use
  /// while appender threads are live (stats() is for quiesced reads).
  Stats StatsSnapshot() const {
    MutexLock lk(&stats_mu_);
    return stats_;
  }
  void ResetStats() {
    MutexLock lk(&stats_mu_);
    stats_ = Stats();
  }

  uint32_t log_page_size() const { return log_page_size_; }

  /// Bumped by every operation that may invalidate outstanding
  /// LogRecordViews: buffer growth (which may relocate storage), Crash(),
  /// RestoreSnapshot(). (Before PR 8 every Append bumped it; now an append
  /// whose window fits in committed capacity leaves views intact — the
  /// bytes they alias never move.) Iterators capture it at parse time;
  /// tests and debug asserts compare.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// RAII witness of the zero-copy aliasing contract over a whole scan or
  /// pass: captures the generation at construction; Intact() (and a debug
  /// assert on destruction) verify no growth/Crash/RestoreSnapshot has
  /// invalidated outstanding LogRecordViews — or Slices handed off from
  /// them — since. The parallel redo pipeline holds one for the pass
  /// lifetime: its work items carry Slices aliasing the log buffer across
  /// threads, which is sound exactly while the generation is unchanged.
  class AliasGuard {
   public:
    explicit AliasGuard(const LogManager* log)
        : log_(log), generation_(log->generation()) {}
    ~AliasGuard() {
      assert(Intact() && "log mutated while aliased views were live");
    }
    AliasGuard(const AliasGuard&) = delete;
    AliasGuard& operator=(const AliasGuard&) = delete;
    bool Intact() const { return log_->generation() == generation_; }

   private:
    const LogManager* log_;
    uint64_t generation_;
  };

  /// Test-only: flip one bit of the stable log (corruption injection).
  void CorruptByteForTest(Lsn offset) {
    if (offset < next_lsn()) raw()[offset] ^= 0x40;
  }

 private:
  static constexpr uint32_t kFrameSize = 9;  // u32 len + u8 type + u32 crc
  /// Concurrent reservations simultaneously between fetch-add and Publish.
  /// Excess claimants spin-yield for a slot; 64 comfortably covers any
  /// plausible appender-thread count.
  static constexpr uint32_t kInflightSlots = 64;
  static constexpr uint64_t kSlotFree = ~uint64_t{0};

  /// Parse and verify the frame at `lsn`; returns false if it does not lie
  /// fully within [kFirstLsn, limit) or fails the CRC.
  bool ParseFrame(Lsn lsn, Lsn limit, LogRecordType* type,
                  uint32_t* payload_len) const;

  char* raw() { return base_.load(std::memory_order_acquire); }
  const char* raw() const { return base_.load(std::memory_order_acquire); }

  /// Claim an in-flight slot holding a conservative lower bound of the
  /// upcoming reservation's start (stored BEFORE the fetch-add, so a
  /// concurrent filled_through() can never miss the window).
  uint32_t ClaimSlot();
  /// Grow committed capacity to cover [0, end), quiescing in-flight
  /// Publish() encoders first. Bumps the generation.
  void EnsureCapacity(uint64_t end) EXCLUDES(grow_mu_);
  /// Resize the buffer to `capacity` bytes (realloc: its slack is never
  /// written) and bump the generation. Encoders must be quiesced.
  void Reallocate(uint64_t capacity) REQUIRES(grow_mu_);
  /// Encoder token around raw-byte writes; growth waits for zero holders.
  void EnterFill() EXCLUDES(grow_mu_);
  void ExitFill() EXCLUDES(grow_mu_);
  void NoteAppendStats(LogRecordType type, uint32_t payload_len)
      EXCLUDES(stats_mu_);
  /// Single-threaded reset of all cursors to the log end `end`
  /// (constructor, Crash, RestoreSnapshot).
  void ResetCursors(Lsn end) REQUIRES(grow_mu_);

  SimClock* clock_;
  const uint32_t log_page_size_;
  const double log_page_read_ms_;

  /// The log buffer: base_[offset] is the log byte at LSN == offset;
  /// offset 0 is a pad so that kInvalidLsn (0) can never address a record.
  /// A malloc'd block of capacity_ bytes that this manager owns. Only bytes
  /// below the reservation cursor are ever read, so the block grows by
  /// realloc without writing its slack, and Crash() and RestoreSnapshot()
  /// keep its capacity: the bytes past the new end are stale, never zeroed.
  /// base_ and capacity_ change only under grow_mu_ with encoders quiesced
  /// (growth, crash, restore — all cold).
  std::atomic<char*> base_{nullptr};
  std::atomic<uint64_t> capacity_{0};  ///< Committed writable frontier.

  std::atomic<uint64_t> generation_{0};
  std::atomic<Lsn> reserved_end_{kFirstLsn};  ///< Reservation cursor.
  std::atomic<Lsn> stable_end_{kFirstLsn};
  /// Log end at the last Crash()/RestoreSnapshot(): the records below it
  /// are on the device (ReadRecordAt charges a page read for them).
  Lsn device_end_ = kFirstLsn;
  /// In-flight reservation table: start offset of each unpublished window
  /// (kSlotFree when empty). filled_through() = min over these and
  /// reserved_end_, never below filled_mark_.
  std::array<std::atomic<uint64_t>, kInflightSlots> inflight_;
  /// Highest filled_through() result so far (it writes this from a const
  /// method, hence mutable).
  mutable std::atomic<Lsn> filled_mark_{kFirstLsn};

  // Growth quiesce: EnsureCapacity waits out any other grower, sets
  // growth_pending_, waits for fillers_ == 0, resizes, publishes
  // base_/capacity_, clears the flag.
  // mutable: TakeSnapshot() is logically const but reads the buffer under
  // it.
  mutable Mutex grow_mu_;
  CondVar grow_cv_;
  std::atomic<uint64_t> fillers_{0};
  std::atomic<bool> growth_pending_{false};

  MasterRecord master_;
  mutable Mutex stats_mu_;
  Stats stats_ GUARDED_BY(stats_mu_);
};

}  // namespace deutero
