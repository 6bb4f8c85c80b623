// Single-page media repair by logical redo (the flip side of the paper's
// thesis: a logical log that can rebuild the whole database can just as
// well rebuild ONE page). Two repair paths, tried in this order:
//
//  1. Archive repair (RepairFrame): base = the page's image in the media
//     archive (a snapshot of the stable device that shares its pages,
//     captured at every completed checkpoint when EngineOptions::
//     media_archive is on), then replay the log tail from the archive
//     boundary restricted to records targeting the page — SMO/DDL
//     after-images via the pLSN image test, data ops and CLRs routed by
//     their physiological pid hint through the one leaf write,
//     LeafApplyRecord. The replay is exactly per-page physiological
//     redo, so the rebuilt image is byte-identical to what unbroken operation
//     would have left, regardless of recovery method or of WHEN the repair
//     runs (mid-redo or post-recovery): the final pLSN is the LSN of the
//     last record targeting the page either way.
//
//  2. Remote repair (RepairFromSource): when no archive covers the page,
//     fetch the committed rows of the page's key range from a RepairSource
//     (a hot standby over the replication channel), then replay the ops of
//     every transaction NOT yet committed at the source's boundary. Needs
//     the index structure to be current — the leaf's key range is found by
//     index descent — so it runs at engine level: after recovery, or
//     between recovery attempts once the DC pass has installed all SMOs
//     (logical methods replay every SMO before first touching a leaf).
//     Internal pages cannot be rebuilt from rows; they need the archive.
//
// RepairFrame is the BufferPool's repair callback. It must not re-enter
// the pool (it runs inside the pool's miss path, under miss_mu_), and it
// does not: it works on the caller's frame bytes, the log, the catalog,
// and the stable device only. Repair I/O is charged no simulated time —
// it stands in for an out-of-band path (archive device / network) the
// cost model does not cover.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "sim/sim_disk.h"

namespace deutero {

class DataComponent;
class LogManager;

/// Supplier of committed rows for remote repair. `hi` is inclusive;
/// *as_of receives the LSN boundary the rows reflect: every transaction
/// with a commit record wholly at or below it is included, no others.
/// Reporting a boundary EARLIER than the actual scan snapshot is safe
/// (those transactions' ops replay idempotently on top); later is not.
class RepairSource {
 public:
  virtual ~RepairSource() = default;
  virtual Status FetchRows(TableId table, Key lo, Key hi,
                           std::vector<std::pair<Key, std::string>>* rows,
                           Lsn* as_of) = 0;
};

class PageRepairer {
 public:
  struct Stats {
    uint64_t archive_captures = 0;
    uint64_t archive_repairs = 0;   ///< Pages rebuilt from archive + log.
    uint64_t remote_repairs = 0;    ///< Pages rebuilt from a RepairSource.
    uint64_t failed_repairs = 0;
    uint64_t records_replayed = 0;  ///< Data ops re-applied during repairs.
    uint64_t images_installed = 0;  ///< SMO/DDL after-images installed.
  };

  /// The archive is stable state (conceptually a separate backup device):
  /// it survives crashes and participates in Engine stable snapshots.
  struct ArchiveSnapshot {
    DiskImage image;
    Lsn lsn = kInvalidLsn;
  };

  PageRepairer(LogManager* log, DataComponent* dc, uint32_t page_size);

  /// Snapshot the stable device into the archive and record the replay
  /// boundary: the oldest first-dirty LSN still in the cache (everything
  /// before it is reflected in the archived images). Wired to the DC's
  /// catalog-persisted hook, i.e. runs at every completed checkpoint and
  /// at end of recovery.
  void CaptureArchive();
  bool has_archive() const { return archive_lsn_ != kInvalidLsn; }
  Lsn archive_lsn() const { return archive_lsn_; }

  /// BufferPool repair callback: rebuild `pid` into `frame_data`
  /// (page_size bytes), stamp its checksum, and write the repaired image
  /// back to the stable device. No pool access.
  Status RepairFrame(PageId pid, uint8_t* frame_data);

  /// Rebuild leaf `pid` from a remote source (see the header comment for
  /// when this is legal) and write it to the stable device. The page must
  /// not be cached (the failed read that detected the corruption already
  /// dropped its frame).
  Status RepairFromSource(PageId pid, RepairSource* source);

  ArchiveSnapshot TakeArchive() const { return {archive_, archive_lsn_}; }
  void RestoreArchive(const ArchiveSnapshot& snap) {
    archive_ = snap.image;
    archive_lsn_ = snap.lsn;
  }

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

 private:
  LogManager* log_;
  DataComponent* dc_;
  const uint32_t page_size_;
  DiskImage archive_;
  Lsn archive_lsn_ = kInvalidLsn;
  Stats stats_;
};

}  // namespace deutero
