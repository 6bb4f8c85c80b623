#include "recovery/page_repairer.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <unordered_set>

#include "btree/btree.h"
#include "btree/node.h"
#include "common/slice.h"
#include "dc/data_component.h"
#include "storage/catalog.h"
#include "storage/page.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace deutero {

PageRepairer::PageRepairer(LogManager* log, DataComponent* dc,
                           uint32_t page_size)
    : log_(log), dc_(dc), page_size_(page_size) {}

void PageRepairer::CaptureArchive() {
  // Scrub before capture: a latent bit flip may have rotted a stable page
  // since the last capture, and archiving the rot would poison every
  // future repair of that page. Verify each image and rebuild failures
  // from the PREVIOUS archive (+ log tail) first — RepairFrame writes the
  // healed image back to the device — so the new archive holds only
  // verified pages. Failures are left in place: with no prior archive
  // there is nothing better to record, and a later repair attempt will
  // surface the same error to the caller.
  if (has_archive()) {
    SimDisk& disk = dc_->disk();
    std::vector<uint8_t> scratch(page_size_);
    for (PageId pid = 0; pid < disk.num_pages(); pid++) {
      if (VerifyPageChecksum(disk.ImageData(pid), page_size_)) continue;
      (void)RepairFrame(pid, scratch.data());
    }
  }
  archive_ = dc_->disk().SnapshotImage();
  // Replay boundary: the oldest change NOT reflected in the archived
  // images is the minimum first-dirty LSN over the cache; with nothing
  // dirty, everything logged so far is reflected.
  std::vector<std::pair<PageId, Lsn>> dirty;
  dc_->pool().CollectDirtyPages(&dirty);
  Lsn lsn = log_->next_lsn();
  for (const auto& [pid, first_dirty] : dirty) {
    lsn = std::min(lsn, first_dirty);
  }
  archive_lsn_ = lsn;
  stats_.archive_captures++;
}

Status PageRepairer::RepairFrame(PageId pid, uint8_t* frame_data) {
  if (!has_archive()) {
    stats_.failed_repairs++;
    return Status::NotFound("no media archive captured");
  }
  // Base image: the archived copy, or a zero page if the page was
  // allocated after the capture (its entire history is then in the log
  // tail — the first record targeting it carries a full SMO image).
  if (pid < archive_.num_pages()) {
    std::memcpy(frame_data, archive_.page(pid), page_size_);
    if (!VerifyPageChecksum(frame_data, page_size_)) {
      stats_.failed_repairs++;
      return Status::Corruption("archived page image is itself corrupt");
    }
  } else {
    std::memset(frame_data, 0, page_size_);
  }

  // Per-page physiological redo of the tail: SMO/DDL images install under
  // the pLSN image test (mirroring normal redo's MarkDirty stamping), data
  // ops route by their pid hint under the pLSN idempotence test. Either
  // way the final pLSN is the LSN of the last record targeting the page —
  // which is why this converges to the same bytes whether it runs
  // mid-redo or long after recovery.
  PageView page(frame_data, page_size_);
  std::map<TableId, uint32_t> ddl_value_size;  // tables born inside the tail
  for (auto it = log_->NewIterator(archive_lsn_, /*charge_io=*/false);
       it.Valid(); it.Next()) {
    const LogRecordView& rec = it.record();
    if (rec.type == LogRecordType::kSmo ||
        rec.type == LogRecordType::kSmoMerge ||
        rec.type == LogRecordType::kCreateTable) {
      if (rec.type == LogRecordType::kCreateTable) {
        ddl_value_size[rec.table_id] = rec.ddl_value_size;
      }
      for (const auto& img : rec.smo_pages) {
        if (img.pid != pid) continue;
        if (img.image.size() != page_size_) {
          stats_.failed_repairs++;
          return Status::Corruption("SMO image size mismatch");
        }
        if (page.plsn() >= rec.lsn) continue;
        std::memcpy(frame_data, img.image.data(), page_size_);
        page.set_plsn(rec.lsn);
        stats_.images_installed++;
      }
      continue;
    }
    if (!rec.IsRedoableDataOp() || rec.pid != pid) continue;
    if (rec.lsn <= page.plsn()) continue;
    uint32_t value_size = 0;
    if (auto ddl = ddl_value_size.find(rec.table_id);
        ddl != ddl_value_size.end()) {
      value_size = ddl->second;
    } else if (const TableInfo* info = dc_->catalog().Find(rec.table_id)) {
      value_size = info->value_size;
    } else {
      stats_.failed_repairs++;
      return Status::Corruption("repair hit a record of an unknown table");
    }
    int64_t unused_delta = 0;  // row counters are the recovery scan's job
    const Status s = LeafApplyRecord(page, value_size, rec.type, rec.key,
                                     rec.after, &unused_delta);
    if (!s.ok()) {
      stats_.failed_repairs++;
      return s;
    }
    page.set_plsn(rec.lsn);
    stats_.records_replayed++;
  }

  // Write the repaired image back: the cache may evict this frame clean,
  // and the next read must not trip over the old corrupt image.
  StampPageChecksum(frame_data, page_size_);
  dc_->disk().WriteImageDirect(pid, frame_data);
  stats_.archive_repairs++;
  return Status::OK();
}

Status PageRepairer::RepairFromSource(PageId pid, RepairSource* source) {
  if (source == nullptr) {
    stats_.failed_repairs++;
    return Status::InvalidArgument("no repair source attached");
  }
  // The replay below sees only STABLE records; force the tail first so
  // every operation already applied to the cache is in scope.
  log_->Flush();

  // Locate the leaf in some table's index: its key range is the fence
  // interval of the index path leading to it. Pages no index references
  // (internal pages, free pages) cannot be rebuilt from rows.
  TableId owner = kInvalidTableId;
  Key lo = 0;
  Key hi = 0;
  bool bounded = false;
  for (const TableInfo& info : dc_->catalog().tables()) {
    BTree* tree = dc_->FindTable(info.id);
    if (tree == nullptr) continue;
    const Status s = tree->LeafRangeByPid(pid, &lo, &hi, &bounded);
    if (s.ok()) {
      owner = info.id;
      break;
    }
    if (!s.IsNotFound()) return s;
  }
  if (owner == kInvalidTableId) {
    stats_.failed_repairs++;
    return Status::NotFound(
        "no index references the page (only leaves have a remote repair)");
  }
  const uint32_t value_size = dc_->catalog().Find(owner)->value_size;
  const Key hi_incl = bounded ? hi - 1 : std::numeric_limits<Key>::max();

  std::vector<std::pair<Key, std::string>> fetched;
  Lsn boundary = kInvalidLsn;
  DEUTERO_RETURN_NOT_OK(
      source->FetchRows(owner, lo, hi_incl, &fetched, &boundary));
  std::map<Key, std::string> content(fetched.begin(), fetched.end());

  // The fetched rows reflect exactly the transactions whose commit record
  // is wholly at or below the boundary. Replaying every other
  // transaction's in-range ops ON TOP, in LSN order, yields the current
  // content: per-key lock serialization means a reflected transaction's
  // write to a key always precedes (in LSN) any unreflected one's, and
  // losers' ops are either compensated by their own later CLRs (also
  // unreflected) or — during a recovery retry — by the CLRs the upcoming
  // undo pass will route through the normal apply path.
  std::unordered_set<TxnId> reflected;
  {
    auto it = log_->NewIterator(kFirstLsn, /*charge_io=*/false);
    while (it.Valid()) {
      const bool is_commit = it.record().type == LogRecordType::kTxnCommit;
      const TxnId txn = it.record().txn_id;
      it.Next();  // the next record's start is this record's end
      const Lsn end = it.Valid() ? it.lsn() : log_->stable_end();
      if (is_commit && end <= boundary) reflected.insert(txn);
    }
  }
  Lsn covered = boundary;
  for (auto it = log_->NewIterator(kFirstLsn, /*charge_io=*/false);
       it.Valid(); it.Next()) {
    const LogRecordView& rec = it.record();
    covered = std::max(covered, rec.lsn);
    if (!rec.IsRedoableDataOp()) continue;
    if (rec.table_id != owner || rec.key < lo || rec.key > hi_incl) continue;
    if (reflected.count(rec.txn_id) != 0) continue;
    const bool is_erase = rec.type == LogRecordType::kDelete ||
                          (rec.type == LogRecordType::kClr && rec.after.empty());
    if (is_erase) {
      content.erase(rec.key);
    } else {
      content[rec.key].assign(rec.after.data(), rec.after.size());
    }
    stats_.records_replayed++;
  }

  // Rebuild the leaf. The sibling link re-derives from the index (the
  // right neighbor is the leaf owning the upper fence); pLSN = the top of
  // the replay window, which is >= every reflected record and < any
  // future one.
  std::vector<uint8_t> buf(page_size_, 0);
  PageView page(buf.data(), page_size_);
  page.Format(pid, PageType::kLeaf, /*level=*/0);
  LeafNodeView leaf(page, value_size);
  if (content.size() > leaf.capacity()) {
    stats_.failed_repairs++;
    return Status::Corruption("rebuilt leaf overflows its page");
  }
  for (const auto& [key, value] : content) {
    if (value.size() != value_size) {
      stats_.failed_repairs++;
      return Status::Corruption("fetched row has the wrong value size");
    }
    leaf.InsertAt(leaf.count(), key,
                  reinterpret_cast<const uint8_t*>(value.data()));
  }
  PageId right = kInvalidPageId;
  if (bounded) {
    DEUTERO_RETURN_NOT_OK(dc_->FindLeaf(owner, hi, &right));
  }
  page.set_right_sibling(right);
  page.set_plsn(covered);
  StampPageChecksum(buf.data(), page_size_);
  dc_->disk().WriteImageDirect(pid, buf.data());
  stats_.remote_repairs++;
  return Status::OK();
}

}  // namespace deutero
