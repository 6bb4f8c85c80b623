#include "dc/data_component.h"

#include <cassert>
#include <cmath>
#include <vector>

#include "btree/node.h"
#include "storage/page.h"

namespace deutero {

namespace {

/// The watermark curve's cache_exp (see below).
constexpr double kLazyWriterExponent = 0.67;
/// Every table's merge_fill, the delete-side SMO trigger (see BTree).
constexpr double kLeafMergeFill = 0.25;

/// Dirty watermark curve (DESIGN.md §5 / Fig. 2(b)+Fig. 3 calibration): the
/// background writer flushes the oldest-dirtied pages whenever the dirty
/// count exceeds
///   base * ref * (cache / ref)^cache_exp * sqrt(interval / ref_interval).
uint64_t ComputeDirtyWatermark(const EngineOptions& o) {
  if (o.lazy_writer_base_fraction <= 0) return 0;  // disabled
  const double ref =
      static_cast<double>(o.lazy_writer_reference_cache_pages);
  const double cache = static_cast<double>(o.cache_pages);
  double wm = o.lazy_writer_base_fraction * ref *
              std::pow(cache / ref, kLazyWriterExponent);
  if (o.lazy_writer_reference_interval != 0) {
    wm *= std::sqrt(static_cast<double>(o.checkpoint_interval_updates) /
                    static_cast<double>(o.lazy_writer_reference_interval));
  }
  return wm < 1 ? 1 : static_cast<uint64_t>(wm);
}

}  // namespace

DataComponent::DataComponent(SimClock* clock, LogManager* log,
                             const EngineOptions& opts)
    : options_(opts), clock_(clock), log_(log), allocator_(nullptr, 1) {
  disk_ = std::make_unique<SimDisk>(clock_, opts.page_size, opts.io);
  allocator_ = PageAllocator(disk_.get(), 1);
  pool_ = std::make_unique<BufferPool>(clock_, disk_.get(), opts.cache_pages,
                                       opts.page_size,
                                       opts.io.max_batch_pages);
  monitor_ = std::make_unique<DirtyPageMonitor>(log_, opts);
  monitor_->set_elsn_provider([this] { return elsn(); });

  pool_->set_dirty_callback([this](PageId pid, Lsn lsn, bool /*was_clean*/) {
    monitor_->OnPageDirtied(pid, lsn);
  });
  pool_->set_flush_callback([this](PageId pid, Lsn plsn) {
    monitor_->OnPageFlushed(pid, plsn);
  });
  pool_->set_stable_lsn_provider([this] { return elsn(); });
  pool_->set_dirty_watermark(ComputeDirtyWatermark(opts));
}

void DataComponent::set_wal_force(std::function<void(Lsn)> f) {
  pool_->set_wal_force_callback(std::move(f));
}

std::unique_ptr<BTree> DataComponent::MakeTree(const TableInfo& info) const {
  auto tree = std::make_unique<BTree>(
      clock_, disk_.get(), pool_.get(),
      const_cast<PageAllocator*>(&allocator_), log_, info.root_pid,
      options_.page_size, info.value_size, options_.leaf_fill_fraction,
      options_.io.cpu_per_btree_level_us, monitor_.get(), kLeafMergeFill);
  tree->set_height(info.height);
  tree->set_row_count(info.num_rows);
  return tree;
}

Status DataComponent::CreateDatabase(
    const std::function<void(Key, uint8_t*)>& value_gen) {
  catalog_.Clear();
  allocator_.Reset(1);
  disk_->EnsurePages(2);

  TableInfo info;
  info.id = options_.table_id;
  info.root_pid = allocator_.Allocate();  // == kRootPageId
  info.value_size = options_.value_size;
  DEUTERO_RETURN_NOT_OK(catalog_.Add(info));

  auto tree = MakeTree(info);
  DEUTERO_RETURN_NOT_OK(tree->BulkLoad(options_.num_rows, value_gen));
  tables_[info.id] = std::move(tree);
  PersistCatalog();
  return Status::OK();
}

Status DataComponent::OpenDatabase() {
  DEUTERO_RETURN_NOT_OK(
      Catalog::ReadFrom(*disk_, options_.page_size, &catalog_));
  allocator_.Reset(catalog_.next_page_id(), catalog_.free_list(),
                   catalog_.index_extent());
  tables_.clear();
  for (const TableInfo& info : catalog_.tables()) {
    tables_[info.id] = MakeTree(info);
  }
  if (catalog_.Find(options_.table_id) == nullptr) {
    return Status::Corruption("default table missing from catalog");
  }
  return Status::OK();
}

Status DataComponent::CreateTable(TableId table, uint32_t value_size) {
  if (value_size == 0 ||
      value_size > options_.page_size - kPageHeaderSize - 8) {
    return Status::InvalidArgument("bad value size");
  }
  if (catalog_.Find(table) != nullptr) {
    return Status::InvalidArgument("table already exists");
  }
  if (catalog_.tables().size() >= Catalog::MaxTables(options_.page_size)) {
    return Status::InvalidArgument("catalog full for the meta page");
  }
  TableInfo info;
  info.id = table;
  info.root_pid = allocator_.Allocate();
  info.value_size = value_size;
  DEUTERO_RETURN_NOT_OK(catalog_.Add(info));

  // Materialize the empty root in the cache and commit the DDL as a system
  // transaction: one kCreateTable record carrying the root image.
  PageHandle h;
  DEUTERO_RETURN_NOT_OK(pool_->Create(info.root_pid, PageClass::kData, &h));
  PageView root = h.view();
  root.Format(info.root_pid, PageType::kLeaf, 0);

  DirtyPageMonitor::AtomicScope ddl_scope(monitor_.get());
  const Lsn lsn = log_->next_lsn();
  h.MarkDirty(lsn);
  LogRecord rec;
  rec.type = LogRecordType::kCreateTable;
  rec.table_id = table;
  rec.pid = info.root_pid;
  rec.ddl_value_size = value_size;
  allocator_.Stamp(&rec);
  rec.smo_pages.push_back(
      {info.root_pid,
       std::string(reinterpret_cast<const char*>(root.data()),
                   options_.page_size)});
  const Lsn got = log_->Append(rec);
  assert(got == lsn);
  (void)got;

  tables_[table] = MakeTree(info);
  return Status::OK();
}

template <typename RecordT>
Status DataComponent::RedoCreateTable(const RecordT& rec) {
  if (catalog_.Find(rec.table_id) == nullptr) {
    TableInfo info;
    info.id = rec.table_id;
    info.root_pid = rec.pid;
    info.value_size = rec.ddl_value_size;
    DEUTERO_RETURN_NOT_OK(catalog_.Add(info));
    tables_[rec.table_id] = MakeTree(info);
  }
  return RedoSmo(rec);  // installs the root image if it predates the record
}

template Status DataComponent::RedoCreateTable<LogRecord>(const LogRecord&);
template Status DataComponent::RedoCreateTable<LogRecordView>(
    const LogRecordView&);

BTree* DataComponent::FindTable(TableId table) {
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : it->second.get();
}

Status DataComponent::ValidateValue(TableId table, size_t value_size) {
  BTree* tree = FindTable(table);
  if (tree == nullptr) return Status::NotFound("unknown table");
  if (value_size != tree->value_size()) {
    return Status::InvalidArgument("value size mismatch for table");
  }
  return Status::OK();
}

Status DataComponent::FindLeaf(TableId table, Key key, PageId* pid) {
  BTree* tree = FindTable(table);
  if (tree == nullptr) return Status::NotFound("unknown table");
  return tree->Find(key, pid);
}

Status DataComponent::FindLeafRanged(TableId table, Key key, PageId* pid,
                                     Key* lo, Key* hi, bool* bounded) {
  BTree* tree = FindTable(table);
  if (tree == nullptr) return Status::NotFound("unknown table");
  return tree->FindRanged(key, pid, lo, hi, bounded);
}

Status DataComponent::LocateForUpdate(TableId table, Key key, PageId* pid,
                                      std::string* before) {
  BTree* tree = FindTable(table);
  if (tree == nullptr) return Status::NotFound("unknown table");
  DEUTERO_RETURN_NOT_OK(tree->Find(key, pid));
  PageHandle h;
  DEUTERO_RETURN_NOT_OK(pool_->Get(*pid, PageClass::kData, &h));
  LeafNodeView leaf(h.view(), tree->value_size());
  const uint32_t i = leaf.Find(key);
  if (i == leaf.count()) return Status::NotFound("key not found");
  if (before != nullptr) {
    before->assign(reinterpret_cast<const char*>(leaf.ValueAt(i)),
                   tree->value_size());
  }
  return Status::OK();
}

Status DataComponent::PrepareInsert(TableId table, Key key, PageId* pid) {
  BTree* tree = FindTable(table);
  if (tree == nullptr) return Status::NotFound("unknown table");
  return tree->PrepareInsert(key, pid);
}

Status DataComponent::LeafContains(TableId table, PageId pid, Key key,
                                   bool* contains) {
  BTree* tree = FindTable(table);
  if (tree == nullptr) return Status::NotFound("unknown table");
  return tree->LeafContains(pid, key, contains);
}

Status DataComponent::Apply(TableId table, PageId pid, LogRecordType type,
                            Key key, Slice after, Lsn lsn, bool* underfull) {
  BTree* tree = FindTable(table);
  if (tree == nullptr) return Status::NotFound("unknown table");
  return tree->Apply(pid, type, key, after, lsn, underfull);
}

Status DataComponent::MaybeMergeLeaf(TableId table, Key key, bool* merged) {
  BTree* tree = FindTable(table);
  if (tree == nullptr) return Status::NotFound("unknown table");
  return tree->MaybeMergeLeaf(key, merged);
}

Status DataComponent::Read(TableId table, Key key, std::string* value) {
  BTree* tree = FindTable(table);
  if (tree == nullptr) return Status::NotFound("unknown table");
  return tree->Read(key, value);
}

Status DataComponent::Scan(TableId table, Key lo, Key hi, ScanCursor* out) {
  BTree* tree = FindTable(table);
  if (tree == nullptr) return Status::NotFound("unknown table");
  return tree->NewScan(lo, hi, out);
}

Status DataComponent::PreloadIndex() {
  for (auto& [id, tree] : tables_) {
    DEUTERO_RETURN_NOT_OK(tree->PreloadIndex());
  }
  return Status::OK();
}

void DataComponent::PersistCatalog() {
  for (TableInfo& info : catalog_.tables()) {
    BTree* tree = FindTable(info.id);
    if (tree == nullptr) continue;
    (void)tree->RefreshHeight();
    info.height = tree->height();
    info.num_rows = tree->row_count();
  }
  catalog_.set_next_page_id(allocator_.next_page_id());
  catalog_.set_index_extent(allocator_.index_extent());
  catalog_.set_free_list(allocator_.free_list());
  // The counters written below cover every operation logged so far: a
  // later recovery must not re-add deltas for records before this point
  // (it matters at end-of-recovery persists, which cover the whole log
  // while the master's bCkpt still points at the pre-crash checkpoint).
  catalog_.set_rows_covered_lsn(log_->next_lsn());
  catalog_.WriteTo(disk_.get(), options_.page_size);
  if (catalog_persisted_) catalog_persisted_();
}

Status DataComponent::Rssp(Lsn rssp_lsn, uint64_t* pages_flushed) {
  // Every page dirtied by an operation with LSN <= rssp_lsn was dirtied
  // before the bCkpt append (single-threaded execution), i.e. before the
  // phase flip below. The WAL rule inside FlushFrame keeps flushes legal.
  pool_->FlipCheckpointPhase();
  uint64_t flushed = 0;
  DEUTERO_RETURN_NOT_OK(pool_->FlushPhasePages(&flushed));
  if (pages_flushed != nullptr) *pages_flushed = flushed;
  LogRecord ack;
  ack.type = LogRecordType::kRsspAck;
  ack.bckpt_lsn = rssp_lsn;
  log_->Append(ack);
  return Status::OK();
}

void DataComponent::SimulateCrash() {
  // Resolve in-flight writes first: a crash tears them (fault-plan
  // sector granularity); with no fault plan this is a no-op.
  disk_->ApplyCrashTears();
  pool_->Reset();
  monitor_->Reset();
  elsn_ = kInvalidLsn;
  // The in-memory catalog and tree objects are volatile too; a restarted
  // process rebuilds them from the persisted catalog in OpenDatabase().
  tables_.clear();
  catalog_.Clear();
}

}  // namespace deutero
