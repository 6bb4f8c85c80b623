#include "core/txn.h"

#include "core/engine.h"

namespace deutero {

Status Table::Read(Key key, std::string* value) const {
  if (!valid()) return Status::InvalidArgument("invalid table handle");
  return engine_->Read(id_, key, value);
}

Status Table::Scan(Key lo, Key hi, ScanCursor* out) const {
  if (!valid()) return Status::InvalidArgument("invalid table handle");
  return engine_->Scan(id_, lo, hi, out);
}

Txn& Txn::operator=(Txn&& other) noexcept {
  if (this != &other) {
    if (active()) (void)Abort();
    engine_ = other.engine_;
    id_ = other.id_;
    other.engine_ = nullptr;
    other.id_ = kInvalidTxnId;
  }
  return *this;
}

Txn::~Txn() {
  // Auto-abort: a Txn dropped mid-flight rolls back. After a crash the TC
  // no longer knows the id; the abort is then a harmless no-op error.
  if (active()) (void)Abort();
}

Status Txn::CheckUsable(const Table& table) const {
  if (!active()) return Status::InvalidArgument("txn is not active");
  if (!table.valid()) return Status::InvalidArgument("invalid table handle");
  if (table.engine_ != engine_) {
    return Status::InvalidArgument("table handle from a different engine");
  }
  return Status::OK();
}

Status Txn::Update(const Table& table, Key key, Slice value) {
  DEUTERO_RETURN_NOT_OK(CheckUsable(table));
  return engine_->TxnWrite(LogRecordType::kUpdate, id_, table.id(), key,
                           value);
}

Status Txn::Insert(const Table& table, Key key, Slice value) {
  DEUTERO_RETURN_NOT_OK(CheckUsable(table));
  return engine_->TxnWrite(LogRecordType::kInsert, id_, table.id(), key,
                           value);
}

Status Txn::Delete(const Table& table, Key key) {
  DEUTERO_RETURN_NOT_OK(CheckUsable(table));
  return engine_->TxnWrite(LogRecordType::kDelete, id_, table.id(), key,
                           Slice());
}

Status Txn::Read(const Table& table, Key key, std::string* value) {
  DEUTERO_RETURN_NOT_OK(CheckUsable(table));
  return engine_->TxnRead(id_, table.id(), key, value);
}

Status Txn::Apply(const Table& table, const WriteBatch& batch) {
  for (const WriteBatch::Op& op : batch.ops_) {
    Status st;
    switch (op.type) {
      case WriteBatch::OpType::kUpdate:
        st = Update(table, op.key, batch.ValueOf(op));
        break;
      case WriteBatch::OpType::kInsert:
        st = Insert(table, op.key, batch.ValueOf(op));
        break;
      case WriteBatch::OpType::kDelete:
        st = Delete(table, op.key);
        break;
    }
    DEUTERO_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

Status Txn::Commit() {
  if (!active()) return Status::InvalidArgument("txn is not active");
  const Status st = engine_->TxnCommit(id_);
  if (st.ok()) Release();
  return st;
}

Status Txn::Abort() {
  if (!active()) return Status::InvalidArgument("txn is not active");
  Engine* e = engine_;
  const TxnId id = id_;
  Release();  // the handle is done regardless of the engine's answer
  return e->TxnAbort(id);
}

}  // namespace deutero
