// First-class handles of the public API:
//
//  * Txn — an RAII transaction obtained from Engine::Begin(Txn*). Move-only;
//    a Txn that goes out of scope without Commit() aborts itself, so no code
//    path can leak an active transaction. It is the only transaction API:
//    every write, commit and abort goes through one.
//  * Table — a handle resolved once from the catalog (Engine::OpenTable);
//    carries the table id and schema so per-operation code never re-states
//    raw TableIds. Reads and snapshot scans hang off the Table.
//  * WriteBatch — a reusable buffer of Update/Insert/Delete operations
//    applied atomically under one transaction with a single commit-record
//    flush (Engine::Apply), or folded into an open Txn (Txn::Apply).
//    Values live in one arena string, so Clear() retains capacity and a
//    steady-state build/apply cycle is allocation-free.
//
// Typical use:
//
//   Table t;
//   db->OpenTable(kDefaultTableId, &t);
//   Txn txn;
//   db->Begin(&txn);
//   txn.Insert(t, 42, value);
//   txn.Delete(t, 7);
//   txn.Commit();                      // omitted -> auto-abort at scope end
//   for (ScanCursor c; t.Scan(0, 99, &c).ok() && c.Valid(); c.Next()) ...
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace deutero {

class Engine;
class Table;

/// Atomic multi-operation unit. Table-agnostic: the target table is bound
/// at apply time. Reusable: Clear() keeps the op and value capacity.
class WriteBatch {
 public:
  void Update(Key key, Slice value) { Push(OpType::kUpdate, key, value); }
  void Insert(Key key, Slice value) { Push(OpType::kInsert, key, value); }
  void Delete(Key key) { Push(OpType::kDelete, key, Slice()); }

  void Clear() {
    ops_.clear();
    arena_.clear();
  }
  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

 private:
  friend class Txn;
  enum class OpType : uint8_t { kUpdate = 0, kInsert = 1, kDelete = 2 };
  struct Op {
    OpType type;
    Key key;
    uint32_t offset;  ///< Value bytes at arena_[offset, offset + len).
    uint32_t len;
  };

  void Push(OpType type, Key key, Slice value) {
    ops_.push_back(Op{type, key, static_cast<uint32_t>(arena_.size()),
                      static_cast<uint32_t>(value.size())});
    arena_.append(value.data(), value.size());
  }
  Slice ValueOf(const Op& op) const {
    return Slice(arena_.data() + op.offset, op.len);
  }

  std::vector<Op> ops_;
  std::string arena_;  ///< All op values, back to back.
};

/// Catalog-resolved table handle. Copyable and cheap; remains valid across
/// crash/recovery cycles of the owning engine (it names the table, not the
/// in-memory tree). Must not outlive the Engine.
class Table {
 public:
  Table() = default;

  bool valid() const { return engine_ != nullptr; }
  TableId id() const { return id_; }
  uint32_t value_size() const { return value_size_; }

  /// Lock-free snapshot point read.
  Status Read(Key key, std::string* value) const;
  /// Open a snapshot cursor over keys in [lo, hi] (inclusive).
  Status Scan(Key lo, Key hi, ScanCursor* out) const;

 private:
  friend class Engine;
  friend class Txn;
  Table(Engine* engine, TableId id, uint32_t value_size)
      : engine_(engine), id_(id), value_size_(value_size) {}

  Engine* engine_ = nullptr;
  TableId id_ = kInvalidTableId;
  uint32_t value_size_ = 0;
};

/// RAII transaction handle. Move-only; aborts itself on destruction unless
/// committed or aborted explicitly. Must not outlive the Engine.
/// [[nodiscard]]: a Txn returned and immediately dropped aborts instantly,
/// which is never what the caller meant.
class [[nodiscard]] Txn {
 public:
  Txn() = default;
  Txn(Txn&& other) noexcept { *this = std::move(other); }
  Txn& operator=(Txn&& other) noexcept;
  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;
  ~Txn();

  /// True between a successful Engine::Begin and Commit/Abort.
  bool active() const { return engine_ != nullptr; }
  TxnId id() const { return id_; }

  Status Update(const Table& table, Key key, Slice value);
  Status Insert(const Table& table, Key key, Slice value);
  Status Delete(const Table& table, Key key);
  /// Locked read (shared lock; released at commit/abort).
  Status Read(const Table& table, Key key, std::string* value);
  /// Fold every batch operation into this transaction, in order. Stops at
  /// the first failing operation (the caller decides whether to abort).
  Status Apply(const Table& table, const WriteBatch& batch);

  Status Commit();
  Status Abort();

  /// Drop the handle without touching the engine (crash scenarios: the
  /// engine already discarded the transaction).
  void Release() {
    engine_ = nullptr;
    id_ = kInvalidTxnId;
  }

 private:
  friend class Engine;
  Txn(Engine* engine, TxnId id) : engine_(engine), id_(id) {}

  /// Active, and `table` is a valid handle of THIS transaction's engine
  /// (a handle from another engine would silently address the same-id
  /// table of the wrong database).
  Status CheckUsable(const Table& table) const;

  Engine* engine_ = nullptr;
  TxnId id_ = kInvalidTxnId;
};

}  // namespace deutero
