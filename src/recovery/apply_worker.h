// The apply-worker skeleton of partitioned redo. A partition worker drains
// the dispatcher's SPSC ring and applies each item to the leaf it names
// through redo's apply body (redo.cc): Algorithm 1/5's DPT tests, the pLSN
// test and the leaf re-execution of a routed log record. Undo and the hot
// standby's replay have no crew: each runs one pass on its caller's thread
// at every recovery_threads (undo.h, core/replica.cc), since neither
// charges CPU that partitions could overlap.
//
// The skeleton keeps, once: the ring loop, the drain barrier, the
// failed-worker drain mode, the LRU pin cache with MarkDirty-once stamping
// and the pin budget. Workers read nothing ahead: redo reads ahead on its
// dispatcher, the same way at every partition count (redo.h). A body is a
// copyable class with
//
//   using Item = ...;                        // has a `pid` field
//   Status Apply(const Item&, PinCache*);
//
// and an Item whose pid is kInvalidPageId is the control token that makes
// a worker drop its pins (before a barrier, at the end of the pass).
//
// With one partition there are no workers: the dispatcher calls the body
// inline, with a null gate (see GateLock).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/types.h"
#include "dc/data_component.h"
#include "recovery/pipeline_util.h"
#include "storage/buffer_pool.h"

namespace deutero {

/// Scoped hold of a pipeline's pool gate: the mutex that serializes every
/// pool, disk and clock touch while workers run beside the dispatcher. A
/// one-partition pass applies on the dispatcher alone and passes a null
/// gate, so it takes no lock at all. The gate guards no annotated field;
/// the lock discipline it keeps is the pass's, not the analysis'.
class GateLock {
 public:
  explicit GateLock(Mutex* gate) NO_THREAD_SAFETY_ANALYSIS : gate_(gate) {
    if (gate_ != nullptr) gate_->Lock();
  }
  ~GateLock() NO_THREAD_SAFETY_ANALYSIS {
    if (gate_ != nullptr) gate_->Unlock();
  }
  GateLock(const GateLock&) = delete;
  GateLock& operator=(const GateLock&) = delete;

 private:
  Mutex* const gate_;
};

/// Table facts an apply body needs to run a leaf operation without
/// touching the DC's catalog structures: the fixed value size per table.
/// The dispatcher rebuilds it only while no worker is applying (pass
/// start, DDL barriers); workers read it only for items pushed after the
/// rebuild, and the ring hand-off orders the accesses.
struct TableRegistry {
  std::vector<std::pair<TableId, uint32_t>> value_sizes;

  void Refresh(DataComponent* dc) {
    value_sizes.clear();
    for (const TableInfo& info : dc->catalog().tables()) {
      BTree* tree = dc->FindTable(info.id);
      if (tree != nullptr) value_sizes.emplace_back(info.id, tree->value_size());
    }
  }
  bool Lookup(TableId id, uint32_t* value_size) const {
    for (const auto& [tid, vs] : value_sizes) {
      if (tid == id) {
        *value_size = vs;
        return true;
      }
    }
    return false;
  }
};

/// The leaves one partition holds pinned across consecutive items, least
/// recently used out first. Log locality makes runs of items hit one
/// leaf, so the gated pool calls happen once per run, not once per item.
class PinCache {
 public:
  struct Pin {
    PageId pid = kInvalidPageId;
    PageHandle handle;
    bool dirtied = false;  ///< This pass already ran MarkDirty on the pin.
    uint64_t last_use = 0;
  };

  PinCache(BufferPool* pool, Mutex* gate, uint32_t capacity)
      : pool_(pool), gate_(gate), capacity_(capacity == 0 ? 1 : capacity) {}

  Status FindOrPin(PageId pid, Pin** out) {
    use_tick_++;
    for (Pin& p : pins_) {
      if (p.pid == pid) {
        p.last_use = use_tick_;
        *out = &p;
        return Status::OK();
      }
    }
    // Miss: evict the least-recently-used slot if at capacity, then pin
    // the page — one gated section for both.
    Pin* slot = nullptr;
    if (pins_.size() < capacity_) {
      pins_.emplace_back();
      slot = &pins_.back();
    } else {
      slot = &pins_[0];
      for (Pin& p : pins_) {
        if (p.last_use < slot->last_use) slot = &p;
      }
    }
    {
      GateLock lock(gate_);
      slot->handle.Release();
      DEUTERO_RETURN_NOT_OK(pool_->Get(pid, PageClass::kData, &slot->handle));
    }
    slot->pid = pid;
    slot->dirtied = false;
    slot->last_use = use_tick_;
    *out = slot;
    return Status::OK();
  }

  /// Record that the item with `lsn` changed the pinned page. The first
  /// change runs the full gated MarkDirty (dirty transition, FIFO,
  /// first-dirty LSN); the frame then stays dirty while pinned, so later
  /// changes only stamp the pLSN — a plain write to bytes this partition
  /// owns.
  void Stamp(Pin* pin, Lsn lsn) {
    if (pin->dirtied) {
      pin->handle.view().set_plsn(lsn);
      return;
    }
    GateLock lock(gate_);
    pin->handle.MarkDirty(lsn);
    pin->dirtied = true;
  }

  void ReleaseAll() {
    if (pins_.empty()) return;
    GateLock lock(gate_);
    for (Pin& p : pins_) p.handle.Release();
    pins_.clear();
  }

 private:
  BufferPool* pool_;
  Mutex* gate_;
  const uint32_t capacity_;
  std::vector<Pin> pins_;
  uint64_t use_tick_ = 0;
};

/// Pin-cache capacity that keeps worst-case pinned frames well below pool
/// capacity even at test-sized caches: an eighth of the pool split across
/// workers, at least 1, at most 8 per worker.
inline uint32_t PinCacheCapacity(const BufferPool& pool, uint32_t threads) {
  const uint64_t per = pool.capacity() / 8 / (threads == 0 ? 1 : threads);
  if (per < 1) return 1;
  return per > 8 ? 8 : static_cast<uint32_t>(per);
}

/// One partition: a queue, a consumer thread, a pin cache and its body.
/// The dispatcher is the only producer.
template <typename Body>
class ApplyWorker {
 public:
  using Item = typename Body::Item;

  ApplyWorker(Body body, BufferPool* pool, Mutex* gate,
              uint32_t pin_cache_cap, std::atomic<uint32_t>* crew_failed)
      : body_(std::move(body)),
        pins_(pool, gate, pin_cache_cap),
        ring_(kRingCapacity),
        crew_failed_(crew_failed) {}
  /// Normally a no-op: ApplyCrew::Finish already joined. On any other
  /// exit the worker applies what is queued, then stops.
  ~ApplyWorker() {
    SignalDone();
    Join();
  }
  ApplyWorker(const ApplyWorker&) = delete;
  ApplyWorker& operator=(const ApplyWorker&) = delete;

  void Start() { thread_ = std::thread([this] { Run(); }); }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  /// Producer side: enqueue, spinning on backpressure. Safe against a dead
  /// consumer: a failed worker keeps draining (and discarding) items.
  void Push(const Item& item) {
    uint32_t spins = 0;
    while (!ring_.TryPush(item)) SpinWait(&spins);
    pushed_++;
  }

  void SignalDone() { done_.store(true, std::memory_order_release); }

  /// Barrier support: everything pushed so far has been APPLIED (not just
  /// popped).
  bool Drained() const {
    return applied_.load(std::memory_order_acquire) == pushed_;
  }

  bool failed() const { return failed_.load(std::memory_order_acquire); }
  const Status& error() const { return error_; }  ///< Valid after Join().
  const Body& body() const { return body_; }      ///< Valid after Join().

 private:
  static constexpr size_t kRingCapacity = 4096;  // power of two (SpscRing)

  void Run() {
    Item item;
    uint32_t spins = 0;
    while (true) {
      if (ring_.TryPop(&item)) {
        spins = 0;
        Process(item);
        applied_.fetch_add(1, std::memory_order_release);
        continue;
      }
      if (done_.load(std::memory_order_acquire)) {
        // Re-check the ring: the dispatcher pushes before signaling done.
        if (!ring_.TryPop(&item)) break;
        Process(item);
        applied_.fetch_add(1, std::memory_order_release);
        continue;
      }
      SpinWait(&spins);
    }
    pins_.ReleaseAll();
  }

  void Process(const Item& item) {
    if (item.pid == kInvalidPageId) {  // control: release pins
      pins_.ReleaseAll();
      return;
    }
    if (failed_.load(std::memory_order_relaxed)) return;  // drain mode
    const Status st = body_.Apply(item, &pins_);
    if (!st.ok()) {
      error_ = st;
      failed_.store(true, std::memory_order_release);
      crew_failed_->fetch_add(1, std::memory_order_release);
    }
  }

  Body body_;
  PinCache pins_;
  SpscRing<Item> ring_;
  std::atomic<uint32_t>* crew_failed_;

  uint64_t pushed_ = 0;  ///< Producer-side only.
  alignas(64) std::atomic<uint64_t> applied_{0};
  std::atomic<bool> done_{false};
  std::atomic<bool> failed_{false};

  Status error_;        ///< Consumer-side.
  std::thread thread_;  ///< Last: it runs over every member above.
};

/// The worker crew of one pass: partition i runs bodies[i], and an item
/// goes to the partition RedoPartitionOf(item.pid) names.
template <typename Body>
class ApplyCrew {
 public:
  using Item = typename Body::Item;

  ApplyCrew(std::vector<Body> bodies, BufferPool* pool, Mutex* gate) {
    const auto n = static_cast<uint32_t>(bodies.size());
    const uint32_t pin_cap = PinCacheCapacity(*pool, n);
    workers_.reserve(n);
    for (Body& body : bodies) {
      workers_.push_back(std::make_unique<ApplyWorker<Body>>(
          std::move(body), pool, gate, pin_cap, &failed_));
    }
    for (auto& w : workers_) w->Start();
  }

  uint32_t size() const { return static_cast<uint32_t>(workers_.size()); }

  void Route(const Item& item) {
    workers_[RedoPartitionOf(item.pid, size())]->Push(item);
  }

  /// Tell every worker to drop its pins, then wait until every queue is
  /// fully applied. Taken before anything that changes tree structure or
  /// installs images across partitions.
  void DrainBarrier() {
    for (auto& w : workers_) w->Push(Item());  // control: drop pins
    for (auto& w : workers_) {
      uint32_t spins = 0;
      while (!w->Drained()) SpinWait(&spins);
    }
  }

  bool AnyFailed() const {
    return failed_.load(std::memory_order_acquire) != 0;
  }

  /// Apply everything still queued (a routed item is never discarded),
  /// stop and join. Returns the first (lowest-partition) worker error.
  Status Finish() {
    for (auto& w : workers_) w->Push(Item());  // control: drop pins
    for (auto& w : workers_) w->SignalDone();
    for (auto& w : workers_) w->Join();
    for (auto& w : workers_) {
      if (w->failed()) return w->error();
    }
    return Status::OK();
  }

  /// Visit each partition's body in partition order (after Finish).
  template <typename Fn>
  void ForEachBody(Fn fn) const {
    for (const auto& w : workers_) fn(w->body());
  }

 private:
  std::atomic<uint32_t> failed_{0};
  std::vector<std::unique_ptr<ApplyWorker<Body>>> workers_;
};

}  // namespace deutero
