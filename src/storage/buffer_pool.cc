#include "storage/buffer_pool.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace deutero {

// ---------------------------------------------------------------------------
// PageHandle
// ---------------------------------------------------------------------------

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    pid_ = other.pid_;
    other.pool_ = nullptr;
  }
  return *this;
}

PageView PageHandle::view() {
  assert(valid());
  return PageView(pool_->FrameData(frame_), pool_->page_size_);
}

const PageView PageHandle::view() const {
  assert(valid());
  return PageView(const_cast<uint8_t*>(pool_->FrameData(frame_)),
                  pool_->page_size_);
}

void PageHandle::MarkDirty(Lsn lsn) {
  assert(valid());
  pool_->MarkDirtyInternal(frame_, lsn);
}

void PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_, pid_);
    pool_ = nullptr;
  }
}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

BufferPool::BufferPool(SimClock* clock, SimDisk* disk, uint64_t capacity_pages,
                       uint32_t page_size, uint32_t max_batch_pages)
    : clock_(clock),
      disk_(disk),
      capacity_(capacity_pages),
      page_size_(page_size),
      max_batch_pages_(std::max<uint32_t>(1, max_batch_pages)),
      max_read_gap_(disk->MaxReadThroughGap()) {
  assert(capacity_ > 0);
  for (auto& sp : shards_) sp = std::make_unique<TableShard>(capacity_pages);
  arena_.resize(capacity_ * static_cast<uint64_t>(page_size_));
  frames_.resize(capacity_);
  free_frames_.reserve(capacity_);
  for (uint64_t i = 0; i < capacity_; i++) {
    free_frames_.push_back(static_cast<uint32_t>(capacity_ - 1 - i));
  }
  dirty_bits_.assign((capacity_ + 63) / 64, 0);
}

void BufferPool::Backoff(uint32_t attempt) {
  stats_.io_retries++;
  const double ms = kIoBackoffBaseMs *
                    static_cast<double>(uint64_t{1}
                                        << std::min<uint32_t>(attempt, 20));
  stats_.backoff_ms += ms;
  clock_->AdvanceMs(ms);
}

Status BufferPool::ReadPageWithRetry(PageId pid, bool sorted, uint8_t* dest) {
  Status s;
  for (uint32_t attempt = 0;; attempt++) {
    double completion = 0;
    s = disk_->ScheduleRead(pid, sorted, &completion);
    clock_->AdvanceToMs(completion);  // the attempt occupies the device
    if (s.ok()) {
      disk_->ReadImage(pid, dest);
      return Status::OK();
    }
    if (attempt >= kIoRetryLimit) return s;
    Backoff(attempt);
  }
}

Status BufferPool::VerifyOrRepair(PageId pid, uint8_t* data) {
  if (VerifyPageChecksum(data, page_size_)) return Status::OK();
  stats_.checksum_failures++;
  if (repair_cb_) {
    const Status rs = repair_cb_(pid, data);
    // The callback stamps the rebuilt image, so a successful repair
    // verifies; re-checking guards against a buggy repairer handing back
    // bytes that would then be trusted.
    if (rs.ok() && VerifyPageChecksum(data, page_size_)) {
      stats_.repairs++;
      return Status::OK();
    }
  }
  last_corrupt_pid_ = pid;
  return Status::Corruption("page checksum mismatch");
}

Status BufferPool::Get(PageId pid, PageClass cls, PageHandle* handle) {
  // Hit fast path: one shard latch, no pool-wide synchronization.
  TableShard& sh = ShardFor(pid);
  {
    MutexLock lk(&sh.mu);
    sh.gets++;
    if (const uint32_t* entry = sh.table.Find(pid)) {
      const uint32_t fi = *entry;
      Frame& f = frames_[fi];
      if (f.state == FrameState::kLoaded) {
        sh.hits++;
        f.ref = true;
        f.cls = cls;
        if (f.pins == 0) pinned_count_++;
        f.pins++;
        *handle = PageHandle(this, fi, pid);
        return Status::OK();
      }
      // Pending prefetch: claim it on the structural path below.
    }
  }
  return GetSlow(pid, cls, handle);
}

Status BufferPool::GetSlow(PageId pid, PageClass cls, PageHandle* handle) {
  MutexLock pool_lk(&miss_mu_);
  TableShard& sh = ShardFor(pid);
  uint32_t fi = 0;
  bool pending = false;
  {
    // Re-check under the latch: a racing GetSlow may have loaded the page
    // between our fast-path miss and acquiring miss_mu_.
    MutexLock lk(&sh.mu);
    if (const uint32_t* entry = sh.table.Find(pid)) {
      fi = *entry;
      Frame& f = frames_[fi];
      if (f.state == FrameState::kLoaded) {
        sh.hits++;
        f.ref = true;
        f.cls = cls;
        if (f.pins == 0) pinned_count_++;
        f.pins++;
        *handle = PageHandle(this, fi, pid);
        return Status::OK();
      }
      assert(f.state == FrameState::kPending);
      pending = true;
    }
  }

  if (pending) {
    // Pending prefetch: wait for its I/O completion, then deliver. The
    // frame stays kPending while we read, so no hit path can grab it;
    // other claimants serialize on miss_mu_.
    Frame& f = frames_[fi];
    const double wait = clock_->AdvanceToMs(f.ready_at_ms);
    if (wait > 0) {
      stats_.stall_count++;
      stats_.stall_ms += wait;
      if (f.cls == PageClass::kIndex) {
        stats_.index_stall_ms += wait;
      } else {
        stats_.data_stall_ms += wait;
      }
    }
    disk_->ReadImage(pid, FrameData(fi));
    if (Status vs = VerifyOrRepair(pid, FrameData(fi)); !vs.ok()) {
      // No pin was taken yet: give the frame back so the corrupt bytes
      // cannot be served to a later Get.
      {
        MutexLock lk(&sh.mu);
        sh.table.Erase(pid);
      }
      frames_[fi] = Frame();
      free_frames_.push_back(fi);
      return vs;
    }
    if (f.prefetched) {
      stats_.prefetch_used++;
      f.prefetched = false;
    }
    MutexLock lk(&sh.mu);
    f.state = FrameState::kLoaded;
    loaded_count_++;
    f.ref = true;
    f.cls = cls;
    if (f.pins == 0) pinned_count_++;
    f.pins++;
    *handle = PageHandle(this, fi, pid);
    return Status::OK();
  }

  // Miss: demand fetch.
  stats_.misses++;
  DEUTERO_RETURN_NOT_OK(AllocFrame(&fi));
  Frame& f = frames_[fi];
  f.pid = pid;
  f.cls = cls;
  f.prefetched = false;
  {
    // Publish the mapping while still kEmpty: a fast-path hit that finds
    // it simply falls through to GetSlow and waits on miss_mu_.
    MutexLock lk(&sh.mu);
    sh.table.Put(pid, fi);
  }

  const double t0 = clock_->NowMs();
  Status s = ReadPageWithRetry(pid, /*sorted=*/false, FrameData(fi));
  if (s.ok()) s = VerifyOrRepair(pid, FrameData(fi));
  const double wait = clock_->NowMs() - t0;
  stats_.stall_count++;
  stats_.stall_ms += wait;
  if (cls == PageClass::kIndex) {
    stats_.index_fetches++;
    stats_.index_stall_ms += wait;
  } else {
    stats_.data_fetches++;
    stats_.data_stall_ms += wait;
  }
  if (!s.ok()) {
    {
      MutexLock lk(&sh.mu);
      sh.table.Erase(pid);
    }
    frames_[fi] = Frame();
    free_frames_.push_back(fi);
    return s;
  }
  f.dirty = false;
  MutexLock lk(&sh.mu);
  f.state = FrameState::kLoaded;
  loaded_count_++;
  f.ref = true;
  if (f.pins == 0) pinned_count_++;
  f.pins++;
  *handle = PageHandle(this, fi, pid);
  return Status::OK();
}

Status BufferPool::Create(PageId pid, PageClass cls, PageHandle* handle) {
  MutexLock pool_lk(&miss_mu_);
  TableShard& sh = ShardFor(pid);
  uint32_t fi = 0;
  DEUTERO_RETURN_NOT_OK(AllocFrame(&fi));
  Frame& f = frames_[fi];
  f.pid = pid;
  f.cls = cls;
  std::memset(FrameData(fi), 0, page_size_);
  MutexLock lk(&sh.mu);
  assert(sh.table.Find(pid) == nullptr);
  sh.table.Put(pid, fi);
  f.state = FrameState::kLoaded;
  f.ref = true;
  loaded_count_++;
  if (f.pins == 0) pinned_count_++;
  f.pins++;
  *handle = PageHandle(this, fi, pid);
  return Status::OK();
}

uint32_t BufferPool::PinCount(PageId pid) const {
  TableShard& sh = ShardFor(pid);
  MutexLock lk(&sh.mu);
  const uint32_t* fi = sh.table.Find(pid);
  return fi == nullptr ? 0 : frames_[*fi].pins;
}

bool BufferPool::IsResidentOrPending(PageId pid) const {
  TableShard& sh = ShardFor(pid);
  MutexLock lk(&sh.mu);
  return sh.table.Find(pid) != nullptr;
}

bool BufferPool::IsLoaded(PageId pid) const {
  TableShard& sh = ShardFor(pid);
  MutexLock lk(&sh.mu);
  const uint32_t* fi = sh.table.Find(pid);
  return fi != nullptr && frames_[*fi].state == FrameState::kLoaded;
}

bool BufferPool::HasArrived(PageId pid) const {
  TableShard& sh = ShardFor(pid);
  MutexLock lk(&sh.mu);
  const uint32_t* fi = sh.table.Find(pid);
  if (fi == nullptr) return false;
  const Frame& f = frames_[*fi];
  if (f.state == FrameState::kLoaded) return true;
  return f.state == FrameState::kPending &&
         f.ready_at_ms <= clock_->NowMs();
}

uint32_t BufferPool::Prefetch(std::span<const PageId> pids, PageClass cls) {
  MutexLock pool_lk(&miss_mu_);
  // Deduplicate and drop already-cached pages. Member scratch: a pump-driven
  // prefetch stream performs no per-call heap allocation.
  std::vector<PageId>& want = prefetch_want_;
  want.clear();
  want.reserve(pids.size());
  for (PageId pid : pids) {
    if (!IsResidentOrPending(pid)) want.push_back(pid);
  }
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  if (want.empty()) return 0;

  uint32_t issued = 0;
  for (size_t i = 0, j = 0; i < want.size(); i = j) {
    // The span starting at want[i]: every wanted pid within the run cap of
    // it, up to the first gap the device would rather seek past.
    j = i + 1;
    while (j < want.size() && want[j] - want[i] < max_batch_pages_ &&
           want[j] - want[j - 1] - 1 <= max_read_gap_) {
      j++;
    }

    // Reserve frames for the span's wanted pages. When the pool runs short,
    // the span shrinks to its leading pages that got a frame: handing those
    // frames back would waste the evictions that freed them (prefetch is
    // best effort).
    std::vector<uint32_t>& fidx = prefetch_fidx_;
    fidx.assign(j - i, 0);
    uint32_t run = 0;
    for (; run < j - i; run++) {
      if (!AllocFrame(&fidx[run]).ok()) break;
    }
    if (run == 0) continue;
    const uint32_t span =
        static_cast<uint32_t>(want[i + run - 1] - want[i]) + 1;

    // Issue the span, retrying transient failures like the demand path does
    // (a retry re-reads the whole span). On exhaustion give the frames back
    // and stop: prefetch is best effort, and a later demand Get re-reads
    // with its own retry budget.
    double completion = 0;
    Status rs;
    for (uint32_t attempt = 0;; attempt++) {
      rs = disk_->ScheduleReadRun(want[i], span, /*sorted=*/true, &completion,
                                  /*gap_pages=*/span - run);
      if (rs.ok() || attempt >= kIoRetryLimit) break;
      Backoff(attempt);
    }
    if (!rs.ok()) {
      for (uint32_t k = 0; k < run; k++) free_frames_.push_back(fidx[k]);
      break;
    }
    for (uint32_t k = 0; k < run; k++) {
      Frame& f = frames_[fidx[k]];
      f.pid = want[i + k];
      f.state = FrameState::kPending;
      f.ready_at_ms = completion;
      f.prefetched = true;
      f.dirty = false;
      f.ref = false;
      f.cls = cls;
      // Fields are set BEFORE the mapping publishes: a latched reader can
      // only find the frame once it is a fully-formed pending entry.
      TableShard& sh = ShardFor(f.pid);
      MutexLock lk(&sh.mu);
      sh.table.Put(f.pid, fidx[k]);
    }
    issued += run;
    stats_.prefetch_issued += run;
    if (cls == PageClass::kIndex) {
      stats_.index_fetches += run;
    } else {
      stats_.data_fetches += run;
    }
  }
  return issued;
}

uint64_t BufferPool::unused_frames() const {
  MutexLock pool_lk(&miss_mu_);
  return free_frames_.size();
}

Status BufferPool::FlushPage(PageId pid) {
  MutexLock pool_lk(&miss_mu_);
  TableShard& sh = ShardFor(pid);
  uint32_t fi = 0;
  {
    MutexLock lk(&sh.mu);
    const uint32_t* entry = sh.table.Find(pid);
    if (entry == nullptr) return Status::NotFound("page not resident");
    fi = *entry;
  }
  Frame& f = frames_[fi];
  if (f.state != FrameState::kLoaded) return Status::Busy("page pending");
  if (!f.dirty) return Status::OK();
  return FlushFrame(fi, nullptr);
}

bool BufferPool::Discard(PageId pid) {
  MutexLock pool_lk(&miss_mu_);
  TableShard& sh = ShardFor(pid);
  uint32_t fi = 0;
  {
    // The pins check and the unmap must be one latched step, or a hit
    // could pin the page in between.
    MutexLock lk(&sh.mu);
    const uint32_t* entry = sh.table.Find(pid);
    if (entry == nullptr) return false;
    fi = *entry;
    Frame& f = frames_[fi];
    if (f.state != FrameState::kLoaded || f.pins > 0) return false;
    sh.table.Erase(pid);
  }
  // Unmapped: the frame is now private to this miss_mu_ holder.
  Frame& f = frames_[fi];
  if (f.dirty) {
    f.dirty = false;
    dirty_bits_[fi >> 6] &= ~(uint64_t{1} << (fi & 63));
    dirty_count_--;
    // Stale dirty_fifo_ entries are skipped by the seq check on pop.
  }
  loaded_count_--;
  f = Frame();
  free_frames_.push_back(fi);
  return true;
}

Status BufferPool::FlushFrame(uint32_t frame, uint64_t* counter) {
  Frame& f = frames_[frame];
  assert(f.state == FrameState::kLoaded && f.dirty);
  PageView view(FrameData(frame), page_size_);
  const Lsn plsn = view.plsn();

  // WAL rule: the page's last update must be on the stable log first. The
  // eLSN is the end of the stable log, so a record that starts there (the
  // first one after a force) is not stable yet.
  if (stable_lsn_ && plsn >= stable_lsn_()) {
    stats_.wal_forces++;
    if (wal_force_cb_) wal_force_cb_(plsn);
    assert(!stable_lsn_ || plsn <= stable_lsn_());
  }

  StampPageChecksum(FrameData(frame), page_size_);
  for (uint32_t attempt = 0;; attempt++) {
    double completion = 0;
    const Status s = disk_->ScheduleWrite(f.pid, FrameData(frame),
                                          &completion);
    clock_->AdvanceToMs(completion);
    if (s.ok()) break;
    // Exhaustion leaves the frame dirty and resident: no durability is
    // lost, but the caller (checkpoint, eviction) must surface the error.
    if (attempt >= kIoRetryLimit) return s;
    Backoff(attempt);
  }
  f.dirty = false;
  dirty_bits_[frame >> 6] &= ~(uint64_t{1} << (frame & 63));
  dirty_count_--;
  stats_.flushes++;
  if (counter != nullptr) (*counter)++;
  if (callbacks_enabled_ && flush_cb_) flush_cb_(f.pid, plsn);
  return Status::OK();
}

Status BufferPool::FlushPhasePages(uint64_t* flushed) {
  MutexLock pool_lk(&miss_mu_);
  const bool old_phase = !current_phase_;
  // Frame-ordered bitmap sweep: walk the dirty bitmap word-at-a-time and
  // flush qualifying frames in frame order — no victims vector, no sort.
  // Frame order is deterministic (frame assignment is), which is what the
  // checkpoint contract needs; the elevator ordering a real controller
  // would add is already modeled inside the simulated disk's write cost.
  uint64_t n = 0;
  for (size_t w = 0; w < dirty_bits_.size(); w++) {
    uint64_t bits = dirty_bits_[w];
    while (bits != 0) {
      const uint32_t frame =
          static_cast<uint32_t>((w << 6) + std::countr_zero(bits));
      bits &= bits - 1;
      const Frame& f = frames_[frame];
      if (f.state == FrameState::kLoaded && f.dirty &&
          f.phase == old_phase) {
        const Status s = FlushFrame(frame, &stats_.checkpoint_flushes);
        if (!s.ok()) {
          if (flushed != nullptr) *flushed = n;
          return s;
        }
        n++;
      }
    }
  }
  if (flushed != nullptr) *flushed = n;
  return Status::OK();
}

Status BufferPool::FlushAllDirty(uint64_t* flushed) {
  MutexLock pool_lk(&miss_mu_);
  uint64_t n = 0;
  for (size_t w = 0; w < dirty_bits_.size(); w++) {
    uint64_t bits = dirty_bits_[w];
    while (bits != 0) {
      const uint32_t frame =
          static_cast<uint32_t>((w << 6) + std::countr_zero(bits));
      bits &= bits - 1;
      const Frame& f = frames_[frame];
      if (f.state == FrameState::kLoaded && f.dirty) {
        const Status s = FlushFrame(frame, nullptr);
        if (!s.ok()) {
          if (flushed != nullptr) *flushed = n;
          return s;
        }
        n++;
      }
    }
  }
  if (flushed != nullptr) *flushed = n;
  return Status::OK();
}

void BufferPool::CollectDirtyPages(
    std::vector<std::pair<PageId, Lsn>>* out) const {
  MutexLock pool_lk(&miss_mu_);
  out->clear();
  for (const Frame& f : frames_) {
    if (f.state == FrameState::kLoaded && f.dirty) {
      out->emplace_back(f.pid, f.first_dirty_lsn);
    }
  }
  std::sort(out->begin(), out->end());
}

Status BufferPool::LazyWriterTick() {
  if (dirty_watermark_ == 0) return Status::OK();
  MutexLock pool_lk(&miss_mu_);
  while (dirty_count_ > dirty_watermark_ && !dirty_fifo_.empty()) {
    const auto [pid, seq] = dirty_fifo_.front();
    dirty_fifo_.pop_front();
    TableShard& sh = ShardFor(pid);
    uint32_t fi = 0;
    {
      MutexLock lk(&sh.mu);
      const uint32_t* entry = sh.table.Find(pid);
      if (entry == nullptr) continue;  // evicted since
      fi = *entry;
      if (frames_[fi].pins > 0) continue;  // skip pinned; retried next tick
    }
    Frame& f = frames_[fi];
    if (f.state != FrameState::kLoaded || !f.dirty || f.dirty_seq != seq) {
      continue;  // stale entry (flushed and possibly re-dirtied since)
    }
    const Status s = FlushFrame(fi, &stats_.lazy_flushes);
    if (!s.ok()) {
      // Keep the page in FIFO order so a later tick retries it.
      dirty_fifo_.emplace_front(pid, seq);
      return s;
    }
  }
  return Status::OK();
}

Status BufferPool::AllocFrame(uint32_t* out) {
  if (!free_frames_.empty()) {
    *out = free_frames_.back();
    free_frames_.pop_back();
    frames_[*out] = Frame();
    return Status::OK();
  }
  return EvictSomeFrame(out);
}

Status BufferPool::EvictSomeFrame(uint32_t* out) {
  // Caller holds miss_mu_: frame identity (pid/state/ready_at_ms) is
  // stable across the sweep. The hit-mutable fields (pins, ref) and the
  // unmap itself are handled under the victim's shard latch so a
  // concurrent hit can never pin a page mid-eviction.
  const uint32_t n = static_cast<uint32_t>(frames_.size());
  // A few rounds: a dirty victim can be pinned by a racing hit while we
  // flush nothing yet (the latched re-check below fails) — resweep.
  for (int round = 0; round < 3; round++) {
    uint32_t dirty_candidate = n;  // first evictable dirty frame seen
    // Clock sweep, up to two full turns: prefer a clean unreferenced victim.
    for (uint32_t step = 0; step < 2 * n; step++) {
      Frame& f = frames_[clock_hand_];
      const uint32_t cur = clock_hand_;
      clock_hand_ = (clock_hand_ + 1) % n;
      if (f.state == FrameState::kPending &&
          f.ready_at_ms <= clock_->NowMs()) {
        // The prefetch I/O completed but nobody claimed the page yet:
        // materialize it so the frame becomes a normal (clean, evictable)
        // resident page.
        disk_->ReadImage(f.pid, FrameData(cur));
        TableShard& sh = ShardFor(f.pid);
        if (!VerifyPageChecksum(FrameData(cur), page_size_)) {
          // An unclaimed prefetch arrived corrupt. Try in-place repair; if
          // that fails just drop the mapping and hand the frame out — nobody
          // holds the page, and a later demand Get re-reads the device and
          // surfaces (or repairs) the corruption with full error context.
          stats_.checksum_failures++;
          const bool repaired = repair_cb_ &&
                                repair_cb_(f.pid, FrameData(cur)).ok() &&
                                VerifyPageChecksum(FrameData(cur), page_size_);
          if (repaired) {
            stats_.repairs++;
          } else {
            if (f.prefetched) stats_.prefetch_wasted++;
            {
              MutexLock lk(&sh.mu);
              sh.table.Erase(f.pid);
            }
            f = Frame();
            *out = cur;
            return Status::OK();
          }
        }
        MutexLock lk(&sh.mu);
        f.state = FrameState::kLoaded;
        loaded_count_++;
      }
      if (f.state != FrameState::kLoaded) continue;
      {
        TableShard& sh = ShardFor(f.pid);
        MutexLock lk(&sh.mu);
        if (f.pins > 0) continue;
        if (f.ref) {
          f.ref = false;
          continue;
        }
        if (!f.dirty) {
          EvictFrame(cur, sh);
          *out = cur;
          return Status::OK();
        }
      }
      if (dirty_candidate == n) dirty_candidate = cur;
    }
    if (dirty_candidate == n) {
      return Status::Busy("buffer pool exhausted (all frames pinned/pending)");
    }
    // Flush-then-evict, holding the victim's shard latch across the write
    // so no reader pins the page meanwhile (the flush callbacks and the
    // device never take pool latches, so this cannot deadlock).
    Frame& victim = frames_[dirty_candidate];
    TableShard& sh = ShardFor(victim.pid);
    MutexLock lk(&sh.mu);
    if (victim.state != FrameState::kLoaded || victim.pins > 0 ||
        !victim.dirty) {
      continue;  // raced with a hit; sweep again
    }
    DEUTERO_RETURN_NOT_OK(FlushFrame(dirty_candidate, nullptr));
    stats_.dirty_evictions++;
    EvictFrame(dirty_candidate, sh);
    *out = dirty_candidate;
    return Status::OK();
  }
  return Status::Busy("buffer pool exhausted (eviction kept racing pins)");
}

void BufferPool::EvictFrame(uint32_t frame, TableShard& sh) {
  Frame& f = frames_[frame];
  assert(f.state == FrameState::kLoaded && f.pins == 0 && !f.dirty);
  if (f.prefetched) stats_.prefetch_wasted++;
  sh.table.Erase(f.pid);
  loaded_count_--;
  stats_.evictions++;
  f = Frame();
}

void BufferPool::Unpin(uint32_t frame, PageId pid) {
  // A pinned page cannot be evicted or remapped, so `frame` still belongs
  // to `pid`; the shard latch covers the pin-count update against
  // concurrent hits on the same shard.
  TableShard& sh = ShardFor(pid);
  MutexLock lk(&sh.mu);
  Frame& f = frames_[frame];
  assert(f.pins > 0);
  f.pins--;
  if (f.pins == 0) pinned_count_--;
}

void BufferPool::MarkDirtyInternal(uint32_t frame, Lsn lsn) {
  Frame& f = frames_[frame];
  assert(f.state == FrameState::kLoaded);
  PageView view(FrameData(frame), page_size_);
  view.set_plsn(lsn);
  const bool was_clean = !f.dirty;
  if (was_clean) {
    f.dirty = true;
    dirty_bits_[frame >> 6] |= uint64_t{1} << (frame & 63);
    f.phase = current_phase_;
    f.dirty_seq = next_dirty_seq_++;
    f.first_dirty_lsn = lsn;
    dirty_count_++;
    dirty_fifo_.emplace_back(f.pid, f.dirty_seq);
  }
  if (callbacks_enabled_ && dirty_cb_) dirty_cb_(f.pid, lsn, was_clean);
}

void BufferPool::Reset() {
  MutexLock pool_lk(&miss_mu_);
  assert(pinned_count_ == 0);
  for (auto& sp : shards_) {
    MutexLock lk(&sp->mu);
    sp->table.Clear();
  }
  dirty_fifo_.clear();
  dirty_bits_.assign(dirty_bits_.size(), 0);
  free_frames_.clear();
  for (uint64_t i = 0; i < capacity_; i++) {
    frames_[i] = Frame();
    free_frames_.push_back(static_cast<uint32_t>(capacity_ - 1 - i));
  }
  loaded_count_ = 0;
  dirty_count_ = 0;
  next_dirty_seq_ = 1;
  clock_hand_ = 0;
  current_phase_ = false;
}

const BufferPool::Stats& BufferPool::stats() const {
  MutexLock pool_lk(&miss_mu_);
  merged_stats_ = stats_;
  for (const auto& sp : shards_) {
    MutexLock lk(&sp->mu);
    merged_stats_.gets += sp->gets;
    merged_stats_.hits += sp->hits;
  }
  return merged_stats_;
}

void BufferPool::ResetStats() {
  MutexLock pool_lk(&miss_mu_);
  stats_ = Stats();
  for (auto& sp : shards_) {
    MutexLock lk(&sp->mu);
    sp->gets = 0;
    sp->hits = 0;
  }
}

}  // namespace deutero
