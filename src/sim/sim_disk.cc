#include "sim/sim_disk.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace deutero {

SimDisk::SimDisk(SimClock* clock, uint32_t page_size, const IoModelOptions& io)
    : clock_(clock), page_size_(page_size), io_(io), injector_(io.faults) {
  assert(page_size_ > 0);
  const uint32_t channels = std::max<uint32_t>(1, io_.io_channels);
  channel_busy_until_.assign(channels, 0.0);
}

void SimDisk::EnsurePages(uint64_t n) {
  if (n <= num_pages_) return;
  image_.resize(n * static_cast<uint64_t>(page_size_), 0);
  num_pages_ = n;
}

double SimDisk::Schedule(double service_ms, bool is_write) {
  const double factor = injector_.NextLatencyFactor();
  if (factor > 1.0) stats_.latency_spikes++;
  service_ms *= factor;
  // Earliest-free channel.
  auto it = std::min_element(channel_busy_until_.begin(),
                             channel_busy_until_.end());
  const double start = std::max(clock_->NowMs(), *it);
  const double completion = start + service_ms;
  *it = completion;
  if (is_write) {
    stats_.write_service_ms += service_ms;
  } else {
    stats_.read_service_ms += service_ms;
  }
  return completion;
}

Status SimDisk::ScheduleRead(PageId pid, bool sorted, double* completion) {
  assert(pid < num_pages_);
  (void)pid;
  stats_.read_ios++;
  *completion =
      Schedule(SeekMs(sorted) + io_.transfer_ms_per_page, /*is_write=*/false);
  if (injector_.NextReadFails()) {
    // The attempt occupied the channel (time is charged) but delivered
    // nothing: pages_read counts only successful transfers.
    stats_.read_errors++;
    return Status::IOError("transient read failure (injected)");
  }
  stats_.pages_read++;
  return Status::OK();
}

Status SimDisk::ScheduleReadRun(PageId first, uint32_t count, bool sorted,
                                double* completion, uint32_t gap_pages) {
  assert(count >= 1 && gap_pages < count);
  assert(first + count <= num_pages_);
  (void)first;
  stats_.read_ios++;
  if (count > 1) stats_.batched_reads++;
  *completion = Schedule(SeekMs(sorted) + count * io_.transfer_ms_per_page,
                         /*is_write=*/false);
  if (injector_.NextReadFails()) {
    stats_.read_errors++;
    return Status::IOError("transient read-run failure (injected)");
  }
  stats_.pages_read += count;
  stats_.gap_pages += gap_pages;
  return Status::OK();
}

uint32_t SimDisk::MaxReadThroughGap() const {
  // The largest g with g * transfer < seek.
  const double seek = SeekMs(/*sorted=*/true);
  if (seek <= 0) return 0;
  if (io_.transfer_ms_per_page <= 0) return UINT32_MAX;
  const double g = std::ceil(seek / io_.transfer_ms_per_page) - 1;
  return g >= double{UINT32_MAX} ? UINT32_MAX : static_cast<uint32_t>(g);
}

Status SimDisk::ScheduleWrite(PageId pid, const void* data,
                              double* completion) {
  assert(pid < num_pages_);
  *completion = Schedule(io_.write_seek_ms + io_.transfer_ms_per_page,
                         /*is_write=*/true);
  if (injector_.NextWriteFails()) {
    // The transfer failed before the controller acknowledged it: the stable
    // image is untouched and no in-flight state is created.
    stats_.write_errors++;
    return Status::IOError("transient write failure (injected)");
  }

  uint8_t* stable = &image_[static_cast<uint64_t>(pid) * page_size_];
  // Torn-write mode: compose what a crash would leave BEFORE the stable
  // image is overwritten — a sector-granular prefix of the new content over
  // the previous stable bytes. A new write of the same page supersedes the
  // prior entry (only the latest write can still be in the drive cache).
  uint32_t survive_sectors = 0;
  const bool tearable =
      pid != 0 && injector_.NextTornWrite(page_size_, &survive_sectors);
  if (tearable) {
    std::vector<uint8_t>& torn = torn_pending_[pid];
    torn.assign(stable, stable + page_size_);
    const uint64_t prefix =
        std::min<uint64_t>(page_size_, static_cast<uint64_t>(survive_sectors) *
                                           injector_.sector_bytes());
    std::memcpy(torn.data(), data, prefix);
  } else {
    torn_pending_.erase(pid);  // this write destages any pending tear
  }

  std::memcpy(stable, data, page_size_);
  stats_.write_ios++;
  stats_.pages_written++;

  // Latent corruption: the acknowledged image rots after the fact. Page 0
  // (boot/meta block) is exempt — duplexed in a real deployment.
  uint32_t flip_off = 0;
  uint8_t flip_mask = 0;
  if (pid != 0 && injector_.NextBitFlip(page_size_, &flip_off, &flip_mask)) {
    stable[flip_off] ^= flip_mask;
    stats_.bits_flipped++;
  }
  return Status::OK();
}

void SimDisk::ReadImage(PageId pid, void* out) const {
  assert(pid < num_pages_);
  std::memcpy(out, &image_[static_cast<uint64_t>(pid) * page_size_],
              page_size_);
}

void SimDisk::WriteImageDirect(PageId pid, const void* data) {
  assert(pid < num_pages_);
  std::memcpy(&image_[static_cast<uint64_t>(pid) * page_size_], data,
              page_size_);
  // An administrative write (repair write-back) replaces whatever a crash
  // would have torn.
  torn_pending_.erase(pid);
}

const uint8_t* SimDisk::ImageData(PageId pid) const {
  assert(pid < num_pages_);
  return &image_[static_cast<uint64_t>(pid) * page_size_];
}

double SimDisk::IdleAtMs() const {
  return *std::max_element(channel_busy_until_.begin(),
                           channel_busy_until_.end());
}

void SimDisk::ResetTime() {
  std::fill(channel_busy_until_.begin(), channel_busy_until_.end(), 0.0);
}

void SimDisk::ApplyCrashTears() {
  for (const auto& [pid, torn] : torn_pending_) {
    assert(pid < num_pages_ && torn.size() == page_size_);
    std::memcpy(&image_[static_cast<uint64_t>(pid) * page_size_], torn.data(),
                page_size_);
    stats_.writes_torn++;
  }
  torn_pending_.clear();
}

void SimDisk::CorruptStableByteForTest(PageId pid, uint32_t offset,
                                       uint8_t mask) {
  assert(pid < num_pages_ && offset < page_size_);
  image_[static_cast<uint64_t>(pid) * page_size_ + offset] ^= mask;
}

void SimDisk::RestoreImage(std::vector<uint8_t> image) {
  assert(image.size() % page_size_ == 0);
  image_ = std::move(image);
  num_pages_ = image_.size() / page_size_;
  torn_pending_.clear();
}

}  // namespace deutero
