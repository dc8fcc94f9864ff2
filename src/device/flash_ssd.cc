#include "device/flash_ssd.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"

namespace sias {

FlashSsd::FlashSsd(const FlashConfig& config) : config_(config) {
  logical_pages_ = config_.capacity_bytes / config_.flash_page_size;
  physical_pages_ = static_cast<uint64_t>(
      static_cast<double>(logical_pages_) * (1.0 + config_.overprovision));
  // Round physical space to whole blocks per channel, and add the dedicated
  // GC reserve (2 blocks) plus one active block of slack per channel so the
  // host-visible pool always covers the exported capacity.
  uint64_t blocks = (physical_pages_ + config_.pages_per_block - 1) /
                        config_.pages_per_block +
                    3ull * config_.num_channels;
  blocks = ((blocks + config_.num_channels - 1) / config_.num_channels) *
           config_.num_channels;
  num_blocks_ = static_cast<uint32_t>(blocks);
  physical_pages_ = static_cast<uint64_t>(num_blocks_) *
                    config_.pages_per_block;

  l2p_.assign(logical_pages_, kUnmapped);
  p2l_.assign(physical_pages_, kUnmapped);
  page_valid_.assign(physical_pages_, 0);
  blocks_.resize(num_blocks_);
  channels_ = std::vector<Channel>(config_.num_channels);

  for (uint32_t b = 0; b < num_blocks_; ++b) {
    uint32_t ch = b % config_.num_channels;
    blocks_[b].channel = ch;
    if (channels_[ch].gc_reserve.size() < 2) {
      channels_[ch].gc_reserve.push_back(b);
    } else {
      channels_[ch].free_blocks.push_back(b);
      channels_[ch].free_pages += config_.pages_per_block;
    }
  }
}

Status FlashSsd::Read(uint64_t offset, size_t len, uint8_t* out,
                      VirtualClock* clk) {
  SIAS_RETURN_NOT_OK(CheckRange(offset, len));
  VTime now = clk ? clk->now() : 0;
  if (trace_ != nullptr) {
    trace_->Record(now, offset, static_cast<uint32_t>(len), TraceOp::kRead);
  }
  store_.Read(offset, len, out);
  RecordDeviceRead(len);

  VTime completion = now;
  {
    MutexLock g(&mu_);
    stats_.read_ops++;
    stats_.bytes_read += len;
    uint64_t first = offset / config_.flash_page_size;
    uint64_t last = (offset + len - 1) / config_.flash_page_size;
    uint64_t nand_reads = 0;
    for (uint64_t lpn = first; lpn <= last; ++lpn) {
      uint32_t ppn = l2p_[lpn];
      if (ppn == kUnmapped) continue;  // never-written page: zeros, no NAND op
      stats_.flash_page_reads++;
      nand_reads++;
      uint32_t ch = blocks_[ppn / config_.pages_per_block].channel;
      VTime start = channels_[ch].busy.Reserve(now, config_.page_read_latency);
      completion = std::max(completion, start + config_.page_read_latency);
    }
    if (nand_reads > 0) {
      FlashCounters().page_reads->Add(static_cast<int64_t>(nand_reads));
    }
  }
  if (clk != nullptr) clk->AdvanceTo(completion);
  return Status::OK();
}

Status FlashSsd::Write(uint64_t offset, size_t len, const uint8_t* data,
                       VirtualClock* clk, bool background) {
  SIAS_RETURN_NOT_OK(CheckRange(offset, len));
  VTime now = clk ? clk->now() : 0;
  if (trace_ != nullptr) {
    trace_->Record(now, offset, static_cast<uint32_t>(len), TraceOp::kWrite);
  }
  store_.Write(offset, len, data);
  RecordDeviceWrite(len);

  VTime completion = now;
  {
    MutexLock g(&mu_);
    stats_.write_ops++;
    stats_.bytes_written += len;
    uint64_t first = offset / config_.flash_page_size;
    uint64_t last = (offset + len - 1) / config_.flash_page_size;
    for (uint64_t lpn = first; lpn <= last; ++lpn) {
      uint32_t old = l2p_[lpn];
      if (old != kUnmapped) {
        InvalidatePpn(old);
        l2p_[lpn] = kUnmapped;
      }
      // Self-balancing channel choice: the emptiest channel takes the next
      // page. With even load this degenerates to round-robin striping and
      // guarantees no channel can starve of free space. If the preferred
      // channel cannot reclaim space, fall back to the others before
      // declaring the device full.
      uint32_t ch = 0;
      uint64_t best_free = channels_[0].free_pages;
      for (uint32_t c = 1; c < config_.num_channels; ++c) {
        if (channels_[c].free_pages > best_free) {
          best_free = channels_[c].free_pages;
          ch = c;
        }
      }
      VTime page_done = 0;
      uint32_t ppn = kUnmapped;
      for (uint32_t attempt = 0;
           attempt < config_.num_channels && ppn == kUnmapped; ++attempt) {
        ppn = AllocatePage((ch + attempt) % config_.num_channels, now,
                           &page_done, background);
      }
      if (ppn == kUnmapped) {
        return Status::OutOfSpace("flash device full");
      }
      l2p_[lpn] = ppn;
      p2l_[ppn] = static_cast<uint32_t>(lpn);
      page_valid_[ppn] = 1;
      blocks_[ppn / config_.pages_per_block].valid_count++;
      stats_.flash_page_programs++;
      stats_.host_page_programs++;
      completion = std::max(completion, page_done);
    }
    FlashCounters().page_programs->Add(
        static_cast<int64_t>(last - first + 1));
    FlashCounters().host_page_programs->Add(
        static_cast<int64_t>(last - first + 1));
  }
  if (clk != nullptr && !background) clk->AdvanceTo(completion);
  return Status::OK();
}

Status FlashSsd::Trim(uint64_t offset, size_t len) {
  SIAS_RETURN_NOT_OK(CheckRange(offset, len));
  FlashCounters().trims->Increment();
  // The unmapped range serves zeros, as a read of it costs no NAND op.
  store_.Erase(offset, len);
  MutexLock g(&mu_);
  stats_.trim_ops++;
  uint64_t first = offset / config_.flash_page_size;
  uint64_t last = (offset + len - 1) / config_.flash_page_size;
  for (uint64_t lpn = first; lpn <= last; ++lpn) {
    uint32_t ppn = l2p_[lpn];
    if (ppn != kUnmapped) {
      InvalidatePpn(ppn);
      l2p_[lpn] = kUnmapped;
    }
  }
  return Status::OK();
}

void FlashSsd::InvalidatePpn(uint32_t ppn) {
  if (page_valid_[ppn]) {
    page_valid_[ppn] = 0;
    Block& blk = blocks_[ppn / config_.pages_per_block];
    SIAS_CHECK(blk.valid_count > 0);
    blk.valid_count--;
  }
  p2l_[ppn] = kUnmapped;
}

uint32_t FlashSsd::AllocatePage(uint32_t channel_hint, VTime now,
                                VTime* completion, bool background) {
  Channel& ch = channels_[channel_hint];
  if (ch.active_block == kUnmapped ||
      blocks_[ch.active_block].next_free >= config_.pages_per_block) {
    MaybeGc(channel_hint, now, background);
    if (ch.free_blocks.empty()) return kUnmapped;  // channel exhausted
    ch.active_block = ch.free_blocks.back();
    ch.free_blocks.pop_back();
  }
  Block& blk = blocks_[ch.active_block];
  uint32_t ppn =
      ch.active_block * config_.pages_per_block + blk.next_free;
  blk.next_free++;
  SIAS_CHECK(ch.free_pages > 0);
  ch.free_pages--;
  // Background writes occupy the channel like any program, but the caller
  // does not wait for them (async maintenance I/O).
  VTime start = ch.busy.Reserve(now, config_.page_program_latency);
  *completion = background ? now : start + config_.page_program_latency;
  return ppn;
}

uint64_t FlashSsd::GcCapacity(const Channel& ch) const {
  uint64_t cap = static_cast<uint64_t>(ch.gc_reserve.size()) *
                 config_.pages_per_block;
  if (ch.gc_active != kUnmapped) {
    cap += config_.pages_per_block - blocks_[ch.gc_active].next_free;
  }
  return cap;
}

uint32_t FlashSsd::PickGcVictim(uint32_t channel) {
  // Greedy policy: fully-written block with the fewest valid pages.
  uint32_t best = kUnmapped;
  uint32_t best_valid = ~0u;
  for (uint32_t b = channel; b < num_blocks_; b += config_.num_channels) {
    const Block& blk = blocks_[b];
    if (b == channels_[channel].active_block) continue;
    if (b == channels_[channel].gc_active) continue;
    if (blk.next_free < config_.pages_per_block) continue;  // not sealed
    if (blk.valid_count < best_valid) {
      best_valid = blk.valid_count;
      best = b;
    }
  }
  return best;
}

void FlashSsd::MaybeGc(uint32_t channel, VTime now, bool /*background*/) {
  Channel& ch = channels_[channel];
  uint64_t channel_pages = (static_cast<uint64_t>(num_blocks_) /
                            config_.num_channels) *
                           config_.pages_per_block;
  uint64_t min_free = static_cast<uint64_t>(
      static_cast<double>(channel_pages) * config_.gc_free_fraction);
  // Keep several spare blocks so relocation during GC can always proceed.
  min_free = std::max<uint64_t>(min_free, 4ull * config_.pages_per_block);

  while (ch.free_pages < min_free) {
    uint32_t victim = PickGcVictim(channel);
    if (victim == kUnmapped) break;
    Block& vblk = blocks_[victim];
    if (vblk.valid_count >= config_.pages_per_block) {
      break;  // fully-valid victim: erasing it reclaims nothing
    }
    // GC-reserve invariant: capacity is replenished to >= 2 blocks after
    // every round, so any victim's valid pages (< pages_per_block) fit.
    SIAS_CHECK_MSG(GcCapacity(ch) >= vblk.valid_count,
                   "flash GC reserve underflow on channel %u", channel);
    // Relocate valid pages into the GC reserve (never the host pool).
    for (uint32_t i = 0; i < config_.pages_per_block; ++i) {
      uint32_t ppn = victim * config_.pages_per_block + i;
      if (!page_valid_[ppn]) continue;
      uint32_t lpn = p2l_[ppn];
      // Read + program on the same channel.
      ch.busy.Reserve(now, config_.page_read_latency);
      if (ch.gc_active == kUnmapped ||
          blocks_[ch.gc_active].next_free >= config_.pages_per_block) {
        SIAS_CHECK_MSG(!ch.gc_reserve.empty(),
                       "flash GC deadlock on channel %u", channel);
        ch.gc_active = ch.gc_reserve.back();
        ch.gc_reserve.pop_back();
      }
      Block& gblk = blocks_[ch.gc_active];
      uint32_t dst = ch.gc_active * config_.pages_per_block + gblk.next_free;
      gblk.next_free++;
      ch.busy.Reserve(now, config_.page_program_latency);

      // Move mapping.
      page_valid_[ppn] = 0;
      p2l_[ppn] = kUnmapped;
      vblk.valid_count--;
      l2p_[lpn] = dst;
      p2l_[dst] = lpn;
      page_valid_[dst] = 1;
      gblk.valid_count++;
      stats_.gc_page_moves++;
      stats_.flash_page_reads++;
      stats_.flash_page_programs++;
      FlashCounters().gc_page_moves->Increment();
      FlashCounters().page_reads->Increment();
      FlashCounters().page_programs->Increment();
    }
    SIAS_CHECK(vblk.valid_count == 0);
    // Erase the victim.
    ch.busy.Reserve(now, config_.block_erase_latency);
    vblk.next_free = 0;
    vblk.erase_count++;
    stats_.flash_block_erases++;
    FlashCounters().block_erases->Increment();
    // Route the erased block: refill the GC reserve up to 2 blocks first,
    // then return capacity to the host pool.
    if (ch.gc_reserve.size() < 2) {
      ch.gc_reserve.push_back(victim);
    } else {
      ch.free_blocks.push_back(victim);
      ch.free_pages += config_.pages_per_block;
    }
  }
}

DeviceStats FlashSsd::stats() const {
  MutexLock g(&mu_);
  return stats_;
}

WearStats FlashSsd::wear() const {
  MutexLock g(&mu_);
  WearStats w;
  uint64_t sum = 0;
  for (const auto& b : blocks_) {
    sum += b.erase_count;
    w.max_block_erases = std::max<uint64_t>(w.max_block_erases, b.erase_count);
  }
  w.total_erases = sum;
  w.avg_block_erases =
      blocks_.empty() ? 0.0
                      : static_cast<double>(sum) /
                            static_cast<double>(blocks_.size());
  return w;
}

DeviceTelemetry FlashSsd::telemetry() const {
  MutexLock g(&mu_);
  DeviceTelemetry t;
  t.logical_pages = logical_pages_;
  t.physical_pages = physical_pages_;
  t.total_blocks = num_blocks_;

  // Exact wear figures plus the log2 distribution (bucket 0 = never erased,
  // bucket i = [2^(i-1), 2^i)); percentiles come from a sorted copy so leaf
  // devices are exact — RAID merges recompute them from the histogram.
  std::vector<uint32_t> erases;
  erases.reserve(blocks_.size());
  t.erase_min = blocks_.empty() ? 0 : ~0ull;
  for (const Block& b : blocks_) {
    erases.push_back(b.erase_count);
    t.erase_total += b.erase_count;
    t.erase_min = std::min<uint64_t>(t.erase_min, b.erase_count);
    t.erase_max = std::max<uint64_t>(t.erase_max, b.erase_count);
    size_t bucket = 0;
    for (uint32_t e = b.erase_count; e > 0; e >>= 1) bucket++;
    if (t.erase_histogram.size() <= bucket) {
      t.erase_histogram.resize(bucket + 1, 0);
    }
    t.erase_histogram[bucket]++;
  }
  t.erase_avg = blocks_.empty() ? 0.0
                                : static_cast<double>(t.erase_total) /
                                      static_cast<double>(blocks_.size());
  if (!erases.empty()) {
    std::sort(erases.begin(), erases.end());
    auto pct = [&](double p) {
      size_t i = static_cast<size_t>(p * static_cast<double>(erases.size()));
      return static_cast<uint64_t>(erases[std::min(i, erases.size() - 1)]);
    };
    t.erase_p50 = pct(0.50);
    t.erase_p90 = pct(0.90);
    t.erase_p99 = pct(0.99);
  }

  for (const Channel& ch : channels_) {
    t.free_pages += ch.free_pages;
    t.free_blocks += ch.free_blocks.size();
    t.gc_reserve_blocks += ch.gc_reserve.size();
    if (ch.gc_active != kUnmapped) t.gc_reserve_blocks++;
    t.channel_busy_ns.push_back(ch.busy.busy_total());
  }
  return t;
}

Status FlashSsd::CheckFtlInvariants() const {
  MutexLock g(&mu_);
  std::vector<uint8_t> seen(physical_pages_, 0);
  for (uint64_t lpn = 0; lpn < logical_pages_; ++lpn) {
    uint32_t ppn = l2p_[lpn];
    if (ppn == kUnmapped) continue;
    if (ppn >= physical_pages_) {
      return Status::Corruption("l2p out of range");
    }
    if (seen[ppn]) return Status::Corruption("l2p not injective");
    seen[ppn] = 1;
    if (p2l_[ppn] != lpn) return Status::Corruption("p2l mismatch");
    if (!page_valid_[ppn]) return Status::Corruption("mapped page not valid");
  }
  // Every valid page must be mapped.
  for (uint64_t ppn = 0; ppn < physical_pages_; ++ppn) {
    if (page_valid_[ppn] && !seen[ppn]) {
      return Status::Corruption("valid page not referenced by l2p");
    }
  }
  // Block valid counts must agree.
  for (uint32_t b = 0; b < num_blocks_; ++b) {
    uint32_t count = 0;
    for (uint32_t i = 0; i < config_.pages_per_block; ++i) {
      if (page_valid_[static_cast<uint64_t>(b) * config_.pages_per_block + i]) {
        count++;
      }
    }
    if (count != blocks_[b].valid_count) {
      return Status::Corruption("block valid_count mismatch");
    }
  }
  return Status::OK();
}

}  // namespace sias
