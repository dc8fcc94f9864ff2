// Zero-latency RAM device: the null device model for unit tests and for WAL
// placement when log I/O should be excluded from an experiment.
#pragma once

#include <atomic>

#include "device/data_store.h"
#include "device/device.h"
#include "device/trace.h"

namespace sias {

/// RAM-backed device with an optional fixed per-op latency.
class MemDevice : public StorageDevice {
 public:
  explicit MemDevice(uint64_t capacity_bytes,
                     VDuration read_latency = 0,
                     VDuration write_latency = 0)
      : capacity_(capacity_bytes),
        read_latency_(read_latency),
        write_latency_(write_latency) {}

  Status Read(uint64_t offset, size_t len, uint8_t* out,
              VirtualClock* clk) override {
    SIAS_RETURN_NOT_OK(CheckRange(offset, len));
    if (trace_ != nullptr) {
      trace_->Record(clk ? clk->now() : 0, offset, static_cast<uint32_t>(len),
                     TraceOp::kRead);
    }
    store_.Read(offset, len, out);
    RecordDeviceRead(len);
    reads_.fetch_add(1, std::memory_order_relaxed);
    bytes_read_.fetch_add(len, std::memory_order_relaxed);
    if (clk != nullptr) clk->Advance(read_latency_);
    return Status::OK();
  }

  Status Write(uint64_t offset, size_t len, const uint8_t* data,
               VirtualClock* clk, bool background = false) override {
    SIAS_RETURN_NOT_OK(CheckRange(offset, len));
    if (trace_ != nullptr) {
      trace_->Record(clk ? clk->now() : 0, offset, static_cast<uint32_t>(len),
                     TraceOp::kWrite);
    }
    store_.Write(offset, len, data);
    RecordDeviceWrite(len);
    writes_.fetch_add(1, std::memory_order_relaxed);
    bytes_written_.fetch_add(len, std::memory_order_relaxed);
    if (clk != nullptr && !background) clk->Advance(write_latency_);
    return Status::OK();
  }

  /// Trimmed bytes read back as zero, like a trimmed flash range.
  Status Trim(uint64_t offset, size_t len) override {
    SIAS_RETURN_NOT_OK(CheckRange(offset, len));
    store_.Erase(offset, len);
    return Status::OK();
  }

  uint64_t capacity_bytes() const override { return capacity_; }

  DeviceStats stats() const override {
    DeviceStats s;
    s.read_ops = reads_.load(std::memory_order_relaxed);
    s.write_ops = writes_.load(std::memory_order_relaxed);
    s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
    s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  uint64_t capacity_;
  VDuration read_latency_;
  VDuration write_latency_;
  DataStore store_;
  std::atomic<uint64_t> reads_{0}, writes_{0};
  std::atomic<uint64_t> bytes_read_{0}, bytes_written_{0};
};

}  // namespace sias
