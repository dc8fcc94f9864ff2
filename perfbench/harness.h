// Measurement plumbing shared by the benchmark workloads: wall and thread-CPU
// clocks, per-call timers, the pass-through timing device, the interleaved
// reference kernel that normalises CPU time, and the per-round result record.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "device/device.h"

namespace perfbench {

inline double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Exact order statistic (nearest rank) of `v`, p in [0, 100]. Sorts `v`.
template <typename T>
T Percentile(std::vector<T>& v, double p) {
  if (v.empty()) return T{};
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Wall-clock samples of calls into one engine entry point, in µs. Held in
/// memory for the whole round and summarised when it ends.
using CallSamples = std::vector<double>;

/// Times one call when `samples` is non-null (traced round); otherwise it
/// reads no clock at all, so untraced rounds pay nothing.
class CallTimer {
 public:
  explicit CallTimer(CallSamples* samples) : samples_(samples) {
    if (samples_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~CallTimer() {
    if (samples_ == nullptr) return;
    samples_->push_back(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start_)
                            .count());
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  CallSamples* samples_;
  std::chrono::steady_clock::time_point start_;
};

/// Pass-through StorageDevice decorator (the shape of fault::FaultyDevice in
/// write-through mode) that adds the wall time spent inside the wrapped
/// device to `*busy_s`. It forwards every call unchanged, so the engine's
/// virtual time and counters are identical with and without it.
class TimedDevice : public sias::StorageDevice {
 public:
  TimedDevice(sias::StorageDevice* inner, double* busy_s)
      : inner_(inner), busy_s_(busy_s) {}

  sias::Status Read(uint64_t offset, size_t len, uint8_t* out,
                    sias::VirtualClock* clk) override {
    Busy b(busy_s_);
    return inner_->Read(offset, len, out, clk);
  }
  sias::Status Write(uint64_t offset, size_t len, const uint8_t* data,
                     sias::VirtualClock* clk, bool background) override {
    Busy b(busy_s_);
    return inner_->Write(offset, len, data, clk, background);
  }
  sias::Status Trim(uint64_t offset, size_t len) override {
    Busy b(busy_s_);
    return inner_->Trim(offset, len);
  }
  sias::Status Sync(sias::VirtualClock* clk) override {
    Busy b(busy_s_);
    return inner_->Sync(clk);
  }
  sias::Result<sias::IoHandle> Submit(const sias::IoRequest& req,
                                      sias::VTime now) override {
    Busy b(busy_s_);
    return inner_->Submit(req, now);
  }
  sias::Status Wait(sias::IoHandle h, sias::VirtualClock* clk) override {
    Busy b(busy_s_);
    return inner_->Wait(h, clk);
  }
  bool Poll(sias::IoHandle h, sias::VTime now, sias::Status* status) override {
    Busy b(busy_s_);
    return inner_->Poll(h, now, status);
  }
  sias::Status Cancel(sias::IoHandle h, sias::VirtualClock* clk) override {
    Busy b(busy_s_);
    return inner_->Cancel(h, clk);
  }
  uint64_t capacity_bytes() const override { return inner_->capacity_bytes(); }
  sias::DeviceStats stats() const override { return inner_->stats(); }
  sias::DeviceTelemetry telemetry() const override {
    return inner_->telemetry();
  }

 private:
  struct Busy {
    explicit Busy(double* acc) : acc_(acc), start_(WallSeconds()) {}
    ~Busy() { *acc_ += WallSeconds() - start_; }
    double* acc_;
    double start_;
  };
  sias::StorageDevice* inner_;
  double* busy_s_;
};

/// Thread-CPU meter for the measured loop with an interleaved reference
/// kernel. Every `slice_ops` operations it closes the current work slice and
/// runs one fixed-size slice of the reference kernel on the same thread, so
/// both see the same machine conditions (frequency, cache pressure from
/// neighbours). Each chunk of consecutive slices is rescaled by its own
/// kernel time, which tracks machine-speed drift within a round as well as
/// between runs.
class CpuMeter {
 public:
  explicit CpuMeter(int slice_ops);
  void Start();
  /// Call after each operation.
  void Step() {
    if (++ops_ < slice_ops_) return;
    ops_ = 0;
    Slice();
  }
  void Stop();
  /// Raw thread-CPU seconds of the work slices.
  double work_cpu_s() const { return work_total_s_; }
  /// Work CPU seconds on the reference machine: each chunk's work time
  /// times (nominal kernel slice time / that chunk's kernel slice time).
  double normalized_cpu_s() const { return normalized_s_; }

 private:
  void Slice();
  void CloseChunk();
  int slice_ops_;
  int ops_ = 0;
  double slice_start_ = 0;
  double chunk_work_s_ = 0;
  double chunk_ref_s_ = 0;
  int chunk_slices_ = 0;
  double work_total_s_ = 0;
  double normalized_s_ = 0;
};

/// Nominal / measured time of `slices` reference-kernel slices run now: the
/// factor that converts this machine's current seconds to reference seconds.
double ReferenceFactor(int slices);

/// What one round (set-up plus a fixed amount of measured work) produced.
struct RoundResult {
  /// Set-up wall time (devices, database, load, settling checkpoint), in
  /// reference-machine seconds.
  double setup_s = 0;
  double cpu_us_per_txn = 0;  ///< normalised worker CPU per committed txn
  double raw_cpu_us_per_txn = 0;  ///< the same before normalisation
  double work_wall_s = 0;     ///< wall seconds of the measured loop
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Virtual-time and count figures: a pure function of the seed. Two rounds
  /// of one seed must agree on every entry bit for bit.
  std::map<std::string, double> exact;
  /// Per-layer figures (exact counts, ratios and, on traced rounds, wall
  /// clock shares and call timings).
  std::map<std::string, double> layer;
  /// Failed output checks; non-empty makes the benchmark fail.
  std::vector<std::string> errors;
};

/// The wall-clock per-layer figures of a traced loop: `<call>.p50_us` and
/// `<call>.p99_us` for each timed entry point, and the shares of the loop's
/// wall time spent in `call.tick` (Database::Tick) and inside the devices.
void SummarizeTracedLoop(std::map<std::string, CallSamples> calls,
                         double device_busy_s, double loop_wall_s,
                         std::map<std::string, double>* layer);

}  // namespace perfbench
