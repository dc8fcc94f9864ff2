#include "harness.h"

namespace perfbench {

namespace {

// The reference kernel: a fixed pseudo-random read-modify-write walk over a
// 32 KB table, integer work that stays in the L1 cache. It tracks what
// changes a core's speed (clock frequency, a busy sibling hyperthread)
// without the memory-bandwidth sensitivity of a larger table, which
// over-corrected the engine's figures by 20% when neighbours were busy. It
// touches no engine state.
constexpr size_t kRefWords = size_t{1} << 12;
constexpr int kRefStepsPerSlice = 50000;
// Thread-CPU seconds one kernel slice takes on the reference machine
// (4-core x86-64 container, g++ -O3); normalised CPU figures are expressed
// in that machine's seconds.
constexpr double kRefNominalSliceSeconds = 120e-6;

struct RefKernel {
  std::vector<uint64_t> table = std::vector<uint64_t>(kRefWords, 1);
  uint64_t state = 0x243F6A8885A308D3ull;
  uint64_t sink = 0;

  void Run() {
    uint64_t acc = 0;
    for (int i = 0; i < kRefStepsPerSlice; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      uint64_t& slot = table[(state >> 33) & (kRefWords - 1)];
      uint64_t v = slot ^ (slot >> 17);
      v *= 0x9E3779B97F4A7C15ull;
      slot = v + static_cast<uint64_t>(i);
      acc += v >> 7;
    }
    sink += acc;
  }
};

RefKernel& Kernel() {
  static RefKernel kernel;
  return kernel;
}

constexpr int kSlicesPerChunk = 16;

}  // namespace

CpuMeter::CpuMeter(int slice_ops) : slice_ops_(std::max(1, slice_ops)) {
  Kernel();  // allocate the table outside any measured interval
}

void CpuMeter::Start() {
  ops_ = 0;
  slice_start_ = ThreadCpuSeconds();
}

void CpuMeter::Slice() {
  const double t0 = ThreadCpuSeconds();
  chunk_work_s_ += t0 - slice_start_;
  Kernel().Run();
  const double t1 = ThreadCpuSeconds();
  chunk_ref_s_ += t1 - t0;
  slice_start_ = t1;
  if (++chunk_slices_ == kSlicesPerChunk) CloseChunk();
}

void CpuMeter::CloseChunk() {
  work_total_s_ += chunk_work_s_;
  normalized_s_ += chunk_work_s_ * kRefNominalSliceSeconds * chunk_slices_ /
                   chunk_ref_s_;
  chunk_work_s_ = chunk_ref_s_ = 0;
  chunk_slices_ = 0;
}

void CpuMeter::Stop() {
  // A final kernel slice, so even a short tail has a reference measurement.
  Slice();
  if (chunk_slices_ > 0) CloseChunk();
}

double ReferenceFactor(int slices) {
  Kernel();
  const double t0 = ThreadCpuSeconds();
  for (int i = 0; i < slices; ++i) Kernel().Run();
  return kRefNominalSliceSeconds * slices / (ThreadCpuSeconds() - t0);
}

void SummarizeTracedLoop(std::map<std::string, CallSamples> calls,
                         double device_busy_s, double loop_wall_s,
                         std::map<std::string, double>* layer) {
  double tick_s = 0;
  for (double us : calls["call.tick"]) tick_s += us * 1e-6;
  calls.erase("call.tick");
  (*layer)["tick.cpu_share"] = tick_s / loop_wall_s;
  (*layer)["device.cpu_share"] = device_busy_s / loop_wall_s;
  for (auto& [name, samples] : calls) {
    (*layer)[name + ".p50_us"] = Percentile(samples, 50);
    (*layer)[name + ".p99_us"] = Percentile(samples, 99);
  }
}

}  // namespace perfbench
