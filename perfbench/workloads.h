// The benchmark workloads and the engine-side measurement they share.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "engine/database.h"
#include "harness.h"

namespace perfbench {

struct RoundOptions {
  uint64_t seed = 1;
  /// Traced round: pass-through timing devices and per-call timers.
  bool traced = false;
  /// Stop after set-up (extra set-up samples for the median).
  bool setup_only = false;
};

/// TPC-C standard mix, one worker thread multiplexing all terminals.
RoundResult RunTpccRound(sias::VersionScheme scheme, sias::FlushPolicy policy,
                         const RoundOptions& opts);

/// Cache-resident SIAS-V key/value table with a long-lived reader.
RoundResult RunKvRound(const RoundOptions& opts);

/// Data and WAL devices of one round, optionally behind TimedDevice.
struct Devices {
  std::unique_ptr<sias::StorageDevice> data;
  std::unique_ptr<sias::StorageDevice> wal;
  std::unique_ptr<TimedDevice> timed_data;
  std::unique_ptr<TimedDevice> timed_wal;
  double device_busy_s = 0;  ///< wall time inside both timed devices

  /// A RAID-0 of `members` flash SSDs of `capacity_bytes` in total, and a
  /// RAM WAL device with a fixed 20/60 µs read/write latency.
  Devices(uint64_t capacity_bytes, int members, bool traced);
  Devices(const Devices&) = delete;
  Devices& operator=(const Devices&) = delete;

  sias::StorageDevice* data_for_db() {
    return timed_data ? timed_data.get() : data.get();
  }
  sias::StorageDevice* wal_for_db() {
    return timed_wal ? timed_wal.get() : wal.get();
  }
};

/// Engine state at one instant, for deltas over the measured window.
struct EngineMark {
  sias::DeviceStats data;
  uint64_t channel_busy_ns = 0;
  size_t channels = 0;
  uint64_t heap_allocated_bytes = 0;
  uint64_t checkpoints = 0;
  uint64_t bgwriter_passes = 0;

  static EngineMark Take(sias::Database* db, Devices* dev);
};

/// The measured window's engine figures: device volumes and write
/// amplification into `exact`; the `buffer`, `mvcc`, `wal`, `device`, `db`
/// and span-phase layers into `layer` (their counts also into `exact`); and
/// the span phase-sum invariant into `errors`. Reads the process-wide
/// metrics registry, which the caller reset when the window began.
void CollectEngineMetrics(sias::Database* db, const EngineMark& begin,
                          const EngineMark& end, uint64_t committed,
                          double elapsed_vsec, RoundResult* r);

}  // namespace perfbench
