#include <cmath>

#include "device/flash_ssd.h"
#include "device/mem_device.h"
#include "device/raid0.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "workloads.h"

namespace perfbench {

using sias::kVMicrosecond;

Devices::Devices(uint64_t capacity_bytes, int members, bool traced) {
  std::vector<std::unique_ptr<sias::StorageDevice>> ssds;
  for (int i = 0; i < members; ++i) {
    sias::FlashConfig fc;
    fc.capacity_bytes = capacity_bytes / members;
    ssds.push_back(std::make_unique<sias::FlashSsd>(fc));
  }
  data = std::make_unique<sias::Raid0>(std::move(ssds));
  wal = std::make_unique<sias::MemDevice>(8ull << 30, 20 * kVMicrosecond,
                                          60 * kVMicrosecond);
  if (traced) {
    timed_data = std::make_unique<TimedDevice>(data.get(), &device_busy_s);
    timed_wal = std::make_unique<TimedDevice>(wal.get(), &device_busy_s);
  }
}

EngineMark EngineMark::Take(sias::Database* db, Devices* dev) {
  EngineMark m;
  m.data = dev->data->stats();
  for (uint64_t ns : dev->data->telemetry().channel_busy_ns) {
    m.channel_busy_ns += ns;
    ++m.channels;
  }
  sias::DatabaseStats s = db->stats();
  m.heap_allocated_bytes = s.heap_allocated_bytes;
  m.checkpoints = s.checkpoints;
  m.bgwriter_passes = s.bgwriter_passes;
  return m;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Kb(double bytes) { return bytes / 1024.0; }

}  // namespace

void CollectEngineMetrics(sias::Database* db, const EngineMark& begin,
                          const EngineMark& end, uint64_t committed,
                          double elapsed_vsec, RoundResult* r) {
  const sias::obs::MetricsSnapshot snap = db->DumpMetrics();
  auto counter = [&](const char* name) -> double {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : static_cast<double>(it->second);
  };
  auto hist = [&](const char* name) {
    auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? sias::obs::HistogramSummary{}
                                       : it->second;
  };
  const double txns = static_cast<double>(committed);
  const double ktxns = txns / 1000.0;

  // End-to-end device figures over the window.
  const double written = static_cast<double>(end.data.bytes_written -
                                             begin.data.bytes_written);
  const double read =
      static_cast<double>(end.data.bytes_read - begin.data.bytes_read);
  const double programs = static_cast<double>(
      end.data.flash_page_programs - begin.data.flash_page_programs);
  const double host_programs = static_cast<double>(
      end.data.host_page_programs - begin.data.host_page_programs);
  auto& x = r->exact;
  x["write_kb_per_ktxn"] = Ratio(Kb(written), ktxns);
  x["write_amplification"] = host_programs > 0 ? programs / host_programs : 1;
  x["occupied_kb_per_ktxn"] =
      Ratio(Kb(static_cast<double>(end.heap_allocated_bytes) -
               static_cast<double>(begin.heap_allocated_bytes)),
            ktxns);

  // Every counter and every virtual-time histogram of the registry: they
  // are all functions of the seed, so the determinism checks compare them.
  for (const auto& [name, v] : snap.counters) {
    x["reg." + name] = static_cast<double>(v);
  }
  for (const auto& [name, h] : snap.histograms) {
    x["reg." + name + ".count"] = static_cast<double>(h.count);
    x["reg." + name + ".sum"] = h.mean * static_cast<double>(h.count);
    x["reg." + name + ".p99"] = static_cast<double>(h.p99);
  }

  auto& l = r->layer;
  // engine maintenance
  l["db.checkpoints"] = static_cast<double>(end.checkpoints - begin.checkpoints);
  l["db.bgwriter_passes"] =
      static_cast<double>(end.bgwriter_passes - begin.bgwriter_passes);

  // txn spans: each phase's share of committed latency, and the invariant
  // that the phases partition it exactly.
  const auto committed_latency = hist("txn.latency.committed");
  const double latency_sum =
      committed_latency.mean * static_cast<double>(committed_latency.count);
  double phase_sum = 0;
  for (size_t p = 0; p < sias::obs::kNumSpanPhases; ++p) {
    const char* phase = sias::obs::SpanPhaseName(static_cast<sias::obs::SpanPhase>(p));
    const auto h = hist(("txn.phase." + std::string(phase)).c_str());
    const double sum = h.mean * static_cast<double>(h.count);
    phase_sum += sum;
    l["phase." + std::string(phase) + "_share"] = Ratio(sum, latency_sum);
  }
  if (committed_latency.count == 0 ||
      std::fabs(phase_sum - latency_sum) > 1e-9 * latency_sum) {
    char buf[160];
    snprintf(buf, sizeof(buf),
             "span phase sum %.0f vns != txn.latency.committed sum %.0f vns "
             "over %llu transactions",
             phase_sum, latency_sum,
             static_cast<unsigned long long>(committed_latency.count));
    r->errors.push_back(buf);
  }

  // buffer
  const double hits = counter("buffer.hits");
  const double misses = counter("buffer.misses");
  l["buffer.hit_ratio"] = Ratio(hits, hits + misses);
  l["buffer.misses_per_txn"] = Ratio(misses, txns);
  l["buffer.evictions_per_txn"] = Ratio(counter("buffer.evictions"), txns);
  l["buffer.writebacks_per_ktxn"] =
      Ratio(counter("buffer.writebacks"), ktxns);

  // core / mvcc
  const double reads = counter("mvcc.reads");
  l["mvcc.reads_per_txn"] = Ratio(reads, txns);
  l["mvcc.version_hops_per_read"] = Ratio(counter("mvcc.version_hops"), reads);
  l["mvcc.traversal_depth_p99"] =
      static_cast<double>(hist("mvcc.traversal_depth").p99);
  l["mvcc.fetches_per_read"] = Ratio(hits + misses, reads);
  l["mvcc.gc.versions_discarded_per_ktxn"] =
      Ratio(counter("mvcc.gc.versions_discarded"), ktxns);
  l["mvcc.gc.versions_relocated_per_ktxn"] =
      Ratio(counter("mvcc.gc.versions_relocated"), ktxns);
  auto pending = snap.gauges.find("mvcc.epoch.pending");
  l["mvcc.epoch.pending"] =
      pending == snap.gauges.end() ? 0 : static_cast<double>(pending->second);

  // wal
  const double leaders = counter("wal.group_commit.leader");
  const double followers = counter("wal.group_commit.follower");
  l["wal.flushes_per_txn"] = Ratio(counter("wal.flushes"), txns);
  l["wal.written_kb_per_ktxn"] = Ratio(Kb(counter("wal.written_bytes")), ktxns);
  l["wal.fpi_per_ktxn"] = Ratio(counter("wal.fpi_records"), ktxns);
  l["wal.follower_ratio"] = Ratio(followers, leaders + followers);
  l["wal.flush_latency_p50_us"] =
      static_cast<double>(hist("wal.flush_latency").p50) / kVMicrosecond;

  // device (the data device; the WAL device is a fixed-latency RAM model)
  l["device.read_ops_per_txn"] =
      Ratio(static_cast<double>(end.data.read_ops - begin.data.read_ops), txns);
  l["device.write_ops_per_txn"] = Ratio(
      static_cast<double>(end.data.write_ops - begin.data.write_ops), txns);
  l["device.read_kb_per_ktxn"] = Ratio(Kb(read), ktxns);
  l["flash.gc_page_moves_per_ktxn"] = Ratio(
      static_cast<double>(end.data.gc_page_moves - begin.data.gc_page_moves),
      ktxns);
  l["flash.trims_per_ktxn"] = Ratio(counter("flash.trims"), ktxns);
  l["flash.block_erases"] = static_cast<double>(
      end.data.flash_block_erases - begin.data.flash_block_erases);
  l["device.channel_busy_fraction"] =
      Ratio(static_cast<double>(end.channel_busy_ns - begin.channel_busy_ns),
            static_cast<double>(end.channels) * elapsed_vsec *
                static_cast<double>(sias::kVSecond));
  l["io.completion_lag_p99_us"] =
      static_cast<double>(hist("io.completion_lag").p99) / kVMicrosecond;

  // The per-layer counts above are exact too; the wall-clock shares and call
  // timings the workload adds later are not.
  for (const auto& [name, v] : l) x["layer." + name] = v;
}

}  // namespace perfbench
