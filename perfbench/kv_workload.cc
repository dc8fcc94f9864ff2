// kv-resident: one SIAS-V key/value table that fits in the buffer pool,
// driven open loop. Operations arrive on a seeded Poisson schedule; each is
// one transaction (zipf-skewed point read, or read-then-update, through the
// primary-key index) followed by Database::Tick. A long-lived reader is
// re-begun periodically and reads hot keys at its old snapshot, so hot items
// carry multi-version vectors and vacuum works against a held-back horizon.
//
// Every value carries the sequence number of the operation that wrote it;
// each read, fresh or old-snapshot, is checked against a shadow history.
#include <cmath>
#include <cstdio>

#include "index/key_codec.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "workload/ycsb.h"
#include "workloads.h"

namespace perfbench {

using namespace sias;

namespace {

constexpr int64_t kKeys = 20000;
constexpr int kOps = 300000;
constexpr int kUpdatePct = 10;
constexpr double kZipfTheta = 0.99;
/// Offered load: mean inter-arrival time of the Poisson schedule.
constexpr double kMeanInterarrivalNs = 85.0 * kVMicrosecond;
/// The long-lived reader is re-begun every this many operations, and reads
/// one key at its old snapshot every kReaderEvery operations.
constexpr int kReaderPeriod = 5000;
constexpr int kReaderEvery = 10;
constexpr size_t kPoolFrames = 4096;
constexpr uint64_t kDeviceBytes = 256ull << 20;
constexpr int kLoadBatch = 500;

namespace col {
enum { kKey = 0, kSeq, kPayload };
}

Schema KvSchema() {
  return Schema{{"key", ColumnType::kInt64},
                {"seq", ColumnType::kInt64},
                {"payload", ColumnType::kString}};
}

/// 64 bytes that depend on both the key and the writing operation.
std::string Payload(int64_t key, int64_t seq) {
  uint64_t x = static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull ^
               static_cast<uint64_t>(seq) * 0xC2B2AE3D27D4EB4Full;
  std::string s(64, ' ');
  for (char& c : s) {
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ull;
    c = static_cast<char>('a' + (x >> 59));
  }
  return s;
}

Row MakeRow(int64_t key, int64_t seq) {
  return Row{{key, seq, Payload(key, seq)}};
}

/// Writer sequence numbers per key, ascending; seq 0 is the loaded value.
class ShadowHistory {
 public:
  explicit ShadowHistory(int64_t keys) : seqs_(keys, std::vector<int64_t>{0}) {}
  void Write(int64_t key, int64_t seq) { seqs_[key].push_back(seq); }
  int64_t Latest(int64_t key) const { return seqs_[key].back(); }
  /// Value visible to a snapshot taken before operation `op` began.
  int64_t AsOf(int64_t key, int64_t op) const {
    const auto& v = seqs_[key];
    auto it = std::lower_bound(v.begin(), v.end(), op);
    return *(it - 1);
  }

 private:
  std::vector<std::vector<int64_t>> seqs_;
};

struct Checker {
  std::vector<std::string>* errors;
  uint64_t checked = 0;

  void Expect(const Result<std::vector<std::pair<Vid, Row>>>& hits,
              int64_t key, int64_t seq, const char* what) {
    ++checked;
    std::string bad;
    if (!hits.ok()) {
      bad = hits.status().ToString();
    } else if (hits->size() != 1) {
      bad = std::to_string(hits->size()) + " rows";
    } else {
      const Row& row = (*hits)[0].second;
      if (row.GetInt(col::kKey) != key || row.GetInt(col::kSeq) != seq ||
          row.GetString(col::kPayload) != Payload(key, seq)) {
        bad = "key " + std::to_string(row.GetInt(col::kKey)) + " seq " +
              std::to_string(row.GetInt(col::kSeq));
      }
    }
    if (!bad.empty() && errors->size() < 8) {
      errors->push_back(std::string("kv ") + what + " read of key " +
                        std::to_string(key) + ": expected seq " +
                        std::to_string(seq) + ", got " + bad);
    }
  }
};

}  // namespace

RoundResult RunKvRound(const RoundOptions& opts) {
  RoundResult r;
  const double setup_start = WallSeconds();
  Devices dev(kDeviceBytes, 2, opts.traced);
  DatabaseOptions o;
  o.data_device = dev.data_for_db();
  o.wal_device = dev.wal_for_db();
  o.pool_frames = kPoolFrames;
  o.flush_policy = FlushPolicy::kT2Checkpoint;
  o.checkpoint_interval = 1 * kVSecond;
  o.vacuum_interval = 500 * kVMillisecond;
  auto opened = Database::Open(o);
  if (!opened.ok()) {
    r.errors.push_back("open: " + opened.status().ToString());
    return r;
  }
  std::unique_ptr<Database> db = std::move(*opened);
  auto created = db->CreateTable("kv", KvSchema(), VersionScheme::kSiasV);
  Status s = created.status();
  Table* table = created.ok() ? *created : nullptr;
  if (s.ok()) {
    s = db->CreateIndex(table, "kv_pk", [](const Row& row) {
      return IntKey(row.GetInt(col::kKey));
    });
  }
  VirtualClock clk;
  for (int64_t k = 0; s.ok() && k < kKeys; k += kLoadBatch) {
    auto txn = db->Begin(&clk);
    for (int64_t i = k; s.ok() && i < std::min(kKeys, k + kLoadBatch); ++i) {
      s = table->Insert(txn.get(), MakeRow(i, 0)).status();
    }
    s = s.ok() ? db->Commit(txn.get()) : s;
  }
  if (s.ok()) s = db->Checkpoint(&clk);
  if (!s.ok()) {
    r.errors.push_back("load: " + s.ToString());
    return r;
  }
  // The inputs: key popularity, operation kinds and arrival times.
  Random rng(opts.seed);
  ycsb::ZipfianGenerator zipf(kKeys, kZipfTheta);
  // Scatter zipf ranks over the key space so hot keys share no page.
  auto pick_key = [&] {
    return static_cast<int64_t>((zipf.Next(rng) * 7919) % kKeys);
  };
  r.setup_s = (WallSeconds() - setup_start) * ReferenceFactor(8);
  if (opts.setup_only) return r;

  // ---- measured window ----
  obs::MetricsRegistry::Default().ResetAll();
  dev.device_busy_s = 0;
  const EngineMark begin = EngineMark::Take(db.get(), &dev);
  std::map<std::string, CallSamples> calls;
  CallSamples* t_begin = opts.traced ? &calls["call.begin"] : nullptr;
  CallSamples* t_lookup = opts.traced ? &calls["call.lookup"] : nullptr;
  CallSamples* t_update = opts.traced ? &calls["call.update"] : nullptr;
  CallSamples* t_commit = opts.traced ? &calls["call.commit"] : nullptr;
  CallSamples* t_tick = opts.traced ? &calls["call.tick"] : nullptr;

  ShadowHistory shadow(kKeys);
  Checker check{&r.errors};
  const VTime start = clk.now();
  double due = static_cast<double>(start);
  std::unique_ptr<Transaction> reader;
  int64_t reader_began_at = 0;  // op index the reader's snapshot precedes
  std::vector<VDuration> latency;
  latency.reserve(kOps);
  uint64_t committed = 0, failed = 0;
  VDuration busy = 0, tick_vstall = 0;
  Status first_error;
  auto note_error = [&](const Status& st) {
    ++failed;
    if (first_error.ok()) first_error = st;
  };

  CpuMeter meter(256);
  const double work_start = WallSeconds();
  meter.Start();
  for (int64_t op = 1; op <= kOps; ++op) {
    due += -std::log(1.0 - rng.NextDouble()) * kMeanInterarrivalNs;
    const VTime arrival = static_cast<VTime>(due);
    clk.AdvanceTo(arrival);
    const VTime service_start = clk.now();

    if (op % kReaderPeriod == 1) {
      if (reader) {
        Status cs = db->Commit(reader.get());
        if (!cs.ok()) note_error(cs);
      }
      reader = db->Begin(&clk);
      reader_began_at = op;
    } else if (op % kReaderEvery == 0) {
      const int64_t key = pick_key();
      check.Expect(table->IndexLookup(reader.get(), 0, Slice(IntKey(key))),
                   key, shadow.AsOf(key, reader_began_at), "old-snapshot");
    }

    const bool update = rng.UniformInt(1, 100) <= kUpdatePct;
    const int64_t key = pick_key();
    obs::TxnSpan root(update ? "kv.update" : "kv.read", &clk);
    std::unique_ptr<Transaction> txn;
    {
      CallTimer t(t_begin);
      txn = db->Begin(&clk);
    }
    root.set_xid(txn->xid());
    auto hits = [&] {
      CallTimer t(t_lookup);
      return table->IndexLookup(txn.get(), 0, Slice(IntKey(key)));
    }();
    check.Expect(hits, key, shadow.Latest(key), "fresh");
    Status st = hits.status();
    bool wrote = false;
    if (st.ok() && update && hits->size() == 1) {
      CallTimer t(t_update);
      st = table->Update(txn.get(), (*hits)[0].first, MakeRow(key, op));
      wrote = st.ok();
    }
    if (st.ok()) {
      CallTimer t(t_commit);
      st = db->Commit(txn.get());
    }
    if (st.ok()) {
      if (wrote) shadow.Write(key, op);
      ++committed;
      root.set_committed(true);
      root.Finish();
      latency.push_back(clk.now() - arrival);
    } else {
      if (txn->state() == TxnState::kActive) (void)db->Abort(txn.get());
      root.Finish();
      note_error(st);
    }

    const VTime before_tick = clk.now();
    {
      CallTimer t(t_tick);
      st = db->Tick(&clk);
    }
    if (!st.ok()) note_error(st);
    tick_vstall += clk.now() - before_tick;
    busy += clk.now() - service_start;
    meter.Step();
  }
  if (reader) {
    Status cs = db->Commit(reader.get());
    if (!cs.ok()) note_error(cs);
  }
  meter.Stop();
  r.work_wall_s = WallSeconds() - work_start;

  const double busy_vsec =
      static_cast<double>(busy) / static_cast<double>(kVSecond);
  const double elapsed_vsec =
      static_cast<double>(clk.now() - start) / static_cast<double>(kVSecond);
  const EngineMark end = EngineMark::Take(db.get(), &dev);
  CollectEngineMetrics(db.get(), begin, end, committed, elapsed_vsec, &r);

  r.attempted = kOps;
  r.failed = failed;
  if (failed > 0) {
    r.errors.push_back("kv: " + std::to_string(failed) +
                       " failed operations, first: " + first_error.ToString());
  }
  auto& x = r.exact;
  x["committed"] = static_cast<double>(committed);
  x["failed"] = static_cast<double>(failed);
  x["latency_samples"] = static_cast<double>(latency.size());
  x["reads_checked"] = static_cast<double>(check.checked);
  x["txn_per_vsec"] = static_cast<double>(committed) / busy_vsec;
  x["utilization"] = busy_vsec / elapsed_vsec;
  x["p50_ms"] = static_cast<double>(Percentile(latency, 50)) /
                static_cast<double>(kVMillisecond);
  x["p99_ms"] = static_cast<double>(Percentile(latency, 99)) /
                static_cast<double>(kVMillisecond);
  x["tick.vstall_ms_per_vsec"] = static_cast<double>(tick_vstall) /
                                 static_cast<double>(kVMillisecond) /
                                 elapsed_vsec;
  r.layer["tick.vstall_ms_per_vsec"] = x["tick.vstall_ms_per_vsec"];
  r.raw_cpu_us_per_txn =
      meter.work_cpu_s() / static_cast<double>(committed) * 1e6;
  r.cpu_us_per_txn =
      meter.normalized_cpu_s() / static_cast<double>(committed) * 1e6;
  if (opts.traced) {
    SummarizeTracedLoop(std::move(calls), dev.device_busy_s, r.work_wall_s,
                        &r.layer);
  }

  // Final state: every key holds its last written value, and only it.
  auto txn = db->Begin(&clk);
  for (int64_t k = 0; k < kKeys; ++k) {
    check.Expect(table->IndexLookup(txn.get(), 0, Slice(IntKey(k))), k,
                 shadow.Latest(k), "final");
  }
  int64_t rows = 0;
  s = table->Scan(txn.get(), [&](Vid, const Row&) {
    ++rows;
    return true;
  });
  if (!s.ok() || rows != kKeys) {
    r.errors.push_back("kv final scan: " + s.ToString() + ", " +
                       std::to_string(rows) + " rows, expected " +
                       std::to_string(kKeys));
  }
  (void)db->Commit(txn.get());
  return r;
}

}  // namespace perfbench
