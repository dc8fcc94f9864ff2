// tpcc-sias-v / tpcc-si: the TPC-C standard mix at open throttle on a
// 2-member flash RAID-0 sized so the FTL garbage collector runs. One worker
// thread multiplexes every terminal, round-robin one transaction at a time,
// so virtual time is a pure function of the seed.
#include <cstdio>

#include "common/logging.h"
#include "obs/metrics.h"
#include "workload/tpcc_gen.h"
#include "workload/tpcc_txn.h"
#include "workloads.h"

namespace perfbench {

using namespace sias;
using namespace sias::tpcc;

namespace {

// Table 1 scale (150 customers per district, 2000 items): about 11 MB of
// heap after loading, growing by about 2.6 MB per 1000 transactions.
constexpr int kWarehouses = 4;
// Terminal i is homed on warehouse i + 1, so warehouses 3 and 4 are cold
// data reached by remote payments and remote stock lines. With four
// terminals, device queueing made SI's New-Order p99 spread 17% across
// seeds (quartile distance over median); with two it spreads 3%.
constexpr int kTerminals = 2;
// Small enough that the FTL garbage collector runs under SI; large enough
// that the SIAS-V heap, which only shrinks by vacuum and TRIM, never fills
// it within the window (at 64 MB it did).
constexpr uint64_t kDeviceBytes = 80ull << 20;
// 8 MB: below the loaded dataset, so the median New-Order already waits for
// a page read; with 16 MB its latency was the same on every seed.
constexpr size_t kPoolFrames = 1024;
constexpr VDuration kMeasured = 4500 * kVMillisecond;
constexpr int kMaxRetries = 5;

TpccScale Scale() {
  TpccScale s;
  s.customers_per_district = 150;
  s.items = 2000;
  return s;
}

/// TPC-C consistency condition 1 (d_next_o_id - 1 is the largest o_id in
/// ORDERS) and that every NEW_ORDER row has its ORDERS row, through the
/// public Table API only.
void CheckConsistency(Database* db, const TpccTables& t, VTime at,
                      std::vector<std::string>* errors) {
  VirtualClock clk(at);
  auto txn = db->Begin(&clk);
  auto fail = [&](const std::string& what) {
    if (errors->size() < 8) errors->push_back("tpcc consistency: " + what);
  };
  const TpccScale scale = Scale();
  for (int64_t w = 1; w <= kWarehouses; ++w) {
    for (int64_t d = 1; d <= scale.districts_per_wh; ++d) {
      const std::string where =
          " (w=" + std::to_string(w) + " d=" + std::to_string(d) + ")";
      auto dist = t.district->IndexLookup(txn.get(), TpccTables::kDistrictPk,
                                          Slice(DistrictKey(w, d)));
      if (!dist.ok() || dist->size() != 1) {
        fail("district row missing" + where);
        continue;
      }
      const int64_t next_o = (*dist)[0].second.GetInt(dcol::kNextOid);
      int64_t max_o = 0;
      Status s = t.orders->IndexRange(
          txn.get(), TpccTables::kOrdersPk, Slice(OrderKey(w, d, 0)),
          Slice(OrderKey(w, d + 1, 0)), [&](Vid, const Row& row) {
            max_o = std::max(max_o, row.GetInt(ocol::kId));
            return true;
          });
      if (!s.ok()) fail("orders scan: " + s.ToString() + where);
      if (next_o != max_o + 1) {
        fail("d_next_o_id " + std::to_string(next_o) + " != max o_id " +
             std::to_string(max_o) + " + 1" + where);
      }
      s = t.new_order->IndexRange(
          txn.get(), TpccTables::kNewOrderPk, Slice(NewOrderKey(w, d, 0)),
          Slice(NewOrderKey(w, d + 1, 0)), [&](Vid, const Row& row) {
            const int64_t o = row.GetInt(nocol::kOid);
            auto ord = t.orders->IndexLookup(txn.get(), TpccTables::kOrdersPk,
                                             Slice(OrderKey(w, d, o)));
            if (!ord.ok() || ord->size() != 1) {
              fail("NEW_ORDER " + std::to_string(o) + " has no ORDERS row" +
                   where);
            }
            return true;
          });
      if (!s.ok()) fail("new_order scan: " + s.ToString() + where);
    }
  }
  Status s = db->Commit(txn.get());
  if (!s.ok()) fail("check commit: " + s.ToString());
}

const char* CallName(TxnType t) {
  switch (t) {
    case TxnType::kNewOrder:
      return "call.tpcc.new_order";
    case TxnType::kPayment:
      return "call.tpcc.payment";
    case TxnType::kOrderStatus:
      return "call.tpcc.order_status";
    case TxnType::kDelivery:
      return "call.tpcc.delivery";
    case TxnType::kStockLevel:
      return "call.tpcc.stock_level";
  }
  return "call.tpcc.unknown";
}

}  // namespace

RoundResult RunTpccRound(VersionScheme scheme, FlushPolicy policy,
                         const RoundOptions& opts) {
  RoundResult r;
  const double setup_start = WallSeconds();
  Devices dev(kDeviceBytes, 2, opts.traced);
  DatabaseOptions o;
  o.data_device = dev.data_for_db();
  o.wal_device = dev.wal_for_db();
  o.pool_frames = kPoolFrames;
  o.flush_policy = policy;
  // The write-reduction experiment's bgwriter and vacuum cadences, with a
  // checkpoint every virtual second so several fall within the window.
  o.bgwriter_interval = 20 * kVMillisecond;
  o.checkpoint_interval = 1 * kVSecond;
  o.vacuum_interval = 500 * kVMillisecond;
  auto opened = Database::Open(o);
  if (!opened.ok()) {
    r.errors.push_back("open: " + opened.status().ToString());
    return r;
  }
  std::unique_ptr<Database> db = std::move(*opened);
  auto created = CreateTpccTables(db.get(), scheme);
  if (!created.ok()) {
    r.errors.push_back("create tables: " + created.status().ToString());
    return r;
  }
  const TpccTables tables = *created;
  Random load_rng(opts.seed);
  VirtualClock load_clock;
  Status s = LoadTpcc(db.get(), tables, Scale(), kWarehouses, load_rng,
                      &load_clock);
  if (s.ok()) s = db->Checkpoint(&load_clock);
  if (!s.ok()) {
    r.errors.push_back("load: " + s.ToString());
    return r;
  }
  const VTime start = load_clock.now();
  r.setup_s = (WallSeconds() - setup_start) * ReferenceFactor(8);
  if (opts.setup_only) return r;

  // ---- measured window ----
  obs::MetricsRegistry::Default().ResetAll();
  dev.device_busy_s = 0;
  const EngineMark begin = EngineMark::Take(db.get(), &dev);
  TpccConfig tcfg;
  tcfg.warehouses = kWarehouses;
  tcfg.scale = Scale();
  TpccExecutor exec(db.get(), tables, tcfg);

  struct Terminal {
    VirtualClock clock;
    Random rng{0};
    int64_t w_id = 1;
  };
  std::vector<Terminal> terms(kTerminals);
  for (int i = 0; i < kTerminals; ++i) {
    terms[i].clock.AdvanceTo(start);
    terms[i].rng.Seed(opts.seed * 7919 + static_cast<uint64_t>(i) + 1);
    terms[i].w_id = (i % kWarehouses) + 1;
  }
  const VTime deadline = start + kMeasured;

  std::map<std::string, CallSamples> calls;
  CallSamples* per_type[kNumTxnTypes] = {};
  CallSamples* tick_samples = nullptr;
  if (opts.traced) {
    for (int t = 0; t < kNumTxnTypes; ++t) {
      per_type[t] = &calls[CallName(static_cast<TxnType>(t))];
    }
    tick_samples = &calls["call.tick"];
  }
  std::array<uint64_t, kNumTxnTypes> committed{};
  // Commits no later than the deadline, which throughput counts.
  std::array<uint64_t, kNumTxnTypes> in_window{};
  uint64_t failed = 0, user_aborts = 0, retries = 0;
  Status first_error;
  std::vector<VDuration> new_order_latency;
  VDuration tick_vstall = 0;

  CpuMeter meter(8);
  const double work_start = WallSeconds();
  meter.Start();
  for (bool active = true; active;) {
    active = false;
    for (Terminal& term : terms) {
      if (term.clock.now() >= deadline) continue;
      active = true;
      const TxnType type = exec.PickType(term.rng);
      const int ti = static_cast<int>(type);
      const VTime t0 = term.clock.now();
      TxnOutcome outcome = TxnOutcome::kConflictAbort;
      Status error;
      for (int attempt = 0;
           attempt <= kMaxRetries && outcome == TxnOutcome::kConflictAbort;
           ++attempt) {
        {
          CallTimer timer(per_type[ti]);
          outcome = exec.Run(type, term.w_id, term.rng, &term.clock, &error);
        }
        if (outcome == TxnOutcome::kConflictAbort) {
          ++retries;
          term.clock.Advance(kVMillisecond);
        }
      }
      switch (outcome) {
        case TxnOutcome::kCommitted:
          ++committed[ti];
          if (term.clock.now() <= deadline) ++in_window[ti];
          if (type == TxnType::kNewOrder) {
            new_order_latency.push_back(term.clock.now() - t0);
          }
          break;
        case TxnOutcome::kUserAbort:
          ++user_aborts;
          break;
        case TxnOutcome::kConflictAbort:
        case TxnOutcome::kError:
          ++failed;
          if (first_error.ok()) first_error = error;
          break;
      }
      const VTime before_tick = term.clock.now();
      Status ts;
      {
        CallTimer timer(tick_samples);
        ts = db->Tick(&term.clock);
      }
      tick_vstall += term.clock.now() - before_tick;
      if (!ts.ok()) {
        ++failed;
        if (first_error.ok()) first_error = ts;
      }
      meter.Step();
    }
  }
  meter.Stop();
  r.work_wall_s = WallSeconds() - work_start;

  VTime makespan = start;
  for (const Terminal& term : terms) {
    makespan = std::max(makespan, term.clock.now());
  }
  uint64_t total = 0;
  for (uint64_t c : committed) total += c;
  const double elapsed_vsec =
      static_cast<double>(makespan - start) / static_cast<double>(kVSecond);
  const EngineMark end = EngineMark::Take(db.get(), &dev);
  CollectEngineMetrics(db.get(), begin, end, total, elapsed_vsec, &r);

  r.attempted = total + failed;
  r.failed = failed;
  if (failed > 0) {
    r.errors.push_back("tpcc: " + std::to_string(failed) +
                       " failed transactions, first: " +
                       first_error.ToString());
  }
  // p99 by nearest rank keeps at least 10 samples beyond it from 1100 on.
  if (new_order_latency.size() < 1100) {
    r.errors.push_back("tpcc: only " +
                       std::to_string(new_order_latency.size()) +
                       " New-Order samples; p99 needs at least 1100");
  }
  auto& x = r.exact;
  const size_t no_samples = new_order_latency.size();
  x["committed"] = static_cast<double>(total);
  x["failed"] = static_cast<double>(failed);
  x["user_aborts"] = static_cast<double>(user_aborts);
  x["conflict_retries"] = static_cast<double>(retries);
  x["latency_samples"] = static_cast<double>(no_samples);
  const double window_vsec =
      static_cast<double>(kMeasured) / static_cast<double>(kVSecond);
  uint64_t window_total = 0;
  for (uint64_t c : in_window) window_total += c;
  x["txn_per_vsec"] = static_cast<double>(window_total) / window_vsec;
  x["notpm"] = static_cast<double>(in_window[0]) / (window_vsec / 60.0);
  x["p50_ms"] = static_cast<double>(Percentile(new_order_latency, 50)) /
                static_cast<double>(kVMillisecond);
  x["p99_ms"] = static_cast<double>(Percentile(new_order_latency, 99)) /
                static_cast<double>(kVMillisecond);
  x["tick.vstall_ms_per_vsec"] = static_cast<double>(tick_vstall) /
                                 static_cast<double>(kVMillisecond) /
                                 elapsed_vsec;
  r.layer["tick.vstall_ms_per_vsec"] = x["tick.vstall_ms_per_vsec"];
  r.raw_cpu_us_per_txn =
      meter.work_cpu_s() / static_cast<double>(total) * 1e6;
  r.cpu_us_per_txn =
      meter.normalized_cpu_s() / static_cast<double>(total) * 1e6;
  if (opts.traced) {
    SummarizeTracedLoop(std::move(calls), dev.device_busy_s, r.work_wall_s,
                        &r.layer);
  }

  CheckConsistency(db.get(), tables, makespan, &r.errors);
  return r;
}

}  // namespace perfbench
