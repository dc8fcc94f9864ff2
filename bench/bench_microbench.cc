// Microbenchmarks (google-benchmark) for the core data structures, plus the
// ABL2 ablation: SIAS-Chains pointer walk vs SIAS-V vector walk as a
// function of version depth, and the VidMap access costs C_R / C_W of
// paper §4.1.3.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <ctime>

#include "bench/bench_common.h"
#include "buffer/buffer_pool.h"
#include "common/crc32c_internal.h"
#include "common/logging.h"
#include "common/random.h"
#include "engine/database.h"
#include "core/sias_table.h"
#include "core/vid_map.h"
#include "core/vid_map_v.h"
#include "device/flash_ssd.h"
#include "device/mem_device.h"
#include "fault/fault_injector.h"
#include "fault/faulty_device.h"
#include "index/btree.h"
#include "index/key_codec.h"
#include "mvcc/tuple.h"
#include "mvcc/visibility.h"
#include "storage/disk_manager.h"
#include "txn/clog.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"

namespace sias {
namespace {

// ---------------------------------------------------------------------------
// VidMap access cost: C_R (lookup) and C_W (entrypoint swing), paper §4.1.3.
// ---------------------------------------------------------------------------

void BM_VidMapGet(benchmark::State& state) {
  VidMap map;
  for (int i = 0; i < 100000; ++i) {
    Vid v = map.AllocateVid();
    map.Set(v, Tid{static_cast<PageNumber>(i), 0});
  }
  Random rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Get(rng.Uniform(0, 99999)));
  }
}
BENCHMARK(BM_VidMapGet);

void BM_VidMapCompareAndSet(benchmark::State& state) {
  VidMap map;
  for (int i = 0; i < 100000; ++i) {
    Vid v = map.AllocateVid();
    map.Set(v, Tid{static_cast<PageNumber>(i), 0});
  }
  Random rng(1);
  uint16_t gen = 0;
  for (auto _ : state) {
    Vid v = rng.Uniform(0, 99999);
    Tid cur = map.Get(v);
    benchmark::DoNotOptimize(
        map.CompareAndSet(v, cur, Tid{cur.page, static_cast<uint16_t>(++gen)}));
  }
}
BENCHMARK(BM_VidMapCompareAndSet);

void BM_VidMapVGet(benchmark::State& state) {
  VidMapV map;
  int depth = static_cast<int>(state.range(0));
  for (int i = 0; i < 10000; ++i) {
    Vid v = map.AllocateVid();
    Tid front{};
    for (int d = 0; d < depth; ++d) {
      Tid t{static_cast<PageNumber>(i * 16 + d), 0};
      map.PushFront(v, front, t);
      front = t;
    }
  }
  Random rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Get(rng.Uniform(0, 9999)));
  }
}
BENCHMARK(BM_VidMapVGet)->Arg(1)->Arg(4)->Arg(16);

// ---------------------------------------------------------------------------
// Visibility kernels.
// ---------------------------------------------------------------------------

void BM_SiVisibilityCheck(benchmark::State& state) {
  Clog clog;
  for (Xid x = 2; x < 1000; ++x) clog.SetCommitted(x);
  Snapshot snap;
  snap.xid = 900;
  snap.xmax = 901;
  snap.concurrent = {850, 870, 880};
  TupleHeader h;
  h.xmin = 500;
  h.xmax = 860;  // concurrent invalidator: visible
  for (auto _ : state) {
    benchmark::DoNotOptimize(SiTupleVisible(h, snap, clog));
  }
}
BENCHMARK(BM_SiVisibilityCheck);

void BM_SiasVisibilityCheck(benchmark::State& state) {
  Clog clog;
  for (Xid x = 2; x < 1000; ++x) clog.SetCommitted(x);
  Snapshot snap;
  snap.xid = 900;
  snap.xmax = 901;
  snap.concurrent = {850, 870, 880};
  TupleHeader h;
  h.xmin = 500;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SiasVersionVisible(h, snap, clog));
  }
}
BENCHMARK(BM_SiasVisibilityCheck);

// ---------------------------------------------------------------------------
// Tuple codec.
// ---------------------------------------------------------------------------

void BM_TupleEncodeDecode(benchmark::State& state) {
  TupleHeader h;
  h.xmin = 42;
  h.vid = 1234;
  std::string payload(state.range(0), 'p');
  std::string encoded;
  for (auto _ : state) {
    EncodeTuple(h, Slice(payload), &encoded);
    TupleHeader out;
    benchmark::DoNotOptimize(DecodeTupleHeader(Slice(encoded), &out));
  }
}
BENCHMARK(BM_TupleEncodeDecode)->Arg(64)->Arg(256)->Arg(1024);

// ---------------------------------------------------------------------------
// B+-tree.
// ---------------------------------------------------------------------------

struct BTreeFixture {
  MemDevice device{1ull << 30};
  DiskManager disk{&device};
  BufferPool pool{&disk, 4096};
  BTree tree{1, &pool};
  VirtualClock clk;

  explicit BTreeFixture(int n) {
    SIAS_CHECK(disk.CreateRelation(1).ok());
    SIAS_CHECK(tree.Create(&clk).ok());
    Random rng(7);
    for (int i = 0; i < n; ++i) {
      SIAS_CHECK(tree.Insert(IntKey(rng.UniformInt(0, 1 << 24)), i, &clk).ok());
    }
  }
};

void BM_BTreeLookup(benchmark::State& state) {
  BTreeFixture f(static_cast<int>(state.range(0)));
  Random rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.tree.Lookup(IntKey(rng.UniformInt(0, 1 << 24)), &f.clk));
  }
}
BENCHMARK(BM_BTreeLookup)->Arg(10000)->Arg(100000);

void BM_BTreeInsert(benchmark::State& state) {
  BTreeFixture f(10000);
  Random rng(3);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.tree.Insert(IntKey(rng.UniformInt(0, 1 << 28)), i++, &f.clk));
  }
}
BENCHMARK(BM_BTreeInsert);

// ---------------------------------------------------------------------------
// ABL2: read cost vs version depth — Chains (pointer walk through heap
// pages) vs SIAS-V (vector walk). The reader's snapshot predates all
// updates, so every read walks the full depth.
// ---------------------------------------------------------------------------

struct SchemeDepthFixture {
  MemDevice device{1ull << 30};
  MemDevice wal{1ull << 30};
  std::unique_ptr<Database> db;
  Table* table = nullptr;
  std::vector<Vid> vids;
  std::unique_ptr<Transaction> old_snapshot;
  VirtualClock clk;

  SchemeDepthFixture(VersionScheme scheme, int items, int depth) {
    DatabaseOptions opts;
    opts.data_device = &device;
    opts.wal_device = &wal;
    opts.pool_frames = 65536;  // fully cached: isolates traversal CPU cost
    auto d = Database::Open(opts);
    SIAS_CHECK(d.ok());
    db = std::move(*d);
    auto t = db->CreateTable("t", Schema{{"v", ColumnType::kInt64}}, scheme);
    SIAS_CHECK(t.ok());
    table = *t;
    for (int i = 0; i < items; ++i) {
      auto txn = db->Begin(&clk);
      auto vid = table->Insert(txn.get(), Row{{int64_t{i}}});
      SIAS_CHECK(vid.ok());
      vids.push_back(*vid);
      SIAS_CHECK(db->Commit(txn.get()).ok());
    }
    old_snapshot = db->Begin(&clk);  // sees only version 0 of everything
    for (int d2 = 1; d2 < depth; ++d2) {
      for (Vid v : vids) {
        auto txn = db->Begin(&clk);
        SIAS_CHECK(table->Update(txn.get(), v, Row{{int64_t{d2}}}).ok());
        SIAS_CHECK(db->Commit(txn.get()).ok());
      }
    }
  }
};

void DepthReadLoop(benchmark::State& state, VersionScheme scheme) {
  SchemeDepthFixture f(scheme, 512, static_cast<int>(state.range(0)));
  Random rng(9);
  for (auto _ : state) {
    Vid v = f.vids[rng.Uniform(0, f.vids.size() - 1)];
    auto row = f.table->Get(f.old_snapshot.get(), v);
    benchmark::DoNotOptimize(row);
  }
}

void BM_OldSnapshotRead_Chains(benchmark::State& state) {
  DepthReadLoop(state, VersionScheme::kSiasChains);
}
BENCHMARK(BM_OldSnapshotRead_Chains)->Arg(1)->Arg(4)->Arg(8)->Arg(16);

void BM_OldSnapshotRead_Vectors(benchmark::State& state) {
  DepthReadLoop(state, VersionScheme::kSiasV);
}
BENCHMARK(BM_OldSnapshotRead_Vectors)->Arg(1)->Arg(4)->Arg(8)->Arg(16);

// ---------------------------------------------------------------------------
// Device models.
// ---------------------------------------------------------------------------

void BM_FlashSsdWrite8k(benchmark::State& state) {
  FlashConfig fc;
  fc.capacity_bytes = 1ull << 30;
  FlashSsd ssd(fc);
  std::vector<uint8_t> page(kPageSize, 7);
  VirtualClock clk;
  uint64_t pages = fc.capacity_bytes / kPageSize;
  Random rng(5);
  for (auto _ : state) {
    uint64_t p = rng.Uniform(0, pages - 1);
    benchmark::DoNotOptimize(
        ssd.Write(p * kPageSize, kPageSize, page.data(), &clk));
  }
}
BENCHMARK(BM_FlashSsdWrite8k);

void BM_LockAcquireRelease(benchmark::State& state) {
  LockManager locks;
  VirtualClock clk;
  Random rng(5);
  for (auto _ : state) {
    Vid v = rng.Uniform(0, 1 << 20);
    benchmark::DoNotOptimize(locks.AcquireExclusive(1, v, 42, &clk));
    locks.Release(1, v, 42, 0);
  }
}
BENCHMARK(BM_LockAcquireRelease);

// ---------------------------------------------------------------------------
// Checksums and the buffer pool's victim search.
// ---------------------------------------------------------------------------

// CRC32C over a WAL-record-, tuple- and page-sized buffer, per
// implementation (Crc32c() picks one of the two on first use).
void BM_Crc32c(benchmark::State& state, bool hardware) {
  if (hardware && !crc32c_internal::HardwareAvailable()) {
    state.SkipWithError("CPU has no SSE4.2 crc32 instruction");
    return;
  }
  auto fn = hardware ? crc32c_internal::Hardware : crc32c_internal::Portable;
  std::vector<uint8_t> buf(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn(buf.data(), buf.size(), 0));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK_CAPTURE(BM_Crc32c, hardware, true)->Arg(64)->Arg(1024)->Arg(8192);
BENCHMARK_CAPTURE(BM_Crc32c, portable, false)->Arg(64)->Arg(1024)->Arg(8192);

// A miss in a mostly-dirty pool (1022 of 1024 frames dirty, as under SI's
// in-place updates between background-writer passes): the clean-first sweep
// passes the dirty frames to reach one of the two clean ones, about one lap
// per miss. Each iteration fetches the next of 8 never-written (all-zero,
// so unchecksummed) pages through the clean frames: every fetch misses, and
// the time is the sweep plus an 8 KB copy from RAM.
void BM_FindVictim(benchmark::State& state) {
  constexpr PageNumber kDirty = 1022;
  constexpr PageNumber kCold = 8;
  MemDevice device(1ull << 30);
  DiskManager disk(&device);
  SIAS_CHECK(disk.CreateRelation(1).ok());
  BufferPool pool(&disk, 1024);
  VirtualClock clk;
  for (PageNumber p = 0; p < kDirty; ++p) {
    SIAS_CHECK(pool.NewPage(1, &clk).ok());  // new pages start dirty
  }
  for (PageNumber p = 0; p < kCold; ++p) {
    SIAS_CHECK(disk.AllocatePage(1).ok());
  }
  PageNumber next = 0;
  for (auto _ : state) {
    auto g = pool.FetchPage(PageId{1, kDirty + next}, &clk);
    benchmark::DoNotOptimize(g.ok());
    next = next + 1 == kCold ? 0 : next + 1;
  }
  SIAS_CHECK(pool.stats().dirty_writebacks == 0);
}
BENCHMARK(BM_FindVictim);

// ---------------------------------------------------------------------------
// Vacuum over a mostly-live heap: one fully cached SIAS-V table of about 500
// append pages. Before each timed pass (untimed) the same 2% of its rows,
// one in 50, are updated once, so the heap stays near 500 pages: the few
// pages of the hot rows' versions die whole each pass, and every other page
// holds about one dead version, too little to reach the relocate threshold.
// The time is mostly the per-page cost of deciding that. A fixed pass count
// keeps the heap the same however fast a pass is.
// ---------------------------------------------------------------------------

void BM_VacuumMostlyLive(benchmark::State& state) {
  constexpr int kRows = 27500;  // ~55 rows of ~140 bytes per 8 KB page
  MemDevice device(1ull << 30);
  MemDevice wal(1ull << 30);
  DatabaseOptions opts;
  opts.data_device = &device;
  opts.wal_device = &wal;
  opts.pool_frames = 4096;
  auto d = Database::Open(opts);
  SIAS_CHECK(d.ok());
  std::unique_ptr<Database> db = std::move(*d);
  auto t = db->CreateTable(
      "t", Schema{{"v", ColumnType::kInt64}, {"pad", ColumnType::kString}},
      VersionScheme::kSiasV);
  SIAS_CHECK(t.ok());
  Table* table = *t;
  VirtualClock clk;
  const std::string pad(100, 'p');
  std::vector<Vid> vids;
  for (int i = 0; i < kRows; ++i) {
    auto txn = db->Begin(&clk);
    auto vid = table->Insert(txn.get(), Row{{int64_t{i}, pad}});
    SIAS_CHECK(vid.ok());
    vids.push_back(*vid);
    SIAS_CHECK(db->Commit(txn.get()).ok());
  }
  GcStats gc;
  int64_t passes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < kRows; i += 50) {
      auto txn = db->Begin(&clk);
      SIAS_CHECK(
          table->Update(txn.get(), vids[i], Row{{int64_t{passes}, pad}}).ok());
      SIAS_CHECK(db->Commit(txn.get()).ok());
    }
    state.ResumeTiming();
    SIAS_CHECK(db->Vacuum(&clk, &gc).ok());
    passes++;
  }
  state.counters["pages_examined"] = benchmark::Counter(
      static_cast<double>(gc.pages_examined) / static_cast<double>(passes));
  state.counters["pages_classified"] = benchmark::Counter(
      static_cast<double>(gc.pages_classified) / static_cast<double>(passes));
}
BENCHMARK(BM_VacuumMostlyLive)->Unit(benchmark::kMicrosecond)->Iterations(100);

}  // namespace

// ---------------------------------------------------------------------------
// Fault-injection overhead gate (--fault-overhead): the disabled-injector
// fast path (one relaxed atomic load per SIAS_CRASH_POINT site plus the
// FaultyDevice pass-through) must be free. Measures the CPU throughput of
// an update-transaction loop with raw MemDevices vs the same loop behind
// write-through FaultyDevices with a constructed-but-never-armed injector;
// scripts/bench_baseline.json gates wrapped/baseline >= 0.99.
// ---------------------------------------------------------------------------

namespace {

// The legs run on this one thread, so its CPU time is their cost without
// the time the host schedules other work in between (wall time swung single
// passes by +-30% on a shared 4-core host).
double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One leg: a SIAS-V key/value database on raw MemDevices, or on the same
/// devices behind write-through FaultyDevices with a constructed but
/// never-armed injector (the production state). Both legs stay open for the
/// whole measurement and run alternating short batches, so the compared
/// batches see the same database state.
class FaultOverheadLeg {
 public:
  explicit FaultOverheadLeg(bool wrapped) {
    DatabaseOptions opts;
    opts.data_device = wrapped ? static_cast<StorageDevice*>(&fdata_) : &data_;
    opts.wal_device = wrapped ? static_cast<StorageDevice*>(&fwal_) : &wal_;
    auto d = Database::Open(opts);
    SIAS_CHECK(d.ok());
    db_ = std::move(*d);
    auto t = db_->CreateTable(
        "kv", Schema{{"k", ColumnType::kInt64}, {"v", ColumnType::kString}},
        VersionScheme::kSiasV);
    SIAS_CHECK(t.ok());
    table_ = *t;
    for (int64_t k = 0; k < kKeys; ++k) {
      auto txn = db_->Begin(&clk_);
      auto vid = table_->Insert(txn.get(), Row{{k, std::string("seed")}});
      SIAS_CHECK(vid.ok());
      vids_.push_back(*vid);
      SIAS_CHECK(db_->Commit(txn.get()).ok());
    }
  }

  /// Runs `n` single-row update transactions; returns their CPU seconds.
  double Run(int n) {
    double start = ThreadCpuSeconds();
    for (int end = next_ + n; next_ < end; ++next_) {
      auto txn = db_->Begin(&clk_);
      int64_t k = next_ % kKeys;
      std::string value = std::string("u").append(std::to_string(next_));
      SIAS_CHECK(
          table_->Update(txn.get(), vids_[k], Row{{k, std::move(value)}}).ok());
      SIAS_CHECK(db_->Commit(txn.get()).ok());
    }
    return ThreadCpuSeconds() - start;
  }

  /// Reclaims the batches' old versions (untimed), so every batch sees
  /// short version vectors as in the first one.
  void Vacuum() { SIAS_CHECK(db_->Vacuum(&clk_).ok()); }

 private:
  static constexpr int kKeys = 256;
  MemDevice data_{1ull << 30};
  MemDevice wal_{1ull << 30};
  fault::FaultInjector injector_{1};
  fault::FaultyDevice fdata_{&data_, &injector_,
                             fault::FaultyDevice::Options{false, "data"}};
  fault::FaultyDevice fwal_{&wal_, &injector_,
                            fault::FaultyDevice::Options{false, "wal"}};
  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
  VirtualClock clk_;
  std::vector<Vid> vids_;
  int next_ = 0;
};

double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void RunFaultOverhead(bench::BenchMetricsWriter* out) {
  // Interleaved short batches, in rounds of two mirrored blocks: baseline,
  // wrapped, wrapped, baseline, then wrapped, baseline, baseline, wrapped,
  // each block followed by an untimed vacuum of both legs. Within a round
  // a linear drift hits both legs equally, and so does the cache warmth of
  // running right after itself or right after its own vacuum (an ABBA-only
  // schedule favoured the B leg by ~1% in an A/A run). Each round yields
  // one wrapped/baseline throughput ratio (baseline CPU time over wrapped
  // CPU time), and the verdict is the median over many rounds, so a
  // disturbed round moves one ratio, not the verdict.
  constexpr int kRounds = 200;
  constexpr int kBatch = 500;
  FaultOverheadLeg baseline(false), wrapped(true);
  baseline.Run(kBatch);  // warm-up (allocator, buffer pool, WAL tail)
  wrapped.Run(kBatch);
  auto block = [](FaultOverheadLeg& x, FaultOverheadLeg& y, double* tx,
                  double* ty) {
    *tx += x.Run(kBatch);
    *ty += y.Run(kBatch);
    *ty += y.Run(kBatch);
    *tx += x.Run(kBatch);
    x.Vacuum();
    y.Vacuum();
  };
  std::vector<double> base, ratio;
  for (int r = 0; r < kRounds; ++r) {
    double tb = 0, tw = 0;
    block(baseline, wrapped, &tb, &tw);
    block(wrapped, baseline, &tw, &tb);
    base.push_back(4 * kBatch / tb);
    ratio.push_back(tb / tw);
  }
  double base_median = Quantile(base, 0.5);
  double ratio_median = Quantile(ratio, 0.5);
  double q1 = Quantile(ratio, 0.25), q3 = Quantile(ratio, 0.75);
  printf("fault-overhead: %d rounds, baseline median %.0f txn/s, "
         "wrapped/baseline median %.4f (quartiles %.4f..%.4f, "
         "range %.4f..%.4f)\n",
         kRounds, base_median, ratio_median, q1, q3,
         Quantile(ratio, 0.0), Quantile(ratio, 1.0));
  // Conforming `<bench>.<scheme>.<variant>` labels (the old hand-rolled
  // "microbench.fault_overhead.baseline" put a non-scheme token in the
  // scheme segment; see bench_common.h MetricsLabel). The wrapped leg's
  // ops_per_sec is the baseline median scaled by the median round ratio,
  // so the gate's wrapped/baseline quotient is exactly that median.
  out->Add(bench::MetricsLabel("microbench", VersionScheme::kSiasV,
                               "fault_overhead_baseline"),
           "SIAS-V", nullptr, obs::MetricsRegistry::Default().Snapshot(),
           {{"ops_per_sec", base_median}});
  out->Add(bench::MetricsLabel("microbench", VersionScheme::kSiasV,
                               "fault_overhead_wrapped"),
           "SIAS-V", nullptr, obs::MetricsRegistry::Default().Snapshot(),
           {{"ops_per_sec", base_median * ratio_median},
            {"ratio_median", ratio_median},
            {"ratio_q1", q1},
            {"ratio_q3", q3}});
}

}  // namespace
}  // namespace sias

// Custom main instead of BENCHMARK_MAIN(): supports the shared
// `--metrics-out=<file>` contract — after the google-benchmark run, the
// process-global metrics registry (vidmap.*, flash.*, btree traversals the
// kernels above exercised) is dumped as one experiment. `--fault-overhead`
// runs the injector-overhead measurement instead of the kernel suite.
int main(int argc, char** argv) {
  sias::bench::BenchMetricsWriter out("microbench", &argc, argv);
  bool fault_overhead = false;
  {
    int keep = 1;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--fault-overhead") == 0) {
        fault_overhead = true;
      } else {
        argv[keep++] = argv[i];
      }
    }
    argc = keep;
  }
  if (fault_overhead) {
    sias::RunFaultOverhead(&out);
    out.Write();
    return 0;
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  // The kernel suite exercises every scheme's structures in one process:
  // a mixed-scheme label (`<bench>.mixed.<variant>`, see bench_common.h).
  out.Add(sias::bench::MixedSchemeLabel("microbench", "all"), "mixed",
          nullptr, sias::obs::MetricsRegistry::Default().Snapshot(), {});
  out.Write();
  return 0;
}
