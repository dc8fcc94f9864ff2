// Unit tests for the device layer: MemDevice, FlashSsd (FTL, GC, wear),
// Hdd timing model, Raid0 striping, and trace recording/analysis.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/random.h"
#include "device/flash_ssd.h"
#include "obs/metrics.h"
#include "device/hdd.h"
#include "device/mem_device.h"
#include "device/raid0.h"
#include "device/trace.h"

namespace sias {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint8_t seed) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<uint8_t>(seed + i * 7);
  return v;
}

TEST(MemDeviceTest, ReadBackWhatWasWritten) {
  MemDevice dev(1 << 20);
  auto data = Pattern(kPageSize, 3);
  VirtualClock clk;
  ASSERT_TRUE(dev.Write(8192, kPageSize, data.data(), &clk).ok());
  std::vector<uint8_t> out(kPageSize);
  ASSERT_TRUE(dev.Read(8192, kPageSize, out.data(), &clk).ok());
  EXPECT_EQ(memcmp(data.data(), out.data(), kPageSize), 0);
}

TEST(MemDeviceTest, UnwrittenReadsZero) {
  MemDevice dev(1 << 20);
  std::vector<uint8_t> out(4096, 0xff);
  ASSERT_TRUE(dev.Read(0, 4096, out.data(), nullptr).ok());
  for (uint8_t b : out) EXPECT_EQ(b, 0);
}

TEST(MemDeviceTest, RejectsUnalignedAndOutOfRange) {
  MemDevice dev(1 << 20);
  uint8_t buf[1024];
  EXPECT_FALSE(dev.Read(100, 512, buf, nullptr).ok());
  EXPECT_FALSE(dev.Read(0, 100, buf, nullptr).ok());
  EXPECT_FALSE(dev.Read((1 << 20), 512, buf, nullptr).ok());
  EXPECT_FALSE(dev.Write((1 << 20) - 512, 1024, buf, nullptr).ok());
}

TEST(MemDeviceTest, LatencyCharged) {
  MemDevice dev(1 << 20, /*read=*/100, /*write=*/300);
  uint8_t buf[512] = {};
  VirtualClock clk;
  ASSERT_TRUE(dev.Read(0, 512, buf, &clk).ok());
  EXPECT_EQ(clk.now(), 100u);
  ASSERT_TRUE(dev.Write(0, 512, buf, &clk).ok());
  EXPECT_EQ(clk.now(), 400u);
}

FlashConfig SmallFlash() {
  FlashConfig cfg;
  cfg.capacity_bytes = 4ull << 20;  // 4 MB keeps GC pressure easy to induce
  cfg.num_channels = 4;
  cfg.pages_per_block = 16;
  return cfg;
}

TEST(FlashSsdTest, DataIntegrityRandomWorkload) {
  FlashSsd ssd(SmallFlash());
  Random rng(1);
  // Shadow model.
  std::vector<std::vector<uint8_t>> shadow(64);
  VirtualClock clk;
  for (int iter = 0; iter < 500; ++iter) {
    uint64_t page = rng.Uniform(0, 63);
    if (rng.OneIn(3) && !shadow[page].empty()) {
      std::vector<uint8_t> out(kPageSize);
      ASSERT_TRUE(ssd.Read(page * kPageSize, kPageSize, out.data(), &clk).ok());
      EXPECT_EQ(memcmp(out.data(), shadow[page].data(), kPageSize), 0)
          << "page " << page;
    } else {
      auto data = Pattern(kPageSize, static_cast<uint8_t>(iter));
      ASSERT_TRUE(
          ssd.Write(page * kPageSize, kPageSize, data.data(), &clk).ok());
      shadow[page] = data;
    }
  }
  EXPECT_TRUE(ssd.CheckFtlInvariants().ok());
}

TEST(FlashSsdTest, ReadWriteAsymmetry) {
  FlashSsd ssd(SmallFlash());
  uint8_t buf[kPageSize] = {};
  VirtualClock clk;
  ASSERT_TRUE(ssd.Write(0, kPageSize, buf, &clk).ok());
  VDuration write_cost = clk.now();
  VTime before_read = clk.now();
  ASSERT_TRUE(ssd.Read(0, kPageSize, buf, &clk).ok());
  VDuration read_cost = clk.now() - before_read;
  // 8 KB = two 4 KB flash pages; striped across channels => one latency each.
  EXPECT_GT(write_cost, read_cost);
  EXPECT_GE(write_cost, ssd.config().page_program_latency);
  EXPECT_GE(read_cost, ssd.config().page_read_latency);
}

TEST(FlashSsdTest, ChannelParallelismSpeedsUpLargeIo) {
  // Reading N pages spread over channels should take ~1 page latency, not N.
  FlashConfig cfg = SmallFlash();
  FlashSsd ssd(cfg);
  std::vector<uint8_t> big(cfg.flash_page_size * cfg.num_channels);
  VirtualClock clk;
  ASSERT_TRUE(ssd.Write(0, big.size(), big.data(), &clk).ok());
  VTime before_read = clk.now();
  ASSERT_TRUE(ssd.Read(0, big.size(), big.data(), &clk).ok());
  // Perfect parallelism would be exactly one read latency; allow 2x slack.
  EXPECT_LE(clk.now() - before_read, 2 * cfg.page_read_latency);
}

TEST(FlashSsdTest, OverwriteTriggersGcAndErases) {
  FlashSsd ssd(SmallFlash());
  auto data = Pattern(kPageSize, 9);
  VirtualClock clk;
  // Hammer a small logical range until physical space must be reclaimed.
  for (int i = 0; i < 4000; ++i) {
    uint64_t page = static_cast<uint64_t>(i % 16);
    ASSERT_TRUE(
        ssd.Write(page * kPageSize, kPageSize, data.data(), &clk).ok());
  }
  DeviceStats s = ssd.stats();
  EXPECT_GT(s.flash_block_erases, 0u);
  EXPECT_GE(s.flash_page_programs, 8000u);  // 2 flash pages per 8 KB write
  EXPECT_TRUE(ssd.CheckFtlInvariants().ok());
  WearStats w = ssd.wear();
  EXPECT_EQ(w.total_erases, s.flash_block_erases);
  EXPECT_GT(w.avg_block_erases, 0.0);
}

TEST(FlashSsdTest, TrimUnmapsAndReadsZero) {
  FlashSsd ssd(SmallFlash());
  auto data = Pattern(kPageSize, 5);
  VirtualClock clk;
  ASSERT_TRUE(ssd.Write(0, kPageSize, data.data(), &clk).ok());
  ASSERT_TRUE(ssd.Trim(0, kPageSize).ok());
  std::vector<uint8_t> out(kPageSize, 0xaa);
  ASSERT_TRUE(ssd.Read(0, kPageSize, out.data(), &clk).ok());
  // Trimmed page has no mapping: the simulator serves zeros.
  EXPECT_EQ(out, std::vector<uint8_t>(kPageSize, 0));
  EXPECT_TRUE(ssd.CheckFtlInvariants().ok());
}

TEST(FlashSsdTest, WriteAmplificationGrowsUnderRandomOverwrite) {
  FlashConfig cfg = SmallFlash();
  FlashSsd ssd(cfg);
  Random rng(3);
  auto data = Pattern(kPageSize, 1);
  VirtualClock clk;
  uint64_t logical_pages = cfg.capacity_bytes / kPageSize;
  for (int i = 0; i < 6000; ++i) {
    uint64_t page = rng.Uniform(0, logical_pages - 1);
    ASSERT_TRUE(
        ssd.Write(page * kPageSize, kPageSize, data.data(), &clk).ok());
  }
  EXPECT_GT(ssd.stats().WriteAmplification(), 1.05);
  EXPECT_TRUE(ssd.CheckFtlInvariants().ok());
}

TEST(HddTest, SequentialBeatsRandom) {
  HddConfig cfg;
  cfg.capacity_bytes = 1ull << 30;
  Hdd seq_dev(cfg), rnd_dev(cfg);
  uint8_t buf[kPageSize] = {};
  VirtualClock seq, rnd;
  uint64_t pos = 0;
  Random rng(11);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(seq_dev.Write(pos, kPageSize, buf, &seq).ok());
    pos += kPageSize;
    uint64_t rpos = rng.Uniform(0, (cfg.capacity_bytes / kPageSize) - 1) *
                    kPageSize;
    ASSERT_TRUE(rnd_dev.Write(rpos, kPageSize, buf, &rnd).ok());
  }
  EXPECT_LT(seq.now() * 5, rnd.now());  // sequential >5x faster
}

TEST(HddTest, SymmetricReadWriteCosts) {
  HddConfig cfg;
  Hdd d1(cfg), d2(cfg);
  uint8_t buf[kPageSize] = {};
  VirtualClock w, r;
  ASSERT_TRUE(d1.Write(1 << 20, kPageSize, buf, &w).ok());
  ASSERT_TRUE(d2.Read(1 << 20, kPageSize, buf, &r).ok());
  EXPECT_EQ(w.now(), r.now());  // identical positioning + transfer model
}

TEST(HddTest, DataRoundTrip) {
  Hdd dev(HddConfig{});
  auto data = Pattern(kPageSize, 77);
  VirtualClock clk;
  ASSERT_TRUE(dev.Write(65536, kPageSize, data.data(), &clk).ok());
  std::vector<uint8_t> out(kPageSize);
  ASSERT_TRUE(dev.Read(65536, kPageSize, out.data(), &clk).ok());
  EXPECT_EQ(memcmp(out.data(), data.data(), kPageSize), 0);
}

std::unique_ptr<Raid0> MakeRaid(size_t n, uint64_t member_cap = 16ull << 20) {
  std::vector<std::unique_ptr<StorageDevice>> members;
  for (size_t i = 0; i < n; ++i) {
    members.push_back(std::make_unique<MemDevice>(member_cap, 100, 100));
  }
  return std::make_unique<Raid0>(std::move(members));
}

TEST(Raid0Test, CapacityIsSum) {
  auto raid = MakeRaid(4, 16ull << 20);
  EXPECT_EQ(raid->capacity_bytes(), 64ull << 20);
}

TEST(Raid0Test, RoundTripAcrossStripeBoundaries) {
  auto raid = MakeRaid(2);
  // 256 KB spans 4 stripes of 64 KB.
  auto data = Pattern(256 * 1024, 21);
  VirtualClock clk;
  uint64_t offset = 60 * 1024 + 4096;  // deliberately not stripe-aligned
  offset -= offset % 512;
  ASSERT_TRUE(raid->Write(offset, data.size(), data.data(), &clk).ok());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(raid->Read(offset, out.size(), out.data(), &clk).ok());
  EXPECT_EQ(memcmp(out.data(), data.data(), data.size()), 0);
}

TEST(Raid0Test, ParallelServiceTakesMaxNotSum) {
  auto raid = MakeRaid(2);
  // One 128 KB I/O = two 64 KB stripes on two members; each member charges
  // 100 ns; parallel completion should be ~100 ns, not 200.
  std::vector<uint8_t> buf(128 * 1024);
  VirtualClock clk;
  ASSERT_TRUE(raid->Write(0, buf.size(), buf.data(), &clk).ok());
  EXPECT_EQ(clk.now(), 100u);
}

TEST(Raid0Test, StatsAggregate) {
  auto raid = MakeRaid(3);
  std::vector<uint8_t> buf(192 * 1024);
  VirtualClock clk;
  ASSERT_TRUE(raid->Write(0, buf.size(), buf.data(), &clk).ok());
  DeviceStats s = raid->stats();
  EXPECT_EQ(s.bytes_written, buf.size());
  EXPECT_EQ(s.write_ops, 3u);  // one sub-op per member
}

TEST(TraceTest, RecordsAndTotals) {
  TraceRecorder trace;
  MemDevice dev(1 << 20);
  dev.set_trace(&trace);
  uint8_t buf[kPageSize] = {};
  VirtualClock clk(5 * kVMillisecond);
  ASSERT_TRUE(dev.Write(0, kPageSize, buf, &clk).ok());
  ASSERT_TRUE(dev.Read(8192, kPageSize, buf, &clk).ok());
  EXPECT_EQ(trace.total_bytes_written(), kPageSize);
  EXPECT_EQ(trace.total_bytes_read(), kPageSize);
  auto events = trace.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].op, TraceOp::kWrite);
  EXPECT_EQ(events[0].time, 5 * kVMillisecond);
  EXPECT_EQ(events[1].op, TraceOp::kRead);
}

TEST(TraceTest, BoundedBufferKeepsExactTotals) {
  TraceRecorder trace(/*max_events=*/4);
  for (int i = 0; i < 10; ++i) {
    trace.Record(i, i * 8192, 8192, TraceOp::kWrite);
  }
  EXPECT_EQ(trace.events().size(), 4u);
  EXPECT_EQ(trace.dropped_events(), 6u);
  EXPECT_EQ(trace.total_bytes_written(), 10u * 8192);
}

TEST(TraceTest, AnalysisSequentialVsScattered) {
  std::vector<TraceEvent> seq, scat;
  for (uint32_t i = 0; i < 100; ++i) {
    seq.push_back(TraceEvent{i, static_cast<uint64_t>(i) * 8192, 8192,
                             TraceOp::kWrite});
    scat.push_back(TraceEvent{i, (static_cast<uint64_t>(i) * 7919 % 4096) << 20,
                              8192, TraceOp::kWrite});
  }
  TraceAnalysis a_seq = AnalyzeTrace(seq);
  TraceAnalysis a_scat = AnalyzeTrace(scat);
  EXPECT_GT(a_seq.write_sequentiality, 0.95);
  EXPECT_LT(a_scat.write_sequentiality, 0.1);
  EXPECT_LT(a_seq.write_regions_1mb, a_scat.write_regions_1mb);
}

// -- Asynchronous submit/complete interface ---------------------------------

TEST(AsyncIoTest, SubmittedReadsOverlapNotSerialize) {
  // N reads submitted at the same instant complete after ~one latency, not
  // N of them: the channel-calendar reservations key on arrival time.
  MemDevice dev(1 << 20, /*read=*/100, /*write=*/300);
  auto data = Pattern(kPageSize, 9);
  for (int p = 0; p < 4; ++p) {
    ASSERT_TRUE(
        dev.Write(p * kPageSize, kPageSize, data.data(), nullptr).ok());
  }
  VirtualClock clk(1000);
  std::vector<std::vector<uint8_t>> out(4, std::vector<uint8_t>(kPageSize));
  std::vector<IoHandle> handles;
  for (int p = 0; p < 4; ++p) {
    IoRequest req;
    req.op = IoOp::kRead;
    req.offset = p * kPageSize;
    req.len = kPageSize;
    req.out = out[p].data();
    auto h = dev.Submit(req, clk.now());
    ASSERT_TRUE(h.ok());
    handles.push_back(*h);
  }
  for (auto h : handles) ASSERT_TRUE(dev.Wait(h, &clk).ok());
  EXPECT_EQ(clk.now(), 1100u);  // one read latency, not four
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(memcmp(out[p].data(), data.data(), kPageSize), 0);
  }
}

TEST(AsyncIoTest, PollReportsCompletionOnlyOnceDue) {
  MemDevice dev(1 << 20, /*read=*/100, /*write=*/300);
  uint8_t buf[kPageSize] = {};
  IoRequest req;
  req.op = IoOp::kRead;
  req.offset = 0;
  req.len = kPageSize;
  req.out = buf;
  auto h = dev.Submit(req, 5000);
  ASSERT_TRUE(h.ok());
  Status st;
  EXPECT_FALSE(dev.Poll(*h, 5099, &st));  // still in flight at t+99
  ASSERT_TRUE(dev.Poll(*h, 5100, &st));   // due exactly at t+latency
  EXPECT_TRUE(st.ok());
  EXPECT_FALSE(dev.Poll(*h, 6000, &st));  // handle already reaped
}

TEST(AsyncIoTest, FlashChannelsServeDepthInParallel) {
  // On a multi-channel flash device a depth-8 burst of page reads lands on
  // distinct channels and the makespan stays well under the serial sum;
  // per-channel busy time accounts every read exactly once.
  FlashSsd ssd(SmallFlash());
  auto data = Pattern(kPageSize, 5);
  for (int p = 0; p < 8; ++p) {
    ASSERT_TRUE(
        ssd.Write(p * kPageSize, kPageSize, data.data(), nullptr).ok());
  }
  uint64_t busy_before = 0;
  for (uint64_t ns : ssd.telemetry().channel_busy_ns) busy_before += ns;
  const VTime t0 = 1 * kVSecond;
  VirtualClock clk(t0);
  std::vector<std::vector<uint8_t>> out(8, std::vector<uint8_t>(kPageSize));
  std::vector<IoHandle> handles;
  for (int p = 0; p < 8; ++p) {
    IoRequest req;
    req.op = IoOp::kRead;
    req.offset = p * kPageSize;
    req.len = kPageSize;
    req.out = out[p].data();
    auto h = ssd.Submit(req, t0);
    ASSERT_TRUE(h.ok());
    handles.push_back(*h);
  }
  for (auto h : handles) ASSERT_TRUE(ssd.Wait(h, &clk).ok());
  // 8 KB pages are two 4 KB NAND pages each: 16 NAND reads over 4 channels
  // cannot beat 4 per channel, but must beat the serial 16.
  const VDuration serial = 16 * ssd.config().page_read_latency;
  EXPECT_LT(clk.now() - t0, serial / 2);
  uint64_t busy_after = 0;
  for (uint64_t ns : ssd.telemetry().channel_busy_ns) busy_after += ns;
  EXPECT_EQ(busy_after - busy_before, 16 * ssd.config().page_read_latency);
  for (int p = 0; p < 8; ++p) {
    EXPECT_EQ(memcmp(out[p].data(), data.data(), kPageSize), 0);
  }
}

TEST(AsyncIoTest, InflightGaugeBalancesAfterWaitAndCancel) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Gauge* inflight = reg.GetGauge("io.inflight");
  int64_t before = inflight->Value();
  MemDevice dev(1 << 20, 100, 300);
  uint8_t buf[kPageSize] = {};
  IoRequest req;
  req.op = IoOp::kRead;
  req.offset = 0;
  req.len = kPageSize;
  req.out = buf;
  auto h1 = dev.Submit(req, 0);
  auto h2 = dev.Submit(req, 0);
  ASSERT_TRUE(h1.ok() && h2.ok());
  EXPECT_EQ(inflight->Value(), before + 2);
  VirtualClock clk;
  ASSERT_TRUE(dev.Wait(*h1, &clk).ok());
  ASSERT_TRUE(dev.Cancel(*h2, &clk).ok());
  EXPECT_EQ(inflight->Value(), before);
}

// Satellite regression: WriteAmplification on a device that has programmed
// nothing must be a clean 1.0, never a division by zero (inf/NaN leaking
// into bench JSON and report ratios).
TEST(DeviceStatsTest, WriteAmplificationDefinedWithoutPrograms) {
  DeviceStats fresh;
  EXPECT_DOUBLE_EQ(fresh.WriteAmplification(), 1.0);

  FlashSsd ssd(SmallFlash());
  EXPECT_DOUBLE_EQ(ssd.stats().WriteAmplification(), 1.0);

  // Read-only use keeps host programs at zero; WA must stay defined.
  uint8_t buf[kPageSize] = {};
  ASSERT_TRUE(ssd.Read(0, kPageSize, buf, nullptr).ok());
  double wa = ssd.stats().WriteAmplification();
  EXPECT_DOUBLE_EQ(wa, 1.0);
  EXPECT_TRUE(std::isfinite(wa));
}

TEST(TraceTest, AnalysisCountsReadsAndWrites) {
  std::vector<TraceEvent> ev;
  ev.push_back(TraceEvent{1, 0, 8192, TraceOp::kRead});
  ev.push_back(TraceEvent{2, 8192, 8192, TraceOp::kWrite});
  ev.push_back(TraceEvent{3, 16384, 4096, TraceOp::kRead});
  TraceAnalysis a = AnalyzeTrace(ev);
  EXPECT_EQ(a.read_ops, 2u);
  EXPECT_EQ(a.write_ops, 1u);
  EXPECT_EQ(a.bytes_read, 12288u);
  EXPECT_EQ(a.bytes_written, 8192u);
}

}  // namespace
}  // namespace sias
