// Unit tests for src/common: Status/Result, Slice, Random, CRC32C,
// Histogram, virtual clocks and core ID types.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/crc32c_internal.h"
#include "common/histogram.h"
#include "common/latch.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "common/vclock.h"

namespace sias {
namespace {

TEST(StatusTest, OkIsDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing tuple");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing tuple");
  EXPECT_EQ(s.ToString(), "NotFound: missing tuple");
}

TEST(StatusTest, RetryableClassification) {
  EXPECT_TRUE(Status::SerializationFailure("x").IsRetryable());
  EXPECT_TRUE(Status::LockTimeout("x").IsRetryable());
  EXPECT_FALSE(Status::Corruption("x").IsRetryable());
  EXPECT_FALSE(Status::OK().IsRetryable());
}

TEST(StatusTest, CopyIsCheapAndShared) {
  Status a = Status::IoError("disk gone");
  Status b = a;
  EXPECT_EQ(b.message(), "disk gone");
  EXPECT_EQ(b.code(), StatusCode::kIoError);
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

TEST(ResultTest, ValueAndError) {
  auto good = ParsePositive(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);

  auto bad = ParsePositive(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.ValueOr(42), 42);
}

TEST(SliceTest, CompareIsMemcmpOrder) {
  EXPECT_LT(Slice("abc").Compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abcd").Compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").Compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("") < Slice("a"));
}

TEST(SliceTest, Views) {
  std::string s = "hello";
  Slice sl(s);
  EXPECT_EQ(sl.size(), 5u);
  EXPECT_EQ(sl.ToString(), "hello");
  EXPECT_EQ(sl.View(), std::string_view("hello"));
}

TEST(TidTest, PackRoundTrip) {
  Tid t{123456, 789};
  Tid u = Tid::Unpack(t.Pack());
  EXPECT_EQ(t, u);
  EXPECT_TRUE(t.valid());
  EXPECT_FALSE(kInvalidTid.valid());
}

TEST(PageIdTest, HashSpreads) {
  std::set<size_t> hashes;
  for (uint32_t r = 1; r < 5; ++r) {
    for (uint32_t p = 0; p < 100; ++p) {
      hashes.insert(std::hash<PageId>{}(PageId{r, p}));
    }
  }
  EXPECT_GT(hashes.size(), 390u);  // near-zero collisions expected
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.Uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RandomTest, NURandInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.NURand(255, 0, 999, 123);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 999);
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random r(9);
  for (int i = 0; i < 1000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Crc32cTest, KnownVector) {
  // CRC32C("123456789") == 0xE3069283 (iSCSI test vector).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, DetectsBitFlip) {
  std::string data(1024, 'x');
  uint32_t base = Crc32c(data.data(), data.size());
  data[100] ^= 1;
  EXPECT_NE(base, Crc32c(data.data(), data.size()));
}

// Bit-at-a-time CRC32C straight from the polynomial: the reference both
// implementations are checked against.
uint32_t ReferenceCrc32c(const uint8_t* p, size_t n, uint32_t init) {
  uint32_t crc = ~init;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
  }
  return ~crc;
}

// Every entry point: the dispatched one and both implementations.
struct CrcPath {
  const char* name;
  uint32_t (*fn)(const void*, size_t, uint32_t);
};
std::vector<CrcPath> CrcPaths() {
  std::vector<CrcPath> paths = {
      {"dispatched", [](const void* d, size_t n, uint32_t i) {
         return Crc32c(d, n, i);
       }},
      {"portable", crc32c_internal::Portable}};
  if (crc32c_internal::HardwareAvailable()) {
    paths.push_back({"hardware", crc32c_internal::Hardware});
  }
  return paths;
}

TEST(Crc32cTest, Rfc3720KnownAnswers) {
  // RFC 3720 appendix B.4.
  std::vector<uint8_t> zeros(32, 0x00), ones(32, 0xff), up(32), down(32);
  for (int i = 0; i < 32; ++i) {
    up[i] = static_cast<uint8_t>(i);
    down[i] = static_cast<uint8_t>(31 - i);
  }
  for (const CrcPath& path : CrcPaths()) {
    SCOPED_TRACE(path.name);
    EXPECT_EQ(path.fn(zeros.data(), 32, 0), 0x8A9136AAu);
    EXPECT_EQ(path.fn(ones.data(), 32, 0), 0x62A8AB43u);
    EXPECT_EQ(path.fn(up.data(), 32, 0), 0x46DD794Eu);
    EXPECT_EQ(path.fn(down.data(), 32, 0), 0x113FDB5Cu);
  }
}

TEST(Crc32cTest, EveryLengthAndAlignmentMatchesReference) {
  std::vector<uint8_t> buf(16 + 300);
  Random rng(3720);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (const CrcPath& path : CrcPaths()) {
    SCOPED_TRACE(path.name);
    for (size_t offset = 0; offset < 16; ++offset) {
      for (size_t len = 0; len <= 300; ++len) {
        const uint8_t* p = buf.data() + offset;
        ASSERT_EQ(path.fn(p, len, 0), ReferenceCrc32c(p, len, 0))
            << "offset " << offset << " len " << len;
      }
    }
  }
}

TEST(Crc32cTest, ChainingEqualsOneShot) {
  std::vector<uint8_t> buf(1000);
  Random rng(17);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (const CrcPath& path : CrcPaths()) {
    SCOPED_TRACE(path.name);
    uint32_t whole = path.fn(buf.data(), buf.size(), 0);
    for (size_t split : {0, 1, 7, 8, 9, 333, 999, 1000}) {
      uint32_t head = path.fn(buf.data(), split, 0);
      EXPECT_EQ(path.fn(buf.data() + split, buf.size() - split, head), whole)
          << "split " << split;
    }
  }
}

TEST(Crc32cTest, ImplementationsAgreeOnRandomBuffers) {
  if (!crc32c_internal::HardwareAvailable()) {
    GTEST_SKIP() << "CPU has no SSE4.2 crc32 instruction";
  }
  Random rng(2014);
  std::vector<uint8_t> buf(9000);
  for (int round = 0; round < 200; ++round) {
    size_t len = rng.Uniform(0, buf.size() - 8);
    size_t offset = rng.Uniform(0, 7);
    uint32_t init = static_cast<uint32_t>(rng.Next());
    for (size_t i = 0; i < len + offset; ++i) {
      buf[i] = static_cast<uint8_t>(rng.Next());
    }
    const uint8_t* p = buf.data() + offset;
    uint32_t want = ReferenceCrc32c(p, len, init);
    ASSERT_EQ(crc32c_internal::Hardware(p, len, init), want) << "len " << len;
    ASSERT_EQ(crc32c_internal::Portable(p, len, init), want) << "len " << len;
  }
}

TEST(Crc32cTest, MaskRoundTrip) {
  uint32_t crc = Crc32c("siasdb", 6);
  EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
  EXPECT_NE(MaskCrc(crc), crc);
}

TEST(CodingTest, FixedRoundTrip) {
  uint8_t buf[8];
  EncodeFixed64(buf, 0x0123456789abcdefull);
  EXPECT_EQ(DecodeFixed64(buf), 0x0123456789abcdefull);
  EncodeFixed32(buf, 0xdeadbeefu);
  EXPECT_EQ(DecodeFixed32(buf), 0xdeadbeefu);
  EncodeFixed16(buf, 0xbeefu);
  EXPECT_EQ(DecodeFixed16(buf), 0xbeefu);
}

TEST(CodingTest, BigEndianPreservesOrder) {
  uint8_t a[8], b[8];
  EncodeBigEndian64(a, 100);
  EncodeBigEndian64(b, 200);
  EXPECT_LT(memcmp(a, b, 8), 0);
  EXPECT_EQ(DecodeBigEndian64(a), 100u);
}

TEST(VClockTest, AdvanceSemantics) {
  VirtualClock c(100);
  c.Advance(50);
  EXPECT_EQ(c.now(), 150u);
  c.AdvanceTo(120);  // never goes backwards
  EXPECT_EQ(c.now(), 150u);
  c.AdvanceTo(300);
  EXPECT_EQ(c.now(), 300u);
}

TEST(AtomicVTimeTest, ReserveQueues) {
  AtomicVTime busy(0);
  // Two back-to-back reservations at t=0 must serialize.
  VTime s1 = busy.Reserve(0, 100);
  VTime s2 = busy.Reserve(0, 100);
  EXPECT_EQ(s1, 0u);
  EXPECT_EQ(s2, 100u);
  // A late arrival starts at its own arrival time.
  VTime s3 = busy.Reserve(1000, 10);
  EXPECT_EQ(s3, 1000u);
}

TEST(AtomicVTimeTest, ConcurrentReservationsNeverOverlap) {
  AtomicVTime busy(0);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::vector<VTime>> starts(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        starts[t].push_back(busy.Reserve(0, 7));
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<VTime> all;
  for (auto& v : starts) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads * kPerThread));
  // Intervals are length 7 and disjoint: consecutive starts differ by >= 7.
  VTime prev = ~0ull;
  for (VTime s : all) {
    if (prev != ~0ull) {
      EXPECT_GE(s, prev + 7);
    }
    prev = s;
  }
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i * kVMillisecond);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.Mean(), 50.5 * kVMillisecond, 2.0 * kVMillisecond);
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 50.0 * kVMillisecond,
              5.0 * kVMillisecond);
  EXPECT_GE(h.Max(), 100 * kVMillisecond);
  EXPECT_LE(h.Min(), 1 * kVMillisecond + kVMillisecond / 10);
}

TEST(HistogramTest, MergeAddsUp) {
  Histogram a, b;
  a.Record(10 * kVMicrosecond);
  b.Record(30 * kVMicrosecond);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_NEAR(a.Mean(), 20.0 * kVMicrosecond, kVMicrosecond);
}

TEST(HistogramTest, EmptyIsSane) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(99), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

// Intra-bucket interpolation: tail percentiles must track the true sample
// quantile to well under the ~4% geometric bucket width, instead of
// snapping to a bucket edge.

TEST(HistogramTest, InterpolatedTailOnUniformDistribution) {
  Histogram h;
  for (int i = 1; i <= 100000; ++i) h.Record(static_cast<VDuration>(i));
  // True p999 of 1..100000 uniform is 99900; allow 2% (half the bucket).
  EXPECT_NEAR(static_cast<double>(h.Percentile(99.9)), 99900.0, 2000.0);
  EXPECT_NEAR(static_cast<double>(h.Percentile(99)), 99000.0, 2000.0);
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 50000.0, 1500.0);
}

TEST(HistogramTest, InterpolatedTailOnBimodalDistribution) {
  // 990 fast ops at ~10ms, 10 slow ops at 1s: p50 must sit in the fast
  // mode, p999 and max must see the slow mode's bucket (within 5%).
  Histogram h;
  for (int i = 0; i < 990; ++i) h.Record(10 * kVMillisecond);
  for (int i = 0; i < 10; ++i) h.Record(1 * kVSecond);
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)),
              10.0 * kVMillisecond, 0.5 * kVMillisecond);
  EXPECT_NEAR(static_cast<double>(h.Percentile(99.9)),
              1.0 * kVSecond, 0.05 * kVSecond);
  EXPECT_EQ(h.Max(), 1 * kVSecond);
}

TEST(HistogramTest, PercentilesStayWithinObservedRange) {
  // Interpolation must never extrapolate past the recorded min/max.
  Histogram h;
  h.Record(7 * kVMicrosecond);
  h.Record(7 * kVMicrosecond);
  EXPECT_EQ(h.Percentile(0.1), 7 * kVMicrosecond);
  EXPECT_EQ(h.Percentile(99.9), 7 * kVMicrosecond);
}

TEST(LatchTest, SpinLatchMutualExclusion) {
  SpinLatch latch;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        SpinLatchGuard g(latch);
        counter++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, 40000);
}

TEST(FormatTest, VDuration) {
  EXPECT_EQ(FormatVDuration(5 * kVSecond), "5.000s");
  EXPECT_EQ(FormatVDuration(2 * kVMillisecond), "2.000ms");
  EXPECT_EQ(FormatVDuration(3 * kVMicrosecond), "3.00us");
  EXPECT_EQ(FormatVDuration(42), "42ns");
}

TEST(VersionSchemeTest, Names) {
  EXPECT_STREQ(ToString(VersionScheme::kSi), "SI");
  EXPECT_STREQ(ToString(VersionScheme::kSiasChains), "SIAS-Chains");
  EXPECT_STREQ(ToString(VersionScheme::kSiasV), "SIAS-V");
}

}  // namespace
}  // namespace sias
