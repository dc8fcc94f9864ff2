// Histogram quantile edge cases: empty, single-sample, smallest value,
// beyond-range overflow, monotone quantiles and reset.
#include <gtest/gtest.h>

#include "common/histogram.h"

namespace sias {
namespace {

TEST(HistogramEdgeTest, EmptyHistogramReportsZeroes) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_EQ(h.Percentile(0), 0u);
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.Percentile(100), 0u);
}

TEST(HistogramEdgeTest, SingleSampleDominatesEveryQuantile) {
  Histogram h;
  const VDuration v = 7 * kVMillisecond;
  h.Record(v);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Min(), v);
  EXPECT_EQ(h.Max(), v);
  EXPECT_DOUBLE_EQ(h.Mean(), static_cast<double>(v));
  // Buckets are geometric (~4%): every quantile lands in the sample's
  // bucket, whose reported lower bound is at most one bucket below v.
  for (double p : {0.0, 50.0, 99.0, 100.0}) {
    VDuration q = h.Percentile(p);
    EXPECT_LE(q, v) << "p=" << p;
    EXPECT_GE(static_cast<double>(q), static_cast<double>(v) / 1.05)
        << "p=" << p;
  }
}

TEST(HistogramEdgeTest, SmallestRepresentableValueHitsFirstBucket) {
  Histogram h;
  h.Record(1);
  EXPECT_EQ(h.Percentile(50), 1u);
  h.Record(0);  // below the first bound; must not underflow the bucket index
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_LE(h.Percentile(50), 1u);
}

TEST(HistogramEdgeTest, OverflowValuesLandInFinalBucket) {
  Histogram h;
  // Both are far beyond the ~5000 s bucket coverage; they must be retained
  // (counted, reflected in max/mean) rather than dropped or misfiled.
  const VDuration huge = 100000ull * kVSecond;
  h.Record(huge);
  h.Record(~0ull);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.Max(), ~0ull);
  EXPECT_EQ(h.Min(), huge);
  // The overflow bucket reports the largest finite bucket bound (the last
  // geometric step below the 5000 s coverage limit), not a wrapped or
  // truncated value.
  EXPECT_GE(h.Percentile(50), 4000ull * kVSecond);
  EXPECT_LE(h.Percentile(50), 5000ull * kVSecond);
}

TEST(HistogramEdgeTest, QuantilesAreMonotoneInP) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Record(static_cast<VDuration>(i) * kVMicrosecond);
  }
  VDuration prev = 0;
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
    VDuration q = h.Percentile(p);
    EXPECT_GE(q, prev) << "p=" << p;
    prev = q;
  }
  EXPECT_LE(h.Percentile(100), h.Max());
}

TEST(HistogramEdgeTest, ResetReturnsToEmptyState) {
  Histogram h;
  h.Record(3 * kVSecond);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(99), 0u);
  EXPECT_EQ(h.Max(), 0u);
}

}  // namespace
}  // namespace sias
