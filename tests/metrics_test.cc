#include <gtest/gtest.h>

#include "metrics/correctness.h"
#include "metrics/histogram.h"
#include "metrics/report.h"

namespace deco {
namespace {

// --------------------------------------------------------------- Histogram

TEST(HistogramTest, EmptyIsZeroes) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(1234);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1234);
  EXPECT_EQ(h.max(), 1234);
  EXPECT_DOUBLE_EQ(h.mean(), 1234.0);
  EXPECT_EQ(h.Percentile(0.0), 1234);
  EXPECT_EQ(h.Percentile(1.0), 1234);
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (int i = 0; i < 32; ++i) h.Record(i);
  EXPECT_EQ(h.Percentile(0.0), 0);
  EXPECT_EQ(h.Percentile(1.0), 31);
  // Sub-32 values land in exact unit buckets.
  EXPECT_EQ(h.Percentile(0.5), 15);
}

TEST(HistogramTest, PercentilesHaveBoundedRelativeError) {
  Histogram h;
  for (int64_t v = 1; v <= 1'000'000; v += 37) h.Record(v);
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const double expected = q * 1'000'000;
    const double got = static_cast<double>(h.Percentile(q));
    EXPECT_NEAR(got, expected, expected * 0.05) << "q=" << q;
  }
}

TEST(HistogramTest, NegativeClampsToZero) {
  Histogram h;
  h.Record(-100);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(HistogramTest, RecordManyWeightsCorrectly) {
  Histogram h;
  h.RecordMany(10, 99);
  h.RecordMany(1'000'000, 1);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.mean(), (99 * 10 + 1'000'000) / 100.0, 1.0);
  EXPECT_EQ(h.Percentile(0.5), 10);
}

TEST(HistogramTest, MergeEqualsCombinedRecording) {
  Histogram a, b, combined;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = i * i % 7919;
    if (i % 2 == 0) {
      a.Record(v);
    } else {
      b.Record(v);
    }
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.mean(), combined.mean());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  for (double q : {0.25, 0.5, 0.75, 0.95}) {
    EXPECT_EQ(a.Percentile(q), combined.Percentile(q));
  }
}

TEST(HistogramTest, EmptyPercentileBoundariesAreZero) {
  Histogram h;
  EXPECT_EQ(h.Percentile(0.0), 0);
  EXPECT_EQ(h.Percentile(0.99), 0);
  EXPECT_EQ(h.Percentile(1.0), 0);
}

TEST(HistogramTest, MergeDisjointOctaves) {
  // `a` only holds sub-32 exact values, `b` only holds values dozens of
  // octaves higher; merging must keep both populations intact.
  Histogram a, b;
  for (int64_t v = 1; v <= 8; ++v) a.Record(v);
  const int64_t big = int64_t{1} << 40;
  for (int64_t v = 0; v < 8; ++v) b.Record(big + v * 1024);
  a.Merge(b);
  EXPECT_EQ(a.count(), 16u);
  EXPECT_EQ(a.min(), 1);
  EXPECT_GE(a.max(), big);
  EXPECT_LE(a.Percentile(0.25), 8);               // low half stays low
  EXPECT_GE(a.Percentile(0.95), big / 2);         // high half stays high
  EXPECT_NEAR(a.mean(), (36.0 + 8.0 * big + 28 * 1024) / 16.0,
              static_cast<double>(big) * 0.01);
}

TEST(HistogramTest, RecordManyNearInt64MaxDoesNotOverflow) {
  Histogram h;
  h.RecordMany(INT64_MAX, 3);
  h.RecordMany(INT64_MAX - 1, 2);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.max(), INT64_MAX);
  // The sum is tracked as a double: no wrap-around, mean stays near the
  // recorded magnitude.
  EXPECT_NEAR(h.mean(), static_cast<double>(INT64_MAX),
              static_cast<double>(INT64_MAX) * 1e-9);
  EXPECT_GT(h.Percentile(0.5), INT64_MAX / 2);
}

TEST(HistogramTest, HugeValuesDoNotOverflowBuckets) {
  Histogram h;
  h.Record(INT64_MAX);
  h.Record(INT64_MAX / 2);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), INT64_MAX);
}

// ---------------------------------------------------------- ConsumptionLog

TEST(ConsumptionLogTest, CumulativeTracking) {
  ConsumptionLog log(2);
  log.AddWindow({3, 7});
  log.AddWindow({5, 5});
  EXPECT_EQ(log.num_windows(), 2u);
  EXPECT_EQ(log.CumulativeBefore(0, 0), 0u);
  EXPECT_EQ(log.CumulativeBefore(1, 0), 3u);
  EXPECT_EQ(log.CumulativeBefore(1, 1), 7u);
  EXPECT_EQ(log.TotalEvents(), 20u);
}

TEST(CorrectnessTest, IdenticalLogsAreFullyCorrect) {
  ConsumptionLog truth(2), test(2);
  for (int w = 0; w < 10; ++w) {
    truth.AddWindow({10, 20});
    test.AddWindow({10, 20});
  }
  const CorrectnessReport report = CompareConsumption(truth, test);
  EXPECT_EQ(report.windows_compared, 10u);
  EXPECT_EQ(report.truth_events, 300u);
  EXPECT_EQ(report.overlapping_events, 300u);
  EXPECT_DOUBLE_EQ(report.correctness, 1.0);
}

TEST(CorrectnessTest, ShiftedBoundariesLoseOverlap) {
  // Truth alternates 10/20 vs 20/10; the test splits evenly: each window
  // of the test overlaps the truth by 10+10=20 of 30 events.
  ConsumptionLog truth(2), test(2);
  truth.AddWindow({10, 20});
  test.AddWindow({15, 15});
  const CorrectnessReport report = CompareConsumption(truth, test);
  EXPECT_EQ(report.truth_events, 30u);
  EXPECT_EQ(report.overlapping_events, 25u);  // min(10,15) + min(20,15)
}

TEST(CorrectnessTest, DriftAccumulatesAcrossWindows) {
  ConsumptionLog truth(1), test(1);
  // Truth windows consume 10 each; the test consumes 12 each, so window w
  // of the test covers [12w, 12w+12) vs truth's [10w, 10w+10).
  for (int w = 0; w < 5; ++w) {
    truth.AddWindow({10});
    test.AddWindow({12});
  }
  const CorrectnessReport report = CompareConsumption(truth, test);
  // Window 0: overlap 10; window 1: truth [10,20) vs test [12,24) -> 8;
  // window 2: [20,30) vs [24,36) -> 6; then 4, 2.
  EXPECT_EQ(report.overlapping_events, 10u + 8 + 6 + 4 + 2);
  EXPECT_LT(report.correctness, 1.0);
}

TEST(CorrectnessTest, ComparesOnlyCommonPrefix) {
  ConsumptionLog truth(1), test(1);
  truth.AddWindow({10});
  truth.AddWindow({10});
  test.AddWindow({10});
  const CorrectnessReport report = CompareConsumption(truth, test);
  EXPECT_EQ(report.windows_compared, 1u);
  EXPECT_EQ(report.truth_events, 10u);
}

TEST(CorrectnessTest, EmptyLogsAreVacuouslyCorrect) {
  ConsumptionLog truth(3), test(3);
  const CorrectnessReport report = CompareConsumption(truth, test);
  EXPECT_DOUBLE_EQ(report.correctness, 1.0);
  EXPECT_EQ(report.windows_compared, 0u);
}

// ----------------------------------------------------------------- Report

TEST(RunReportTest, SummaryAndBytesPerEvent) {
  RunReport report;
  report.scheme = "deco-sync";
  report.events_processed = 1000;
  report.network.total_bytes = 5000;
  report.windows_emitted = 10;
  report.latency.Record(2'000'000);
  EXPECT_DOUBLE_EQ(report.BytesPerEvent(), 5.0);
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("deco-sync"), std::string::npos);
  EXPECT_NE(summary.find("windows=10"), std::string::npos);
}

TEST(RunReportTest, BytesPerEventZeroWhenNoEvents) {
  RunReport report;
  report.network.total_bytes = 100;
  EXPECT_DOUBLE_EQ(report.BytesPerEvent(), 0.0);
}

}  // namespace
}  // namespace deco
