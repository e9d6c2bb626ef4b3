#include "obs/quantile_sketch.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace deco {
namespace {

double ExactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      q * static_cast<double>(values.size() - 1));
  return values[rank];
}

// The DDSketch contract: the answer is within alpha (relative) of the
// value at the queried rank.
void ExpectWithinRelative(double approx, double exact, double alpha) {
  EXPECT_LE(std::fabs(approx - exact), alpha * exact + 1e-9)
      << "approx=" << approx << " exact=" << exact;
}

TEST(QuantileSketchTest, EmptySketchIsZero) {
  QuantileSketch sketch;
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_EQ(sketch.Quantile(0.5), 0.0);
  EXPECT_EQ(sketch.min(), 0.0);
  EXPECT_EQ(sketch.max(), 0.0);
  EXPECT_EQ(sketch.sum(), 0.0);
}

TEST(QuantileSketchTest, SingleValue) {
  QuantileSketch sketch;
  sketch.Add(42.0);
  EXPECT_EQ(sketch.count(), 1u);
  EXPECT_EQ(sketch.min(), 42.0);
  EXPECT_EQ(sketch.max(), 42.0);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    ExpectWithinRelative(sketch.Quantile(q), 42.0, sketch.alpha());
  }
}

TEST(QuantileSketchTest, ZerosLandInZeroBucket) {
  QuantileSketch sketch;
  for (int i = 0; i < 90; ++i) sketch.Add(0.0);
  for (int i = 0; i < 10; ++i) sketch.Add(1000.0);
  EXPECT_EQ(sketch.Quantile(0.5), 0.0);
  ExpectWithinRelative(sketch.Quantile(0.95), 1000.0, sketch.alpha());
}

TEST(QuantileSketchTest, NegativeClampsNanIgnored) {
  QuantileSketch sketch;
  sketch.Add(-5.0);
  sketch.Add(std::nan(""));
  EXPECT_EQ(sketch.count(), 1u);
  EXPECT_EQ(sketch.Quantile(0.5), 0.0);
}

TEST(QuantileSketchTest, RelativeErrorBoundAcrossDistributions) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> uniform(1.0, 1e6);
  std::lognormal_distribution<double> lognormal(8.0, 2.0);
  std::exponential_distribution<double> expo(1.0 / 5000.0);

  for (int dist = 0; dist < 3; ++dist) {
    QuantileSketch sketch;
    std::vector<double> values;
    for (int i = 0; i < 20000; ++i) {
      double v = dist == 0   ? uniform(rng)
                 : dist == 1 ? lognormal(rng)
                             : expo(rng);
      values.push_back(v);
      sketch.Add(v);
    }
    for (double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999}) {
      ExpectWithinRelative(sketch.Quantile(q), ExactQuantile(values, q),
                           sketch.alpha());
    }
    EXPECT_EQ(sketch.count(), values.size());
    EXPECT_EQ(sketch.min(), *std::min_element(values.begin(), values.end()));
    EXPECT_EQ(sketch.max(), *std::max_element(values.begin(), values.end()));
  }
}

// The governance property: N per-shard sketches merged give the same
// answers as one sketch that saw every value (same alpha ⇒ identical
// bucket boundaries ⇒ lossless merge), and both stay within the relative
// error bound of the exact quantiles.
TEST(QuantileSketchTest, ShardedMergeMatchesSingleAndExact) {
  std::mt19937_64 rng(13);
  std::lognormal_distribution<double> lognormal(6.0, 1.5);
  constexpr int kShards = 32;
  constexpr int kPerShard = 500;

  QuantileSketch single;
  std::vector<QuantileSketch> shards(kShards);
  std::vector<double> values;
  for (int s = 0; s < kShards; ++s) {
    for (int i = 0; i < kPerShard; ++i) {
      const double v = lognormal(rng);
      values.push_back(v);
      single.Add(v);
      shards[s].Add(v);
    }
  }
  QuantileSketch merged;
  for (const QuantileSketch& shard : shards) merged.Merge(shard);

  EXPECT_EQ(merged.count(), single.count());
  // Addition order differs between the two, so the sums agree only to
  // floating-point accumulation error.
  EXPECT_NEAR(merged.sum(), single.sum(), 1e-9 * single.sum());
  EXPECT_EQ(merged.min(), single.min());
  EXPECT_EQ(merged.max(), single.max());
  for (double q : {0.05, 0.5, 0.9, 0.99}) {
    // Lossless merge: bucket-identical, so answers are bit-identical.
    EXPECT_EQ(merged.Quantile(q), single.Quantile(q)) << "q=" << q;
    ExpectWithinRelative(merged.Quantile(q), ExactQuantile(values, q),
                         merged.alpha());
  }
}

TEST(QuantileSketchTest, MergeEmptyAndIntoEmpty) {
  QuantileSketch a, b;
  a.Add(5.0);
  a.Add(10.0);
  b.Merge(a);  // into empty
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.min(), 5.0);
  QuantileSketch empty;
  b.Merge(empty);  // merge of empty is a no-op
  EXPECT_EQ(b.count(), 2u);
}

TEST(QuantileSketchTest, BucketBudgetPreservesUpperQuantiles) {
  // Data spanning nine decades with a small bucket budget: low buckets
  // collapse, but the upper quantiles (what alerting reads) keep the
  // relative error bound. 128 buckets at alpha=0.01 cover ~1.1 decades,
  // so everything above q~0.88 of log-uniform data stays exact-bounded.
  QuantileSketch sketch(0.01, 128);
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> log_uniform(0.0, 9.0);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    const double v = std::pow(10.0, log_uniform(rng));
    values.push_back(v);
    sketch.Add(v);
  }
  EXPECT_LE(sketch.bucket_count(), 128u);
  for (double q : {0.95, 0.99, 0.999}) {
    ExpectWithinRelative(sketch.Quantile(q), ExactQuantile(values, q),
                         sketch.alpha());
  }
}

TEST(TopKIndicesTest, LargestValuesWithDeterministicTies) {
  const std::vector<uint64_t> values = {5, 9, 9, 1, 7, 9};
  const std::vector<uint32_t> top = TopKIndices(values, 4);
  ASSERT_EQ(top.size(), 4u);
  // Ties broken toward the lower index: 9s at 1, 2, 5, then the 7 at 4.
  EXPECT_EQ(top[0], 1u);
  EXPECT_EQ(top[1], 2u);
  EXPECT_EQ(top[2], 5u);
  EXPECT_EQ(top[3], 4u);
}

TEST(TopKIndicesTest, KLargerThanInput) {
  const std::vector<uint64_t> values = {3, 1};
  const std::vector<uint32_t> top = TopKIndices(values, 10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 0u);
  EXPECT_EQ(top[1], 1u);
}

TEST(SpaceSavingTopKTest, ExactWhenUnderCapacity) {
  SpaceSavingTopK tracker(8);
  for (int i = 0; i < 5; ++i) tracker.Offer(i, static_cast<double>(i + 1));
  const auto top = tracker.Top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, 4);
  EXPECT_EQ(top[0].weight, 5.0);
  EXPECT_EQ(top[0].error, 0.0);
  EXPECT_EQ(top[1].key, 3);
  EXPECT_EQ(top[2].key, 2);
}

TEST(SpaceSavingTopKTest, HeavyHittersSurviveEviction) {
  // 4 heavy keys among 64 light ones with capacity 8: every true heavy
  // hitter (weight > W/capacity) must be present in the summary.
  SpaceSavingTopK tracker(8);
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<int64_t> light(100, 163);
  for (int round = 0; round < 400; ++round) {
    for (int64_t heavy = 0; heavy < 4; ++heavy) tracker.Offer(heavy, 10.0);
    tracker.Offer(light(rng), 1.0);
  }
  const auto top = tracker.Top(4);
  ASSERT_EQ(top.size(), 4u);
  for (const auto& entry : top) {
    EXPECT_LT(entry.key, 4) << "light key displaced a heavy hitter";
    EXPECT_GE(entry.weight, 4000.0);
  }
}

TEST(SpaceSavingTopKTest, DeterministicTieBreak) {
  SpaceSavingTopK tracker(4);
  tracker.Offer(7, 2.0);
  tracker.Offer(3, 2.0);
  const auto top = tracker.Top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 3);  // equal weight → lower key first
  EXPECT_EQ(top[1].key, 7);
}

}  // namespace
}  // namespace deco
