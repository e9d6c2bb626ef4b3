#include <gtest/gtest.h>

#include "deco/planner.h"
#include "deco/predictor.h"

namespace deco {
namespace {

// -------------------------------------------------------------- Predictor

TEST(PredictorTest, NotReadyUntilTwoObservations) {
  LocalWindowPredictor p(4, 1, 1.0);
  EXPECT_FALSE(p.Ready());
  p.ObserveActual(100);
  EXPECT_FALSE(p.Ready());
  p.ObserveActual(110);
  EXPECT_TRUE(p.Ready());
}

TEST(PredictorTest, PredictsLastActual) {
  // Paper Eq. 1: the prediction is the previous actual size.
  LocalWindowPredictor p(4, 1, 1.0);
  p.ObserveActual(600'000);
  p.ObserveActual(601'000);
  EXPECT_EQ(p.PredictedSize(), 601'000u);
  p.ObserveActual(599'000);
  EXPECT_EQ(p.PredictedSize(), 599'000u);
}

TEST(PredictorTest, DeltaIsAbsoluteDifference) {
  // Paper's numerical example: sizes 0.6M then 0.601M give delta 1000.
  LocalWindowPredictor p(1, 1, 1.0);
  p.ObserveActual(600'000);
  p.ObserveActual(601'000);
  EXPECT_EQ(p.Delta(), 1000u);
  p.ObserveActual(600'500);  // |601000 - 600500| = 500, history m=1
  EXPECT_EQ(p.Delta(), 500u);
}

TEST(PredictorTest, DeltaAveragesOverHistoryM) {
  LocalWindowPredictor p(3, 1, 1.0);
  p.ObserveActual(100);
  p.ObserveActual(110);  // diff 10
  p.ObserveActual(130);  // diff 20
  p.ObserveActual(100);  // diff 30
  EXPECT_EQ(p.Delta(), 20u);  // (10+20+30)/3
  p.ObserveActual(100);  // diff 0 evicts diff 10 -> round(50/3.0)
  EXPECT_EQ(p.Delta(), 17u);
}

TEST(PredictorTest, DeltaFloorApplies) {
  LocalWindowPredictor p(4, 5, 1.0);
  p.ObserveActual(100);
  p.ObserveActual(100);  // diff 0
  EXPECT_EQ(p.Delta(), 5u);
}

TEST(PredictorTest, DeltaMultiplierWidens) {
  LocalWindowPredictor p(1, 1, 2.0);
  p.ObserveActual(100);
  p.ObserveActual(110);
  EXPECT_EQ(p.Delta(), 20u);  // 10 * 2.0
}

TEST(PredictorTest, FleetDeltaMultiplierMatchesNormalQuantile) {
  // sqrt(pi/2) * Phi^-1(1 - 0.05 / 2n): a 5% share of windows needing a
  // correction, split across the n locals.
  EXPECT_NEAR(FleetDeltaMultiplier(1), 2.456, 0.005);
  EXPECT_NEAR(FleetDeltaMultiplier(2), 2.809, 0.005);
  EXPECT_NEAR(FleetDeltaMultiplier(3), 3.000, 0.005);
  EXPECT_NEAR(FleetDeltaMultiplier(8), 3.427, 0.005);
  EXPECT_NEAR(FleetDeltaMultiplier(32), 3.964, 0.005);
  EXPECT_NEAR(FleetDeltaMultiplier(1000), 5.083, 0.005);
  // Zero locals is read as one.
  EXPECT_DOUBLE_EQ(FleetDeltaMultiplier(0), FleetDeltaMultiplier(1));
}

TEST(PredictorTest, FleetDeltaMultiplierRisesWithTheFleet) {
  double previous = 0.0;
  for (size_t n = 1; n <= 4096; n *= 2) {
    const double multiplier = FleetDeltaMultiplier(n);
    EXPECT_GT(multiplier, previous) << n << " locals";
    previous = multiplier;
  }
}

TEST(PredictorTest, SmallMIsReactiveLargeMIsSteady) {
  // Paper §4.2.2: small m reacts to changes, large m smooths them.
  LocalWindowPredictor reactive(1, 1, 1.0);
  LocalWindowPredictor steady(8, 1, 1.0);
  for (uint64_t v : {100u, 100u, 100u, 100u, 100u, 200u}) {
    reactive.ObserveActual(v);
    steady.ObserveActual(v);
  }
  EXPECT_EQ(reactive.Delta(), 100u);  // latest jump dominates
  EXPECT_EQ(steady.Delta(), 20u);     // (0+0+0+0+100)/5
}

// ---------------------------------------------------------------- Planner

TEST(PlannerTest, SyncLayoutMatchesAlgorithm2) {
  // Paper example: predicted 0.601M, delta 1000 -> slice 0.6M, buffer 2000.
  const SlicePlan plan = PlanSync(601'000, 1000);
  EXPECT_EQ(plan.front_buffer, 0u);
  EXPECT_EQ(plan.slice, 600'000u);
  EXPECT_EQ(plan.end_buffer, 2000u);
  EXPECT_EQ(plan.TotalRegion(), 602'000u);
}

TEST(PlannerTest, SyncDegenerateSliceKeepsCoverage) {
  // Eq. 3 else-branch: slice collapses to 0 when prediction <= delta; the
  // raw region must still cover prediction + slack.
  const SlicePlan plan = PlanSync(10, 15);
  EXPECT_EQ(plan.slice, 0u);
  EXPECT_GE(plan.end_buffer, 25u);
}

TEST(PlannerTest, AsyncRegionSumsToPrediction) {
  // Algorithm 4: the async layout consumes exactly the predicted size per
  // window, which is what keeps the pipeline self-balancing.
  const SlicePlan plan = PlanAsync(601'000, 1000);
  EXPECT_EQ(plan.TotalRegion(), 601'000u);
  EXPECT_GT(plan.front_buffer, 0u);
  EXPECT_GT(plan.end_buffer, 0u);
  EXPECT_GT(plan.slice, 0u);
  EXPECT_EQ(plan.front_buffer, AsyncFrontSize(601'000, 1000));
  EXPECT_EQ(plan.end_buffer, AsyncEndSize(601'000, 1000));
}

TEST(PlannerTest, AsyncBuffersHaveSizeRelativeFloor) {
  // Even with a tiny delta the buffers cover the discrete cut jitter.
  EXPECT_GE(AsyncEndSize(100'000, 1), 100'000u / 256);
  EXPECT_GE(AsyncFrontSize(100'000, 1), 100'000u / 512);
  // And grow with delta when drift dominates.
  EXPECT_EQ(AsyncEndSize(1000, 400), 800u);
}

TEST(PlannerTest, AsyncDegenerateSplitsEvenly) {
  const SlicePlan plan = PlanAsync(10, 20);
  EXPECT_EQ(plan.slice, 0u);
  EXPECT_GE(plan.front_buffer, 5u);
  EXPECT_GE(plan.end_buffer, 5u);
}

TEST(PlannerTest, AsyncSlackShipsSurplus) {
  const SlicePlan steady = PlanAsync(100'000, 500);
  const SlicePlan slack = PlanAsyncSlack(100'000, 500);
  EXPECT_GT(slack.TotalRegion(), 100'000u);
  // Surplus is the margin-balancing recentering target (end - front) / 2.
  EXPECT_EQ(slack.TotalRegion() - 100'000u,
            (steady.end_buffer - steady.front_buffer) / 2);
}

// Property sweep: layouts never lose events and never underflow.
class PlannerProperty
    : public ::testing::TestWithParam<std::pair<uint64_t, uint64_t>> {};

TEST_P(PlannerProperty, LayoutsAreConsistent) {
  const auto [predicted, delta] = GetParam();
  const SlicePlan sync = PlanSync(predicted, delta);
  // Sync covers at least prediction + delta worth of events.
  EXPECT_GE(sync.TotalRegion(), predicted);
  EXPECT_EQ(sync.front_buffer, 0u);

  const SlicePlan async = PlanAsync(predicted, delta);
  EXPECT_GE(async.TotalRegion(), predicted);
  if (async.slice > 0) {
    EXPECT_EQ(async.TotalRegion(), predicted);
  }

  const SlicePlan slack = PlanAsyncSlack(predicted, delta);
  EXPECT_GT(slack.TotalRegion(), predicted);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDeltas, PlannerProperty,
    ::testing::Values(std::pair<uint64_t, uint64_t>{1, 1},
                      std::pair<uint64_t, uint64_t>{10, 1},
                      std::pair<uint64_t, uint64_t>{10, 100},
                      std::pair<uint64_t, uint64_t>{1000, 1},
                      std::pair<uint64_t, uint64_t>{1000, 499},
                      std::pair<uint64_t, uint64_t>{1'000'000, 1000},
                      std::pair<uint64_t, uint64_t>{1'000'000, 1}));

}  // namespace
}  // namespace deco
