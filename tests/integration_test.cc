#include <gtest/gtest.h>

#include <cmath>

#include "harness/experiment.h"
#include "node/runtime.h"

namespace deco {
namespace {

// End-to-end runs over the in-process fabric. Scales are kept small so the
// whole suite stays fast; every scheme still crosses its full protocol
// (bootstrap, steady state, corrections, end-of-stream).

ExperimentConfig SmallConfig(Scheme scheme) {
  ExperimentConfig config;
  config.scheme = scheme;
  config.query.window = WindowSpec::CountTumbling(2000);
  config.query.aggregate = AggregateKind::kSum;
  config.num_locals = 3;
  config.streams_per_local = 2;
  config.events_per_local = 30'000;
  config.base_rate = 50'000;
  config.rate_change = 0.05;
  config.batch_size = 512;
  config.seed = 1234;
  return config;
}

RunReport MustRun(const ExperimentConfig& config) {
  auto result = RunExperiment(config);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

void ExpectSameResults(const RunReport& truth, const RunReport& report) {
  ASSERT_EQ(report.windows.size(), truth.windows.size())
      << report.scheme << " emitted a different number of windows";
  for (size_t i = 0; i < truth.windows.size(); ++i) {
    EXPECT_NEAR(report.windows[i].value, truth.windows[i].value,
                1e-6 * std::max(1.0, std::abs(truth.windows[i].value)))
        << report.scheme << " window " << i;
    EXPECT_EQ(report.windows[i].event_count, truth.windows[i].event_count);
  }
  const CorrectnessReport correctness =
      CompareConsumption(truth.consumption, report.consumption);
  EXPECT_DOUBLE_EQ(correctness.correctness, 1.0) << report.scheme;
}

class SchemeEquivalence : public ::testing::TestWithParam<Scheme> {};

TEST_P(SchemeEquivalence, MatchesCentralGroundTruth) {
  const RunReport truth = MustRun(SmallConfig(Scheme::kCentral));
  ASSERT_GT(truth.windows_emitted, 10u);
  const RunReport report = MustRun(SmallConfig(GetParam()));
  ExpectSameResults(truth, report);
}

INSTANTIATE_TEST_SUITE_P(ExactSchemes, SchemeEquivalence,
                         ::testing::Values(Scheme::kScotty, Scheme::kDisco,
                                           Scheme::kDecoMon,
                                           Scheme::kDecoSync,
                                           Scheme::kDecoAsync,
                                           Scheme::kDecoMonLocal));

TEST(IntegrationTest, ApproxDriftsUnderRateChange) {
  ExperimentConfig config = SmallConfig(Scheme::kApprox);
  config.rate_change = 0.5;  // strong drift
  config.rate_skew = 0.3;    // heterogeneous nodes
  const RunReport truth = [&] {
    ExperimentConfig c = config;
    c.scheme = Scheme::kCentral;
    return MustRun(c);
  }();
  const RunReport approx = MustRun(config);
  const CorrectnessReport correctness =
      CompareConsumption(truth.consumption, approx.consumption);
  // Approx is fast but wrong: overlap must be clearly below 100%.
  EXPECT_LT(correctness.correctness, 0.999);
  EXPECT_GT(correctness.correctness, 0.2);
  EXPECT_EQ(approx.correction_steps, 0u);
}

TEST(IntegrationTest, DecoExactEvenUnderExtremeRateChange) {
  // Fig. 10d/f: Deco stays exact at 50% rate change where Approx breaks.
  for (Scheme scheme : {Scheme::kDecoSync, Scheme::kDecoMon}) {
    ExperimentConfig config = SmallConfig(scheme);
    config.rate_change = 0.5;
    const RunReport truth = [&] {
      ExperimentConfig c = config;
      c.scheme = Scheme::kCentral;
      return MustRun(c);
    }();
    const RunReport report = MustRun(config);
    ExpectSameResults(truth, report);
    // At this drift level the schemes must have needed corrections.
    EXPECT_GT(report.correction_steps, 0u) << report.scheme;
  }
}

TEST(IntegrationTest, DecoSavesNetworkVersusCentral) {
  ExperimentConfig config = SmallConfig(Scheme::kDecoSync);
  config.rate_change = 0.01;
  const RunReport truth = [&] {
    ExperimentConfig c = config;
    c.scheme = Scheme::kCentral;
    return MustRun(c);
  }();
  const RunReport deco = MustRun(config);
  // The headline claim: decentralized aggregation ships a small fraction
  // of the bytes of centralized processing.
  EXPECT_LT(deco.network.total_bytes, truth.network.total_bytes / 3);
}

TEST(IntegrationTest, DifferentAggregatesStayExact) {
  for (AggregateKind kind : {AggregateKind::kMin, AggregateKind::kMax,
                             AggregateKind::kAvg}) {
    ExperimentConfig config = SmallConfig(Scheme::kDecoSync);
    config.query.aggregate = kind;
    ExperimentConfig central = config;
    central.scheme = Scheme::kCentral;
    const RunReport truth = MustRun(central);
    const RunReport report = MustRun(config);
    ASSERT_EQ(report.windows.size(), truth.windows.size());
    for (size_t i = 0; i < truth.windows.size(); ++i) {
      EXPECT_NEAR(report.windows[i].value, truth.windows[i].value, 1e-9)
          << AggregateKindToString(kind) << " window " << i;
    }
  }
}

TEST(IntegrationTest, HolisticAggregateRequiresCentral) {
  ExperimentConfig config = SmallConfig(Scheme::kDecoSync);
  config.query.aggregate = AggregateKind::kMedian;
  EXPECT_TRUE(RunExperiment(config).status().IsNotSupported());
  // Central runs it fine (paper footnote 2).
  config.scheme = Scheme::kCentral;
  config.events_per_local = 6000;
  const RunReport report = MustRun(config);
  EXPECT_GT(report.windows_emitted, 0u);
}

TEST(IntegrationTest, SlidingWindowsOnCentralizedSchemes) {
  ExperimentConfig config = SmallConfig(Scheme::kScotty);
  config.query.window = WindowSpec::CountSliding(2000, 1000);
  const RunReport report = MustRun(config);
  // 90k events -> (90000 - 2000) / 1000 + 1 = 89 sliding windows.
  EXPECT_EQ(report.windows_emitted, 89u);
}

TEST(IntegrationTest, DecentralizedSlidingMatchesCentralized) {
  // Extension beyond the paper: sliding count windows decompose into
  // gcd(length, slide) panes; each pane runs through the Deco protocol and
  // the root composes the overlapping windows from pane partials.
  ExperimentConfig config = SmallConfig(Scheme::kScotty);
  config.query.window = WindowSpec::CountSliding(3000, 1000);
  const RunReport truth = MustRun(config);
  for (Scheme scheme : {Scheme::kDecoSync, Scheme::kDecoAsync}) {
    config.scheme = scheme;
    const RunReport report = MustRun(config);
    ASSERT_EQ(report.windows_emitted, truth.windows_emitted)
        << SchemeToString(scheme);
    for (size_t i = 0; i < truth.windows.size(); ++i) {
      EXPECT_NEAR(report.windows[i].value, truth.windows[i].value,
                  1e-6 * std::max(1.0, std::abs(truth.windows[i].value)))
          << SchemeToString(scheme) << " sliding window " << i;
    }
  }
}

TEST(IntegrationTest, ValidationRejectsBadConfigs) {
  ExperimentConfig config = SmallConfig(Scheme::kCentral);
  config.num_locals = 0;
  EXPECT_FALSE(RunExperiment(config).ok());
  config = SmallConfig(Scheme::kCentral);
  config.base_rate = -5;
  EXPECT_FALSE(RunExperiment(config).ok());
}

TEST(IntegrationTest, SchemeNamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(Scheme::kDecoMonLocal); ++i) {
    const Scheme scheme = static_cast<Scheme>(i);
    EXPECT_EQ(*SchemeFromString(SchemeToString(scheme)), scheme);
  }
  EXPECT_FALSE(SchemeFromString("bogus").ok());
}

TEST(IntegrationTest, ReportsCarryThroughputAndLatency) {
  const RunReport report = MustRun(SmallConfig(Scheme::kDecoSync));
  EXPECT_GT(report.throughput_eps, 0.0);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_EQ(report.latency.count(), report.windows_emitted);
  EXPECT_GT(report.latency.mean(), 0.0);
  EXPECT_EQ(report.events_processed, report.windows_emitted * 2000);
}

TEST(IntegrationTest, LocalNodeFailureIsSurvivedViaTimeout) {
  // Paper §4.3.4: the root removes a silent node after a timeout and
  // corrects the affected window from the survivors. Simulation-driven:
  // the crash is a virtual-time chaos event at a deterministic stream
  // position, not a wall-clock sleep racing the pipeline.
  ExperimentConfig config = SmallConfig(Scheme::kDecoSync);
  config.sim = true;
  config.events_per_local = 90'000;
  config.base_rate = 30'000;
  // cpu = rate: after the token bucket's one-second initial burst the
  // stream is paced, so virtual time advances and the 300ms crash lands
  // mid-run.
  config.cpu_events_per_sec = 30'000;
  config.root_options.node_timeout_nanos = 120 * kNanosPerMilli;
  config.sim_time_limit_nanos = 60 * kNanosPerSecond;
  auto schedule = ChaosSchedule::Parse("crash:local-1@300ms");
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  config.chaos.schedule = *schedule;

  auto report = RunExperiment(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The run completed and kept emitting windows after the failure.
  EXPECT_GT(report->windows_emitted, 10u);
  EXPECT_GT(report->correction_steps, 0u);
  bool removed = false;
  for (const MembershipEvent& event : report->membership) {
    removed |= !event.rejoined;
  }
  EXPECT_TRUE(removed) << "root never removed the crashed node";
}

}  // namespace
}  // namespace deco
