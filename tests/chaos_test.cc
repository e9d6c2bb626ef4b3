#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "chaos/controller.h"
#include "chaos/schedule.h"
#include "common/clock.h"
#include "harness/experiment.h"
#include "net/fabric.h"
#include "net/message.h"

namespace deco {
namespace {

// ------------------------------------------------------------- Schedule

TEST(ChaosScheduleTest, ParseCanonicalCrashRestart) {
  auto schedule =
      ChaosSchedule::Parse("crash:local-1@300ms,restart:local-1@800ms");
  ASSERT_TRUE(schedule.ok());
  ASSERT_EQ(schedule->events().size(), 2u);
  EXPECT_EQ(schedule->events()[0].kind, FaultKind::kCrash);
  EXPECT_EQ(schedule->events()[0].target, "local-1");
  EXPECT_EQ(schedule->events()[0].at_nanos, 300 * kNanosPerMilli);
  EXPECT_EQ(schedule->events()[1].kind, FaultKind::kRestart);
  EXPECT_EQ(schedule->events()[1].at_nanos, 800 * kNanosPerMilli);
}

TEST(ChaosScheduleTest, ParseUnitsAndValues) {
  auto schedule = ChaosSchedule::Parse(
      "drop:local-0@100+200=0.5,lag:root@1s+500ms=20ms,"
      "surge:local-2@2500us+1=3");
  ASSERT_TRUE(schedule.ok());
  ASSERT_EQ(schedule->events().size(), 3u);

  const FaultEvent& drop = schedule->events()[0];
  EXPECT_EQ(drop.kind, FaultKind::kDropBurst);
  EXPECT_EQ(drop.at_nanos, 100 * kNanosPerMilli);  // default unit is ms
  EXPECT_EQ(drop.duration_nanos, 200 * kNanosPerMilli);
  EXPECT_DOUBLE_EQ(drop.drop_probability, 0.5);

  const FaultEvent& lag = schedule->events()[1];
  EXPECT_EQ(lag.kind, FaultKind::kLatencySpike);
  EXPECT_EQ(lag.target, "root");
  EXPECT_EQ(lag.at_nanos, kNanosPerSecond);
  EXPECT_EQ(lag.duration_nanos, 500 * kNanosPerMilli);
  EXPECT_EQ(lag.latency_nanos, 20 * kNanosPerMilli);

  const FaultEvent& surge = schedule->events()[2];
  EXPECT_EQ(surge.kind, FaultKind::kRateSurge);
  EXPECT_EQ(surge.at_nanos, 2'500'000);  // 2500us
  EXPECT_DOUBLE_EQ(surge.rate_factor, 3.0);
}

TEST(ChaosScheduleTest, SpecRoundTrips) {
  ChaosSchedule schedule;
  schedule.Crash("local-1", 300 * kNanosPerMilli)
      .Restart("local-1", 800 * kNanosPerMilli)
      .DropBurst("local-0", 100 * kNanosPerMilli, 200 * kNanosPerMilli, 0.5)
      .LatencySpike("root", kNanosPerSecond, 500 * kNanosPerMilli,
                    20 * kNanosPerMilli)
      .Partition("local-2", 50 * kNanosPerMilli, 25 * kNanosPerMilli)
      .RateSurge("local-0", 400 * kNanosPerMilli, kNanosPerSecond, 2.5);
  const std::string spec = schedule.ToSpecString();
  auto reparsed = ChaosSchedule::Parse(spec);
  ASSERT_TRUE(reparsed.ok()) << spec;
  EXPECT_EQ(reparsed->ToSpecString(), spec);
  EXPECT_EQ(reparsed->events().size(), schedule.events().size());
}

TEST(ChaosScheduleTest, ParseErrors) {
  EXPECT_TRUE(ChaosSchedule::Parse("crash").status().IsInvalidArgument());
  EXPECT_TRUE(
      ChaosSchedule::Parse("crash:local-1").status().IsInvalidArgument());
  EXPECT_TRUE(
      ChaosSchedule::Parse("melt:local-1@300ms").status().IsInvalidArgument());
  EXPECT_TRUE(ChaosSchedule::Parse("crash:@300ms").status()
                  .IsInvalidArgument());  // empty target
  EXPECT_TRUE(ChaosSchedule::Parse("crash:a@3parsecs").status()
                  .IsInvalidArgument());  // bad unit
  EXPECT_TRUE(ChaosSchedule::Parse("lag:a@300ms+100ms").status()
                  .IsInvalidArgument());  // lag needs '=<latency>'
  EXPECT_TRUE(ChaosSchedule::Parse("surge:a@300ms").status()
                  .IsInvalidArgument());  // surge needs '=<factor>'
  EXPECT_TRUE(ChaosSchedule::Parse("crash:a@300ms=1").status()
                  .IsInvalidArgument());  // '=' not allowed for crash
  EXPECT_TRUE(ChaosSchedule::Parse("drop:a@300ms+1ms=1.5").status()
                  .IsInvalidArgument());  // probability > 1
  EXPECT_TRUE(ChaosSchedule::Parse("surge:a@300ms+1ms=0").status()
                  .IsInvalidArgument());  // factor must be positive
}

TEST(ChaosScheduleTest, ValidateCrashRestartAlternation) {
  // Restart without a prior crash.
  EXPECT_TRUE(
      ChaosSchedule().Restart("a", 100).Validate().IsInvalidArgument());
  // Double crash.
  EXPECT_TRUE(ChaosSchedule()
                  .Crash("a", 100)
                  .Crash("a", 200)
                  .Validate()
                  .IsInvalidArgument());
  // A final crash without restart is fine (node stays dead).
  EXPECT_TRUE(ChaosSchedule().Crash("a", 100).Validate().ok());
  // Pairing is checked in *time* order, not list order.
  EXPECT_TRUE(
      ChaosSchedule().Restart("a", 800).Crash("a", 300).Validate().ok());
  // Independent targets do not interact.
  EXPECT_TRUE(
      ChaosSchedule().Crash("a", 100).Crash("b", 100).Validate().ok());
}

// ------------------------------------------------- Controller (ManualClock)

Message MakeBatch(NodeId src, NodeId dst) {
  Message msg;
  msg.type = MessageType::kEventBatch;
  msg.src = src;
  msg.dst = dst;
  msg.payload.assign(16, 'x');
  return msg;
}

class ChaosControllerTest : public ::testing::Test {
 protected:
  ChaosControllerTest() : clock_(0), fabric_(&clock_, /*seed=*/7) {
    root_ = fabric_.RegisterNode("root");
    local0_ = fabric_.RegisterNode("local-0");
    local1_ = fabric_.RegisterNode("local-1");
  }
  ManualClock clock_;
  NetworkFabric fabric_;
  MetricRegistry metrics_;
  NodeId root_, local0_, local1_;
};

TEST_F(ChaosControllerTest, ManualDriveFiresInOrderWithAudit) {
  ChaosSchedule schedule;
  schedule
      .DropBurst("local-0", 10 * kNanosPerMilli, 20 * kNanosPerMilli, 1.0)
      .Crash("local-1", 15 * kNanosPerMilli)
      .Restart("local-1", 40 * kNanosPerMilli);

  ChaosController controller(&fabric_, &clock_, &metrics_);
  ASSERT_TRUE(controller.Prepare(schedule).ok());
  // drop apply + drop restore + crash + restart.
  EXPECT_EQ(controller.action_count(), 4u);

  ASSERT_TRUE(controller.ApplyDue(9 * kNanosPerMilli).ok());
  EXPECT_EQ(controller.fired_count(), 0u);
  ASSERT_TRUE(controller.ApplyDue(10 * kNanosPerMilli).ok());
  EXPECT_EQ(controller.fired_count(), 1u);
  ASSERT_TRUE(controller.ApplyDue(30 * kNanosPerMilli).ok());
  EXPECT_EQ(controller.fired_count(), 3u);  // crash@15 + drop restore@30
  EXPECT_TRUE(fabric_.IsNodeDown(local1_));
  ASSERT_TRUE(controller.ApplyDue(100 * kNanosPerMilli).ok());
  EXPECT_EQ(controller.fired_count(), 4u);
  EXPECT_FALSE(fabric_.IsNodeDown(local1_));

  const std::vector<ChaosAuditEntry> audit = controller.AuditLog();
  ASSERT_EQ(audit.size(), 4u);
  EXPECT_EQ(audit[0].Describe(),
            "@10ms drop local-0 (drop_probability=1.000000 on 4 links)");
  EXPECT_EQ(audit[1].Describe(), "@15ms crash local-1 (node down)");
  EXPECT_EQ(audit[2].Describe(),
            "@30ms restore-drop local-0 (drop_probability=restored on 4 "
            "links)");
  EXPECT_EQ(audit[3].Describe(),
            "@40ms restart local-1 (node up, incarnation 1)");
  EXPECT_EQ(metrics_.counter("chaos.events_fired")->value(), 4);
  EXPECT_EQ(metrics_.counter("chaos.crashes")->value(), 1);
  EXPECT_EQ(metrics_.counter("chaos.restarts")->value(), 1);
}

TEST_F(ChaosControllerTest, DropBurstAppliesAndRestoresDisplacedField) {
  // Pre-existing shaping must come back after the burst.
  LinkConfig pre;
  pre.drop_probability = 0.25;
  ASSERT_TRUE(fabric_.SetLinkConfig(local0_, root_, pre).ok());

  ChaosSchedule schedule;
  schedule.DropBurst("local-0", 0, 10 * kNanosPerMilli, 1.0);
  ChaosController controller(&fabric_, &clock_, &metrics_);
  ASSERT_TRUE(controller.Prepare(schedule).ok());

  ASSERT_TRUE(controller.ApplyDue(0).ok());
  auto during = fabric_.GetLinkConfig(local0_, root_);
  ASSERT_TRUE(during.ok());
  EXPECT_DOUBLE_EQ(during->drop_probability, 1.0);
  // Burst at p=1.0 really eats traffic.
  ASSERT_TRUE(fabric_.Send(MakeBatch(local0_, root_)).ok());
  EXPECT_EQ(fabric_.mailbox(root_)->size(), 0u);

  ASSERT_TRUE(controller.ApplyDue(10 * kNanosPerMilli).ok());
  auto after = fabric_.GetLinkConfig(local0_, root_);
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ(after->drop_probability, 0.25);
  // The reverse direction was saved/restored independently (default 0).
  auto reverse = fabric_.GetLinkConfig(root_, local0_);
  ASSERT_TRUE(reverse.ok());
  EXPECT_DOUBLE_EQ(reverse->drop_probability, 0.0);
}

TEST_F(ChaosControllerTest, PartitionIsolatesBothDirectionsThenHeals) {
  ChaosSchedule schedule;
  schedule.Partition("local-0", 0, 10 * kNanosPerMilli);
  ChaosController controller(&fabric_, &clock_, &metrics_);
  ASSERT_TRUE(controller.Prepare(schedule).ok());

  ASSERT_TRUE(controller.ApplyDue(0).ok());
  ASSERT_TRUE(fabric_.Send(MakeBatch(local0_, root_)).ok());
  ASSERT_TRUE(fabric_.Send(MakeBatch(root_, local0_)).ok());
  EXPECT_EQ(fabric_.mailbox(root_)->size(), 0u);
  EXPECT_EQ(fabric_.mailbox(local0_)->size(), 0u);
  // Unrelated links keep flowing.
  ASSERT_TRUE(fabric_.Send(MakeBatch(local1_, root_)).ok());
  EXPECT_EQ(fabric_.mailbox(root_)->size(), 1u);

  ASSERT_TRUE(controller.ApplyDue(10 * kNanosPerMilli).ok());
  ASSERT_TRUE(fabric_.Send(MakeBatch(local0_, root_)).ok());
  EXPECT_EQ(fabric_.mailbox(root_)->size(), 2u);
}

TEST_F(ChaosControllerTest, RateSurgeWritesHandleAndRestores) {
  auto handle = std::make_shared<std::atomic<double>>(1.0);
  ChaosSchedule schedule;
  schedule.RateSurge("local-0", 0, 10 * kNanosPerMilli, 3.0);

  ChaosController without(&fabric_, &clock_, &metrics_);
  EXPECT_TRUE(without.Prepare(schedule).IsInvalidArgument());

  ChaosController controller(&fabric_, &clock_, &metrics_);
  controller.AddRateHandle("local-0", handle);
  ASSERT_TRUE(controller.Prepare(schedule).ok());
  ASSERT_TRUE(controller.ApplyDue(0).ok());
  EXPECT_DOUBLE_EQ(handle->load(), 3.0);
  ASSERT_TRUE(controller.ApplyDue(10 * kNanosPerMilli).ok());
  EXPECT_DOUBLE_EQ(handle->load(), 1.0);
}

TEST_F(ChaosControllerTest, UnknownTargetRejectedAtPrepare) {
  ChaosSchedule schedule;
  schedule.Crash("no-such-node", 0);
  ChaosController controller(&fabric_, &clock_, &metrics_);
  EXPECT_TRUE(controller.Prepare(schedule).IsInvalidArgument());
}

TEST_F(ChaosControllerTest, DoubleStartRejected) {
  ChaosSchedule schedule;
  schedule.Crash("local-0", kNanosPerSecond);
  ChaosController controller(&fabric_, &clock_, &metrics_);
  ASSERT_TRUE(controller.Prepare(schedule).ok());
  ASSERT_TRUE(controller.Start().ok());
  EXPECT_FALSE(controller.Start().ok());
  controller.Stop();
}

TEST(ChaosDeterminismTest, SameSeedAndScheduleSameAuditAndDrops) {
  // The reproducibility contract: identical fabric seed + schedule +
  // message sequence => byte-identical audit transcript and identical
  // per-link drop counts.
  ChaosSchedule schedule;
  schedule
      .DropBurst("local-0", 5 * kNanosPerMilli, 10 * kNanosPerMilli, 0.5)
      .Crash("local-1", 8 * kNanosPerMilli)
      .Restart("local-1", 12 * kNanosPerMilli);

  auto run = [&](std::vector<std::string>* audit_lines,
                 uint64_t* dropped) {
    ManualClock clock(0);
    NetworkFabric fabric(&clock, /*seed=*/1234);
    const NodeId root = fabric.RegisterNode("root");
    const NodeId local0 = fabric.RegisterNode("local-0");
    fabric.RegisterNode("local-1");

    MetricRegistry metrics;
    ChaosController controller(&fabric, &clock, &metrics);
    ASSERT_TRUE(controller.Prepare(schedule).ok());
    ASSERT_TRUE(controller.ApplyDue(5 * kNanosPerMilli).ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(fabric.Send(MakeBatch(local0, root)).ok());
    }
    ASSERT_TRUE(controller.ApplyDue(20 * kNanosPerMilli).ok());
    for (const ChaosAuditEntry& entry : controller.AuditLog()) {
      audit_lines->push_back(entry.Describe());
    }
    *dropped = fabric.link_stats(local0, root).messages_dropped;
  };

  std::vector<std::string> audit_a, audit_b;
  uint64_t dropped_a = 0, dropped_b = 0;
  run(&audit_a, &dropped_a);
  run(&audit_b, &dropped_b);

  ASSERT_EQ(audit_a.size(), 4u);
  EXPECT_EQ(audit_a, audit_b);
  EXPECT_EQ(dropped_a, dropped_b);
  EXPECT_GT(dropped_a, 50u);   // p=0.5 over 200 sends
  EXPECT_LT(dropped_a, 150u);
}

// --------------------------------------------------- Experiment integration

/// Linear interpolation of a run's (end_ts -> value) trajectory.
double TruthValueAt(const std::vector<GlobalWindowRecord>& truth,
                    EventTime ts) {
  const auto at_or_after = std::lower_bound(
      truth.begin(), truth.end(), ts,
      [](const GlobalWindowRecord& w, EventTime t) { return w.end_ts < t; });
  if (at_or_after == truth.begin()) return truth.front().value;
  if (at_or_after == truth.end()) return truth.back().value;
  const GlobalWindowRecord& hi = *at_or_after;
  const GlobalWindowRecord& lo = *(at_or_after - 1);
  if (hi.end_ts == lo.end_ts) return hi.value;
  const double frac = static_cast<double>(ts - lo.end_ts) /
                      static_cast<double>(hi.end_ts - lo.end_ts);
  return lo.value + frac * (hi.value - lo.value);
}

/// Mean |chaos - truth| / mean |truth| over the last quarter of the chaos
/// run's windows, aligned on event time (window indices shift after a
/// removal, event time does not).
double TailRelativeError(const RunReport& truth, const RunReport& chaos) {
  const size_t first = chaos.windows.size() - chaos.windows.size() / 4;
  const EventTime truth_max = truth.windows.back().end_ts;
  double err_sum = 0.0;
  double truth_sum = 0.0;
  for (size_t i = first; i < chaos.windows.size(); ++i) {
    const GlobalWindowRecord& w = chaos.windows[i];
    if (w.end_ts > truth_max) continue;
    const double expected = TruthValueAt(truth.windows, w.end_ts);
    err_sum += std::fabs(w.value - expected);
    truth_sum += std::fabs(expected);
  }
  return truth_sum > 0.0 ? err_sum / truth_sum : 0.0;
}

ExperimentConfig ChaosBaseConfig() {
  ExperimentConfig config;
  config.scheme = Scheme::kDecoSync;
  config.query.window = WindowSpec::CountTumbling(10'000);
  config.query.aggregate = AggregateKind::kSum;
  config.num_locals = 3;
  config.streams_per_local = 2;
  // ~2 s of stream per local (two 2e6/s streams): long enough that the
  // post-rejoin catch-up transient has decayed out of the measured tail.
  config.events_per_local = 8'000'000;
  config.base_rate = 2e6;
  config.rate_change = 0.01;
  config.root_options.node_timeout_nanos = 120 * kNanosPerMilli;
  return config;
}

constexpr TimeNanos kCrashAt = 300 * kNanosPerMilli;
constexpr TimeNanos kRestartAt = 800 * kNanosPerMilli;

// The PR's acceptance scenario: Deco_sync under the canonical crash +
// restart of local-1. (a) the root detects the crash within the failure
// detection bound, (b) the restarted local is re-admitted and contributes
// events again, (c) the post-recovery tail tracks the fault-free run to
// well under 1% relative error.
TEST(ChaosIntegrationTest, DecoSyncCrashRestartRecovers) {
  ExperimentConfig config = ChaosBaseConfig();

  auto truth = RunExperiment(config);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();

  config.chaos.schedule =
      ChaosSchedule().Crash("local-1", kCrashAt).Restart("local-1",
                                                         kRestartAt);
  std::vector<ChaosAuditEntry> audit;
  config.chaos.audit = &audit;
  auto chaos = RunExperiment(config);
  ASSERT_TRUE(chaos.ok()) << chaos.status().ToString();
  ASSERT_EQ(audit.size(), 2u);  // both actions fired before the run ended

  // (a) Crash detected by the per-node timeout (paper §4.3.4): the removal
  // lands after crash + timeout, and within a generous scheduling margin
  // (the root checks timeouts on a timeout/4 receive cadence).
  ASSERT_FALSE(chaos->membership.empty());
  const MembershipEvent& removal = chaos->membership.front();
  EXPECT_FALSE(removal.rejoined);
  EXPECT_EQ(removal.node, 1u);
  const TimeNanos detect_offset =
      removal.at_nanos - chaos->start_wall_nanos - kCrashAt;
  EXPECT_GE(detect_offset, config.root_options.node_timeout_nanos / 2);
  EXPECT_LE(detect_offset,
            2 * config.root_options.node_timeout_nanos +
                100 * kNanosPerMilli);

  // (b) The restarted local rejoined and contributed events afterwards.
  ASSERT_EQ(chaos->membership.size(), 2u);
  const MembershipEvent& rejoin = chaos->membership[1];
  EXPECT_TRUE(rejoin.rejoined);
  EXPECT_EQ(rejoin.node, 1u);
  EXPECT_GE(rejoin.at_nanos - chaos->start_wall_nanos, kRestartAt);
  const ConsumptionLog& consumption = chaos->consumption;
  uint64_t node1_tail = 0;
  const size_t tail_start =
      consumption.num_windows() - consumption.num_windows() / 4;
  for (size_t w = tail_start; w < consumption.num_windows(); ++w) {
    node1_tail += consumption.window(w)[1];
  }
  EXPECT_GT(node1_tail, 0u);

  // (c) Post-recovery accuracy vs the fault-free ground truth.
  ASSERT_GT(chaos->windows_emitted, 100u);
  const double tail_error = TailRelativeError(*truth, *chaos);
  EXPECT_LT(tail_error, 0.01) << "tail relative error " << tail_error;
}

// Lighter async variant: the rejoin path must also close under the
// non-blocking scheme (epoch bumps race with in-flight windows).
TEST(ChaosIntegrationTest, DecoAsyncCrashRestartRejoins) {
  ExperimentConfig config = ChaosBaseConfig();
  config.scheme = Scheme::kDecoAsync;
  config.events_per_local = 6'000'000;  // ~1.5 s: restart@800ms lands mid-run
  config.chaos.schedule =
      ChaosSchedule().Crash("local-1", kCrashAt).Restart("local-1",
                                                         kRestartAt);

  auto chaos = RunExperiment(config);
  ASSERT_TRUE(chaos.ok()) << chaos.status().ToString();
  ASSERT_EQ(chaos->membership.size(), 2u);
  EXPECT_FALSE(chaos->membership[0].rejoined);
  EXPECT_TRUE(chaos->membership[1].rejoined);
  EXPECT_GT(chaos->windows_emitted, 100u);

  const ConsumptionLog& consumption = chaos->consumption;
  uint64_t node1_tail = 0;
  const size_t tail_start =
      consumption.num_windows() - consumption.num_windows() / 4;
  for (size_t w = tail_start; w < consumption.num_windows(); ++w) {
    node1_tail += consumption.window(w)[1];
  }
  EXPECT_GT(node1_tail, 0u);
}

// Crash chaos against a Deco scheme without failure detection must be
// rejected up front instead of hanging the run.
TEST(ChaosIntegrationTest, CrashWithoutTimeoutRejected) {
  ExperimentConfig config = ChaosBaseConfig();
  config.root_options.node_timeout_nanos = 0;
  config.chaos.schedule = ChaosSchedule().Crash("local-1", kCrashAt);
  EXPECT_TRUE(RunExperiment(config).status().IsInvalidArgument());
}

TEST(ChaosIntegrationTest, MonlocalCrashRejected) {
  ExperimentConfig config = ChaosBaseConfig();
  config.scheme = Scheme::kDecoMonLocal;
  config.chaos.schedule =
      ChaosSchedule().Crash("local-1", kCrashAt).Restart("local-1",
                                                         kRestartAt);
  EXPECT_TRUE(RunExperiment(config).status().IsNotSupported());
}

}  // namespace
}  // namespace deco
