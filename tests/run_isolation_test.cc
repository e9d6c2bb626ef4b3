// Runs in one process must not see each other: every run counts and
// records into its own RunContext. Two different small --sim runs are
// executed A then B, B then A, and A and B concurrently on two threads;
// each run's observable artifacts must be the same in all three
// schedules.

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "chaos/schedule.h"
#include "harness/experiment.h"
#include "obs/export.h"
#include "obs/provenance.h"
#include "serve/registry.h"

namespace deco {
namespace {

/// Everything one run exposes that must describe that run alone.
struct Artifacts {
  std::string telemetry_json;  ///< wall-clock self-metering scrubbed
  std::string metrics;         ///< final /metrics, self-metering scrubbed
  std::string provenance_json;
  size_t spans = 0;
  size_t hops = 0;
  std::string tenants;  ///< tenant, bytes, agg_ops, queries per tenant
  std::string profile;  ///< thread names and per-handler message counts
};

/// A: deco-sync serving two tenants under crash/restart chaos, with
/// telemetry, provenance, the profiler, the watchdog and a /metrics sink.
ExperimentConfig ConfigA() {
  ExperimentConfig config;
  config.scheme = Scheme::kDecoSync;
  config.num_locals = 3;
  config.streams_per_local = 2;
  // Paced past the throttle's one-second burst so virtual time runs
  // and the crash lands mid-stream.
  config.events_per_local = 30'000;
  config.base_rate = 20'000;
  config.cpu_events_per_sec = 20'000;
  config.batch_size = 256;
  config.seed = 123;
  config.sim = true;
  config.root_options.node_timeout_nanos = 120 * kNanosPerMilli;
  config.serve.queries =
      *ParseQueryList("tenant=a,agg=sum,window=2000;"
                      "tenant=b,agg=max,window=4000");
  config.chaos.schedule =
      *ChaosSchedule::Parse("crash:local-1@100ms,restart:local-1@250ms");
  config.telemetry.enabled = true;
  config.telemetry.sample_interval_nanos = 20 * kNanosPerMilli;
  config.provenance.enabled = true;
  config.profile.enabled = true;
  config.ops.watchdog = true;
  config.ops.flight_recorder_out =
      ::testing::TempDir() + "/run_isolation_flight.json";
  return config;
}

/// B: central with telemetry and the profiler.
ExperimentConfig ConfigB() {
  ExperimentConfig config;
  config.scheme = Scheme::kCentral;
  config.query.window = WindowSpec::CountTumbling(6000);
  config.query.aggregate = AggregateKind::kSum;
  config.num_locals = 2;
  config.streams_per_local = 2;
  config.events_per_local = 15'000;
  config.base_rate = 100'000;
  config.cpu_events_per_sec = 100'000;
  config.batch_size = 1024;
  config.seed = 11;
  config.sim = true;
  config.telemetry.enabled = true;
  config.telemetry.sample_interval_nanos = 20 * kNanosPerMilli;
  config.profile.enabled = true;
  return config;
}

Artifacts RunAndCapture(ExperimentConfig config) {
  TelemetryLog log;
  std::string exposition;
  config.telemetry.sink = &log;
  config.ops.metrics_sink = &exposition;
  Result<RunReport> result = RunExperiment(config);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  RunReport report = *result;

  Artifacts out;
  out.metrics = ScrubExposition(exposition);
  out.provenance_json = ProvenanceJson(log.provenance);
  out.spans = log.spans.size();
  out.hops = log.hops.size();
  for (const TenantUsage& t : report.serving.tenants) {
    out.tenants += t.tenant + " " + std::to_string(t.bytes) + " " +
                   std::to_string(t.agg_ops) + " " +
                   std::to_string(t.queries) + "\n";
  }
  for (const ThreadProfile& t : report.profile.threads) {
    out.profile += t.name + ":";
    for (const HandlerProfile& h : t.handlers) {
      out.profile += " ";
      out.profile += MessageTypeToString(h.type);
      out.profile += "=";
      out.profile += std::to_string(h.count);
    }
    out.profile += "\n";
  }
  // CPU and allocation figures are measurements of this process, not of
  // the simulated run; zero them so the document compares on the rest.
  for (ThreadProfile& t : report.profile.threads) {
    t.cpu_nanos = t.wall_nanos = t.allocations = t.allocated_bytes = 0;
    for (HandlerProfile& h : t.handlers) h.cpu_nanos = h.wall_nanos = 0;
  }
  for (TenantUsage& t : report.serving.tenants) t.cpu_nanos_est = 0;
  out.telemetry_json = ScrubTelemetryJson(TelemetryToJson(report, log));
  return out;
}

void ExpectSameRun(const Artifacts& want, const Artifacts& got,
                   const std::string& schedule) {
  SCOPED_TRACE(schedule);
  EXPECT_TRUE(want.telemetry_json == got.telemetry_json)
      << "telemetry JSON differs (" << want.telemetry_json.size() << " vs "
      << got.telemetry_json.size() << " bytes)";
  EXPECT_EQ(want.metrics, got.metrics);
  EXPECT_TRUE(want.provenance_json == got.provenance_json)
      << "provenance JSON differs";
  EXPECT_EQ(want.spans, got.spans);
  EXPECT_EQ(want.hops, got.hops);
  EXPECT_EQ(want.tenants, got.tenants);
  EXPECT_EQ(want.profile, got.profile);
}

TEST(RunIsolationTest, SequentialAndConcurrentRunsReportOnlyThemselves) {
  const Artifacts a_first = RunAndCapture(ConfigA());
  const Artifacts b_second = RunAndCapture(ConfigB());
  const Artifacts b_first = RunAndCapture(ConfigB());
  const Artifacts a_second = RunAndCapture(ConfigA());
  Artifacts a_concurrent, b_concurrent;
  std::thread a_thread([&] { a_concurrent = RunAndCapture(ConfigA()); });
  std::thread b_thread([&] { b_concurrent = RunAndCapture(ConfigB()); });
  a_thread.join();
  b_thread.join();

  // The runs really exercise what they are meant to isolate.
  EXPECT_GT(a_first.spans, 0u);
  EXPECT_GT(a_first.hops, 0u);
  EXPECT_GT(b_first.spans, 0u);
  EXPECT_NE(a_first.tenants, "");
  EXPECT_NE(a_first.metrics.find("deco_chaos_crashes_total 1\n"),
            std::string::npos);
  EXPECT_NE(a_first.metrics.find("deco_serve_tenant_a_bytes_total"),
            std::string::npos);
  EXPECT_EQ(b_first.metrics.find("serve_tenant"), std::string::npos);
  EXPECT_NE(a_first.profile, "");
  EXPECT_NE(b_first.profile, "");

  ExpectSameRun(a_first, a_second, "A after B");
  ExpectSameRun(a_first, a_concurrent, "A beside B");
  ExpectSameRun(b_first, b_second, "B after A");
  ExpectSameRun(b_first, b_concurrent, "B beside A");
}

}  // namespace
}  // namespace deco
