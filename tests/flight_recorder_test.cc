// Flight recorder tests: ring capacity and overwrite order, JSON dump
// shape (validated structurally — substring checks plus brace balance),
// the process-wide crash-dump target, and an end-to-end run whose dump
// parses and carries real hops and spans.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/clock.h"
#include "harness/experiment.h"
#include "net/fabric.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace deco {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string content;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  return content;
}

// Cheap structural check: balanced braces/brackets outside strings. The
// repo has no C++ JSON parser; CI re-parses the dump with python.
bool BalancedJson(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TraceEvent MakeSpan(uint64_t window_index, int64_t value) {
  TraceEvent event;
  event.t_nanos = static_cast<TimeNanos>(window_index) * 1000;
  event.node = 1;
  event.phase = TracePhase::kEmit;
  event.window_index = window_index;
  event.value = value;
  return event;
}

TEST(FlightRecorderTest, RingKeepsMostRecentInOrder) {
  ManualClock clock;
  FlightRecorder::Options options;
  options.span_capacity = 4;
  FlightRecorder recorder(&clock, options);

  for (uint64_t i = 0; i < 10; ++i) {
    const TraceEvent e = MakeSpan(i, static_cast<int64_t>(100 + i));
    recorder.RecordSpan(e.node, e.phase, e.window_index, e.value, 0);
  }
  EXPECT_EQ(recorder.spans_recorded(), 10u);

  const std::vector<TraceEvent> spans = recorder.Spans();
  ASSERT_EQ(spans.size(), 4u);  // capacity bound
  // Oldest-first: the 4 most recent records are 6, 7, 8, 9.
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].window_index, 6 + i);
    EXPECT_EQ(spans[i].value, static_cast<int64_t>(106 + i));
  }
}

TEST(FlightRecorderTest, PartialRingIsOldestFirstToo) {
  ManualClock clock;
  FlightRecorder::Options options;
  options.alert_capacity = 8;
  FlightRecorder recorder(&clock, options);

  for (int i = 0; i < 3; ++i) {
    AlertTransition t;
    t.t_nanos = i;
    t.kind = "window-stall";
    t.subject = "root";
    t.fired = true;
    recorder.RecordAlert(t);
  }
  const std::vector<AlertTransition> alerts = recorder.Alerts();
  ASSERT_EQ(alerts.size(), 3u);
  for (size_t i = 0; i < alerts.size(); ++i) {
    EXPECT_EQ(alerts[i].t_nanos, static_cast<TimeNanos>(i));
  }
}

TEST(FlightRecorderTest, ZeroCapacityRingRecordsNothing) {
  ManualClock clock;
  FlightRecorder::Options options;
  options.span_capacity = 0;
  FlightRecorder recorder(&clock, options);
  recorder.RecordSpan(1, TracePhase::kEmit, 1, 1, 0);
  EXPECT_EQ(recorder.spans_recorded(), 0u);
  EXPECT_TRUE(recorder.Spans().empty());
}

TEST(FlightRecorderTest, DumpJsonRoundTrips) {
  const std::string path = ::testing::TempDir() + "/flight_dump.json";
  std::remove(path.c_str());

  ManualClock clock;
  clock.Advance(42);
  FlightRecorder recorder(&clock);
  recorder.RecordSpan(2, TracePhase::kAssemble, 7, 1234, 99);
  AlertTransition t;
  t.t_nanos = 5;
  t.kind = "queue-growth";
  t.subject = "local-\"0\"";  // exercises string escaping
  t.fired = true;
  t.observed = 500;
  t.threshold = 100;
  recorder.RecordAlert(t);

  ASSERT_TRUE(recorder.DumpJson(path, "unit-test"));
  const std::string json = ReadFileOrDie(path);
  EXPECT_TRUE(BalancedJson(json)) << json.substr(0, 200);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"reason\": \"unit-test\""), std::string::npos);
  EXPECT_NE(json.find("\"spans_recorded\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"alerts_recorded\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"assemble\""), std::string::npos);
  EXPECT_NE(json.find("\"window_index\":7"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"queue-growth\""), std::string::npos);
  EXPECT_NE(json.find("local-\\\"0\\\""), std::string::npos)
      << "quotes in subjects must be escaped";
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, DumpToUnwritablePathReturnsFalse) {
  ManualClock clock;
  FlightRecorder recorder(&clock);
  EXPECT_FALSE(recorder.DumpJson("/nonexistent-dir/x/y.json", "r"));
}

// The crash handler dumps the recorder that installed it last, and a
// destroyed recorder stops being the target.
TEST(FlightRecorderDeathTest, FatalSignalDumpsTheLiveRecorderOnly) {
  const std::string path = ::testing::TempDir() + "/flight_crash.json";
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        ManualClock clock;
        { FlightRecorder gone(&clock); gone.InstallCrashHandler(path); }
        std::abort();
      },
      ::testing::KilledBySignal(SIGABRT), "");
  std::FILE* dumped = std::fopen(path.c_str(), "r");
  EXPECT_EQ(dumped, nullptr) << "a destroyed recorder was dumped";
  if (dumped != nullptr) std::fclose(dumped);
  EXPECT_EXIT(
      {
        ManualClock clock;
        FlightRecorder live(&clock);
        live.RecordSpan(1, TracePhase::kEmit, 7, 0, 0);
        live.InstallCrashHandler(path);
        std::abort();
      },
      ::testing::KilledBySignal(SIGABRT), "");
  const std::string json = ReadFileOrDie(path);
  EXPECT_NE(json.find("\"reason\": \"fatal-signal:SIGABRT\""),
            std::string::npos);
  EXPECT_NE(json.find("\"window_index\":7"), std::string::npos);
  std::remove(path.c_str());
}

// End to end: a small sim run with the recorder on dumps a document that
// contains real hops and spans from the run.
TEST(FlightRecorderIntegrationTest, SimRunDumpCarriesHopsAndSpans) {
  const std::string path =
      ::testing::TempDir() + "/flight_integration.json";
  std::remove(path.c_str());

  ExperimentConfig config;
  config.scheme = Scheme::kDecoSync;
  config.query.window = WindowSpec::CountTumbling(10'000);
  config.query.aggregate = AggregateKind::kSum;
  config.num_locals = 2;
  config.streams_per_local = 2;
  config.events_per_local = 100'000;
  config.base_rate = 1e6;
  config.rate_change = 0.01;
  config.batch_size = 2048;
  config.seed = 7;
  config.sim = true;
  config.ops.dump_flight_recorder = true;
  config.ops.flight_recorder_out = path;

  auto report = RunExperiment(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->windows_emitted, 0u);

  const std::string json = ReadFileOrDie(path);
  EXPECT_TRUE(BalancedJson(json)) << json.substr(0, 200);
  EXPECT_NE(json.find("\"reason\": \"requested\""), std::string::npos);
#if DECO_TRACE_ENABLED
  EXPECT_NE(json.find("\"hops\": ["), std::string::npos);
  EXPECT_NE(json.find("\"msg_id\":"), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"emit\""), std::string::npos);
#endif
  std::remove(path.c_str());
}

}  // namespace
}  // namespace deco
