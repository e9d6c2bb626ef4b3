#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "net/fabric.h"
#include "node/actor.h"
#include "obs/critical_path.h"
#include "obs/export.h"
#include "obs/metric_registry.h"
#include "obs/perfetto_export.h"
#include "obs/run_context.h"
#include "obs/sampler.h"

namespace deco {
namespace {

// ---------------------------------------------------------------- Counter

TEST(CounterTest, AddAndIncrementAccumulate) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Add(5);
  c.Increment();
  c.Add(-2);
  EXPECT_EQ(c.value(), 4);
}

TEST(CounterTest, ConcurrentAddsAreLossless) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), int64_t{kThreads} * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
  g.Set(100);
  EXPECT_EQ(g.value(), 100);
}

// --------------------------------------------------------- MetricRegistry

TEST(MetricRegistryTest, InstrumentPointersAreStable) {
  MetricRegistry registry;
  Counter* c1 = registry.counter("requests");
  Counter* c2 = registry.counter("requests");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(registry.counter("other"), c1);
}

TEST(MetricRegistryTest, SnapshotIsNameSortedAndComplete) {
  MetricRegistry registry;
  registry.counter("b.count")->Add(2);
  registry.counter("a.count")->Add(1);
  registry.gauge("depth")->Set(42);
  registry.sketch("lat")->Observe(100);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "a.count");
  EXPECT_EQ(snapshot.counters[0].second, 1);
  EXPECT_EQ(snapshot.counters[1].first, "b.count");
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].second, 42);
  ASSERT_EQ(snapshot.sketches.size(), 1u);
  EXPECT_EQ(snapshot.sketches[0].name, "lat");
  EXPECT_EQ(snapshot.sketches[0].count, 1u);
}

TEST(MetricRegistryTest, ConcurrentLookupAndUpdate) {
  MetricRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < 1000; ++i) {
        registry.counter("shared")->Increment();
        registry.counter("own." + std::to_string(t))->Increment();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.counter("shared")->value(), 8000);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.size(), 9u);
}

TEST(MetricRegistryTest, GlobalIsSingleton) {
  EXPECT_EQ(MetricRegistry::Global(), MetricRegistry::Global());
}

// --------------------------------------------------------------- TraceSink

TEST(TraceSinkTest, RecordsAndDrainsSorted) {
  ManualClock clock(100);
  TraceSink sink(&clock);
  sink.Record(1, TracePhase::kWindowOpen, 0, 5);
  clock.Advance(50);
  sink.Record(2, TracePhase::kEmit, 0, 10);
  EXPECT_EQ(sink.size(), 2u);
  std::vector<TraceEvent> events = sink.Drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_LE(events[0].t_nanos, events[1].t_nanos);
  EXPECT_EQ(events[0].phase, TracePhase::kWindowOpen);
  EXPECT_EQ(events[1].phase, TracePhase::kEmit);
  EXPECT_EQ(events[1].value, 10);
  // Drain moves events out.
  EXPECT_EQ(sink.size(), 0u);
}

TEST(TraceSinkTest, CapacityBoundsRetainedEvents) {
  ManualClock clock(0);
  TraceSink sink(&clock, 16);
  for (int i = 0; i < 1000; ++i) {
    sink.Record(0, TracePhase::kEmit, i, 0);
  }
  EXPECT_LE(sink.size(), 16u);
  EXPECT_GT(sink.dropped(), 0u);
}

TEST(TraceSinkTest, MacroRecordsIntoTheRunsSinkOnly) {
  RunContext untraced;
  // Must not crash; the run has nowhere to record to.
  DECO_TRACE_SPAN(untraced, 0, TracePhase::kEmit, 0, 0);

  ManualClock clock(0);
  RunContext traced;
  traced.trace = std::make_unique<TraceSink>(&clock);
  DECO_TRACE_SPAN(traced, 3, TracePhase::kCorrect, 7, 11);
  DECO_TRACE_SPAN(untraced, 4, TracePhase::kCorrect, 8, 12);
#if DECO_TRACE_ENABLED
  std::vector<TraceEvent> events = traced.trace->Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].node, 3u);
  EXPECT_EQ(events[0].window_index, 7u);
  EXPECT_EQ(events[0].value, 11);
#endif
}

#if DECO_TRACE_ENABLED
TEST(TraceSinkTest, RecordsAndDrainsHops) {
  ManualClock clock(0);
  Message msg;
  msg.type = MessageType::kPartialResult;
  msg.src = 2;
  msg.dst = 0;
  msg.window_index = 7;
  msg.payload.assign(10, 'x');
  msg.hop.msg_id = 99;
  msg.hop.enqueue_nanos = 100;
  msg.hop.deliver_nanos = 150;
  msg.hop.dequeue_nanos = 170;
  msg.hop.shaping_delay_nanos = 5;
  // One record reaches both of the run's hop sinks.
  RunContext run;
  run.trace = std::make_unique<TraceSink>(&clock);
  run.flight_recorder = std::make_unique<FlightRecorder>(&clock);
  run.RecordHop(msg);
  const std::vector<HopRecord> recorded = run.flight_recorder->Hops();
  ASSERT_EQ(recorded.size(), 1u);
  EXPECT_EQ(recorded[0].msg_id, 99u);
  EXPECT_EQ(recorded[0].wire_bytes, msg.WireSize());
  TraceSink& sink = *run.trace;
  const std::vector<HopRecord> hops = sink.DrainHops();
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].msg_id, 99u);
  EXPECT_EQ(hops[0].type, MessageType::kPartialResult);
  EXPECT_EQ(hops[0].src, 2u);
  EXPECT_EQ(hops[0].dst, 0u);
  EXPECT_EQ(hops[0].window_index, 7u);
  EXPECT_EQ(hops[0].wire_bytes, msg.WireSize());
  EXPECT_EQ(hops[0].enqueue_nanos, 100);
  EXPECT_EQ(hops[0].deliver_nanos, 150);
  EXPECT_EQ(hops[0].dequeue_nanos, 170);
  EXPECT_EQ(hops[0].shaping_delay_nanos, 5);
  EXPECT_EQ(sink.hops_dropped(), 0u);
  // Drain moves hops out.
  EXPECT_TRUE(sink.DrainHops().empty());
}

// Receives one message, so the actor's dequeue path decides what the
// run's sink records.
class ReceiveOnceActor final : public Actor {
 public:
  using Actor::Actor;

 protected:
  Status Run() override {
    Receive();
    return Status::OK();
  }
};

TEST(TraceSinkTest, UnstampedMessagesRecordNoHop) {
  // A fabric that does not stamp hops leaves msg_id 0, and the receiving
  // actor records nothing for such a message; the stamped twin records
  // one hop.
  for (const bool stamping : {false, true}) {
    NetworkFabric fabric(SystemClock::Default());
    const NodeId src = fabric.RegisterNode("src");
    const NodeId dst = fabric.RegisterNode("dst");
    fabric.SetHopStamping(stamping);
    RunContext run;
    run.trace = std::make_unique<TraceSink>(SystemClock::Default());
    Message msg;
    msg.src = src;
    msg.dst = dst;
    ASSERT_TRUE(fabric.Send(std::move(msg)).ok());
    ReceiveOnceActor actor(&fabric, dst, SystemClock::Default(), &run);
    actor.Start();
    actor.Join();
    EXPECT_EQ(run.trace->DrainHops().size(), stamping ? 1u : 0u)
        << "stamping=" << stamping;
    fabric.Shutdown();
  }
}

TEST(TraceSinkTest, HopCapacityBoundsRetainedRecords) {
  ManualClock clock(0);
  TraceSink sink(&clock, 16);
  HopRecord hop;
  hop.msg_id = 1;
  for (int i = 0; i < 1000; ++i) sink.RecordHop(hop);
  EXPECT_GT(sink.hops_dropped(), 0u);
  EXPECT_LE(sink.DrainHops().size(), 16u);
}
#endif  // DECO_TRACE_ENABLED

TEST(TraceSinkTest, PhaseNamesAreStable) {
  EXPECT_EQ(TracePhaseToString(TracePhase::kWindowOpen), "window-open");
  EXPECT_EQ(TracePhaseToString(TracePhase::kPartialReceived),
            "partial-received");
  EXPECT_EQ(TracePhaseToString(TracePhase::kAssemble), "assemble");
  EXPECT_EQ(TracePhaseToString(TracePhase::kCorrect), "correct");
  EXPECT_EQ(TracePhaseToString(TracePhase::kEmit), "emit");
}

// ----------------------------------------------------------------- Sampler

TEST(SamplerTest, StartStopYieldsAtLeastTwoSamples) {
  MetricRegistry registry;
  registry.counter("x")->Add(1);
  Sampler sampler(SystemClock::Default(), nullptr, &registry,
                  5 * kNanosPerMilli);
  sampler.Start();
  sampler.Stop();
  const std::vector<TelemetrySample> samples = sampler.Samples();
  ASSERT_GE(samples.size(), 2u);
  ASSERT_EQ(samples.front().metrics.counters.size(), 1u);
  EXPECT_EQ(samples.front().metrics.counters[0].second, 1);
  EXPECT_LE(samples.front().t_nanos, samples.back().t_nanos);
  sampler.Stop();  // idempotent
  EXPECT_EQ(sampler.sample_count(), samples.size());
}

TEST(SamplerTest, SamplesFabricQueuesAndTraffic) {
  Clock* clock = SystemClock::Default();
  NetworkFabric fabric(clock, 1);
  const NodeId a = fabric.RegisterNode("a");
  const NodeId b = fabric.RegisterNode("b");
  Message msg;
  msg.src = a;
  msg.dst = b;
  msg.type = MessageType::kEventBatch;
  msg.payload.assign(64, 0);
  ASSERT_TRUE(fabric.Send(std::move(msg)).ok());

  Sampler sampler(clock, &fabric, nullptr, kNanosPerMilli);
  const TelemetrySample sample = sampler.SampleNow();
  ASSERT_EQ(sample.nodes.size(), 2u);
  EXPECT_EQ(sample.nodes[0].name, "a");
  EXPECT_GT(sample.nodes[0].bytes_sent, 0u);
  EXPECT_EQ(sample.nodes[1].queue_depth, 1u);
  EXPECT_GT(sample.nodes[1].bytes_received, 0u);
}

// ------------------------------------------------------------------ Export

TelemetryLog MakeLog() {
  TelemetryLog log;
  TelemetrySample s0;
  s0.t_nanos = 1'000'000'000;
  s0.metrics.counters = {{"root.events_emitted", 0}};
  NodeSample n0;
  n0.node = 0;
  n0.name = "root";
  n0.bytes_sent = 0;
  s0.nodes.push_back(n0);
  TelemetrySample s1 = s0;
  s1.t_nanos = 2'000'000'000;
  s1.metrics.counters = {{"root.events_emitted", 500}};
  s1.nodes[0].bytes_sent = 1000;
  s1.nodes[0].queue_depth = 3;
  log.samples = {s0, s1};
  TraceEvent span;
  span.t_nanos = 1'500'000'000;
  span.node = 0;
  span.phase = TracePhase::kEmit;
  span.window_index = 4;
  span.value = 100;
  log.spans = {span};
  return log;
}

TEST(ExportTest, JsonContainsDerivedRatesAndSpans) {
  RunReport report;
  report.scheme = "deco-async";
  report.events_processed = 500;
  const std::string json = TelemetryToJson(report, MakeLog());
  EXPECT_NE(json.find("\"schema_version\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"scheme\": \"deco-async\""), std::string::npos);
  // v4: the provenance sections are always present, empty when the run
  // collected none.
  EXPECT_NE(json.find("\"provenance_summary\""), std::string::npos);
  EXPECT_NE(json.find("\"provenance\""), std::string::npos);
  // v5: the multi-query serving sections are always present, disabled
  // and empty for single-query runs.
  EXPECT_NE(json.find("\"serving\""), std::string::npos);
  EXPECT_NE(json.find("\"queries\""), std::string::npos);
  // Second sample: 500 events over 1 s and 1000 bytes over 1 s.
  EXPECT_NE(json.find("\"events_per_sec\": 500"), std::string::npos);
  EXPECT_NE(json.find("\"bytes_per_sec\": 1000"), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"phase\": \"emit\""), std::string::npos);
  EXPECT_NE(json.find("\"window\": 4"), std::string::npos);
}

TEST(ExportTest, FirstSampleRatesAreNullNotZero) {
  // Schema v2: the first snapshot has no interval to rate over, so its
  // derived rates must be absent (JSON null), not a misleading 0.
  RunReport report;
  const std::string json = TelemetryToJson(report, MakeLog());
  EXPECT_NE(json.find("\"events_per_sec\": null"), std::string::npos);
  EXPECT_NE(json.find("\"bytes_per_sec\": null"), std::string::npos);
}

TEST(ExportTest, SchemaV3KeepsV1AndV2Fields) {
  // Backward compatibility: every v1/v2 consumer key survives the v3 bump,
  // and the new cpu_breakdown section is always present.
  RunReport report;
  report.scheme = "deco-sync";
  const std::string json = TelemetryToJson(report, MakeLog());
  for (const char* key :
       {"\"scheme\"", "\"report\"", "\"events_processed\"",
        "\"wall_seconds\"", "\"samples\"", "\"counters\"", "\"gauges\"",
        "\"histograms\"", "\"nodes\"", "\"spans\"", "\"spans_dropped\"",
        "\"queue_depth\"", "\"messages_sent\"", "\"bytes_sent\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing v1 key " << key;
  }
  for (const char* key :
       {"\"hop_count\"", "\"hops_dropped\"", "\"latency_breakdown\"",
        "\"sent_by_type\"", "\"msg_id\"", "\"emit_spans\"",
        "\"windows_attributed\"", "\"unattributed\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing v2 key " << key;
  }
  for (const char* key : {"\"cpu_breakdown\"", "\"alloc_counted\"",
                          "\"threads\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing v3 key " << key;
  }
}

TEST(ExportTest, SchemaV3ParsesWithV2Reader) {
  // A v2-era consumer reads the document by scanning for its known
  // `"key": value` pairs and ignoring unknown keys (the pattern
  // tools/check_perfetto_trace.py and the CI smoke test use). Simulate
  // one: every v2 extraction against a v3 document must still find its key
  // exactly once at top level and parse the value that follows.
  RunReport report;
  report.scheme = "deco-async";
  report.events_processed = 500;
  report.windows_emitted = 7;
  const std::string json = TelemetryToJson(report, MakeLog());

  const auto v2_read_uint = [&](const std::string& key) -> long long {
    const std::string needle = "\"" + key + "\": ";
    const size_t pos = json.find(needle);
    EXPECT_NE(pos, std::string::npos) << "v2 reader lost key " << key;
    if (pos == std::string::npos) return -1;
    return std::stoll(json.substr(pos + needle.size()));
  };
  EXPECT_EQ(v2_read_uint("events_processed"), 500);
  EXPECT_EQ(v2_read_uint("windows_emitted"), 7);
  EXPECT_EQ(v2_read_uint("spans_dropped"), 0);
  EXPECT_EQ(v2_read_uint("hop_count"), 0);

  // The unprofiled default must be inert-but-present: a v3 reader needs no
  // existence check, and a v2 reader sees only an unknown key.
  EXPECT_NE(json.find("\"cpu_breakdown\": {\"enabled\":false,"
                      "\"alloc_counted\":false,\"threads\":[]}"),
            std::string::npos);
}

TEST(ExportTest, JsonReportsPerTypeTraffic) {
  TelemetryLog log = MakeLog();
  NodeSample& node = log.samples[1].nodes[0];
  node.messages_sent_by_type[static_cast<size_t>(
      MessageType::kPartialResult)] = 3;
  node.bytes_sent_by_type[static_cast<size_t>(
      MessageType::kPartialResult)] = 321;
  const std::string json = TelemetryToJson(RunReport{}, log);
  EXPECT_NE(json.find("\"partial-result\": {\"messages\": 3, "
                      "\"bytes\": 321}"),
            std::string::npos);
}

TEST(ExportTest, EmptyLogIsStillWellFormed) {
  RunReport report;
  report.scheme = "central";
  const std::string json = TelemetryToJson(report, TelemetryLog{});
  EXPECT_NE(json.find("\"samples\": []"), std::string::npos);
  EXPECT_NE(json.find("\"spans\": []"), std::string::npos);
  EXPECT_NE(json.find("\"spans_dropped\": 0"), std::string::npos);
}

TEST(ExportTest, UnwritablePathIsIOError) {
  RunReport report;
  const Status status = WriteTelemetryJson(
      "/nonexistent-dir/telemetry.json", report, TelemetryLog{});
  EXPECT_TRUE(status.IsIOError());
}

TEST(ExportTest, MetricNamesAreEscaped) {
  RunReport report;
  report.scheme = "a\"b\\c";
  const std::string json = TelemetryToJson(report, TelemetryLog{});
  EXPECT_NE(json.find("\"a\\\"b\\\\c\""), std::string::npos);
}

// ----------------------------------------------------------- CriticalPath

TraceEvent MakeSpan(TimeNanos t, NodeId node, TracePhase phase,
                    uint64_t window, uint64_t msg_id = 0) {
  TraceEvent span;
  span.t_nanos = t;
  span.node = node;
  span.phase = phase;
  span.window_index = window;
  span.msg_id = msg_id;
  return span;
}

HopRecord MakeHop(uint64_t msg_id, MessageType type, NodeId src, NodeId dst,
                  uint64_t window, TimeNanos enqueue, TimeNanos shaping,
                  TimeNanos deliver, TimeNanos dequeue) {
  HopRecord hop;
  hop.msg_id = msg_id;
  hop.type = type;
  hop.src = src;
  hop.dst = dst;
  hop.window_index = window;
  hop.enqueue_nanos = enqueue;
  hop.shaping_delay_nanos = shaping;
  hop.deliver_nanos = deliver;
  hop.dequeue_nanos = dequeue;
  return hop;
}

TEST(CriticalPathTest, ExactMatchTelescopesToTotal) {
  // Local node 1 opens window 3 at t=1000 and ships the critical partial at
  // t=5000; the root emits at t=7000. Every gap lands in its component and
  // the components sum exactly to emit - open.
  TelemetryLog log;
  log.spans = {MakeSpan(1000, 1, TracePhase::kWindowOpen, 3),
               MakeSpan(7000, 0, TracePhase::kEmit, 3, /*msg_id=*/42)};
  log.hops = {MakeHop(42, MessageType::kPartialResult, 1, 0, 3,
                      /*enqueue=*/5000, /*shaping=*/200, /*deliver=*/6000,
                      /*dequeue=*/6500)};

  const LatencyAttribution a = AttributeWindowLatency(log);
  EXPECT_EQ(a.emit_spans, 1u);
  EXPECT_EQ(a.unattributed, 0u);
  ASSERT_EQ(a.windows.size(), 1u);
  const WindowAttribution& w = a.windows[0];
  EXPECT_TRUE(w.exact);
  EXPECT_FALSE(w.corrected);
  EXPECT_EQ(w.critical_src, 1u);
  EXPECT_EQ(w.msg_id, 42u);
  const LatencyComponents& c = w.components;
  EXPECT_DOUBLE_EQ(c.local_compute_nanos, 4000.0);  // 1000 -> 5000
  EXPECT_DOUBLE_EQ(c.correction_nanos, 0.0);
  EXPECT_DOUBLE_EQ(c.shaping_nanos, 200.0);      // 5000 -> 5200
  EXPECT_DOUBLE_EQ(c.link_nanos, 800.0);         // 5200 -> 6000
  EXPECT_DOUBLE_EQ(c.queue_nanos, 500.0);        // 6000 -> 6500
  EXPECT_DOUBLE_EQ(c.root_merge_nanos, 500.0);   // 6500 -> 7000
  EXPECT_DOUBLE_EQ(c.total_nanos, 6000.0);       // 1000 -> 7000
  EXPECT_DOUBLE_EQ(c.local_compute_nanos + c.correction_nanos +
                       c.shaping_nanos + c.link_nanos + c.queue_nanos +
                       c.root_merge_nanos,
                   c.total_nanos);
}

TEST(CriticalPathTest, CorrectionResultChargesCorrectionComponent) {
  // The critical hop is a correction result: the interval since the root's
  // kCorrect span is the round-trip, charged to `correction`, not to the
  // source's local compute.
  TelemetryLog log;
  log.spans = {MakeSpan(1000, 2, TracePhase::kWindowOpen, 9),
               MakeSpan(4000, 0, TracePhase::kCorrect, 9),
               MakeSpan(9000, 0, TracePhase::kEmit, 9, /*msg_id=*/7)};
  log.hops = {MakeHop(7, MessageType::kCorrectionResult, 2, 0, 9,
                      /*enqueue=*/6000, /*shaping=*/0, /*deliver=*/7000,
                      /*dequeue=*/8000)};

  const LatencyAttribution a = AttributeWindowLatency(log);
  ASSERT_EQ(a.windows.size(), 1u);
  const WindowAttribution& w = a.windows[0];
  EXPECT_TRUE(w.corrected);
  const LatencyComponents& c = w.components;
  EXPECT_DOUBLE_EQ(c.correction_nanos, 2000.0);   // 4000 -> 6000
  EXPECT_DOUBLE_EQ(c.local_compute_nanos, 0.0);
  EXPECT_DOUBLE_EQ(c.link_nanos, 1000.0);         // 6000 -> 7000
  EXPECT_DOUBLE_EQ(c.queue_nanos, 1000.0);        // 7000 -> 8000
  EXPECT_DOUBLE_EQ(c.root_merge_nanos, 1000.0);   // 8000 -> 9000
  EXPECT_DOUBLE_EQ(c.total_nanos, 5000.0);        // 4000 -> 9000
}

TEST(CriticalPathTest, MissingMsgIdFallsBackToLatestArrival) {
  // An emit span without a causal id (e.g. a baseline without the plumbing)
  // is matched to the last message the emitting node dequeued before it.
  TelemetryLog log;
  log.spans = {MakeSpan(9000, 0, TracePhase::kEmit, 1)};
  log.hops = {MakeHop(5, MessageType::kEventBatch, 1, 0, 1, 1000, 0, 2000,
                      3000),
              MakeHop(6, MessageType::kEventBatch, 2, 0, 1, 4000, 0, 5000,
                      6000)};

  const LatencyAttribution a = AttributeWindowLatency(log);
  ASSERT_EQ(a.windows.size(), 1u);
  EXPECT_FALSE(a.windows[0].exact);
  EXPECT_EQ(a.windows[0].msg_id, 0u);
  EXPECT_EQ(a.windows[0].critical_src, 2u);  // hop 6 arrived last
  // No window-open span: anchored at the hop's enqueue.
  EXPECT_DOUBLE_EQ(a.windows[0].components.local_compute_nanos, 0.0);
  EXPECT_DOUBLE_EQ(a.windows[0].components.total_nanos, 5000.0);
}

TEST(CriticalPathTest, EmitWithoutHopsIsUnattributed) {
  TelemetryLog log;
  log.spans = {MakeSpan(9000, 0, TracePhase::kEmit, 0)};
  const LatencyAttribution a = AttributeWindowLatency(log);
  EXPECT_EQ(a.emit_spans, 1u);
  EXPECT_EQ(a.unattributed, 1u);
  EXPECT_TRUE(a.windows.empty());
}

TEST(CriticalPathTest, FormatMentionsEveryComponent) {
  TelemetryLog log;
  log.spans = {MakeSpan(1000, 1, TracePhase::kWindowOpen, 0),
               MakeSpan(5000, 0, TracePhase::kEmit, 0, 1)};
  log.hops = {MakeHop(1, MessageType::kPartialResult, 1, 0, 0, 2000, 0,
                      3000, 4000)};
  const std::string text =
      FormatLatencyBreakdown(AttributeWindowLatency(log));
  for (const char* name : {"local_compute", "correction", "shaping", "link",
                           "queue", "root_merge", "mean_total"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

// --------------------------------------------------------- PerfettoExport

TEST(PerfettoExportTest, EmitsChromeTraceEventStructure) {
  TelemetryLog log = MakeLog();
  log.spans.push_back(
      MakeSpan(1'600'000'000, 0, TracePhase::kWindowOpen, 4));
  log.hops = {MakeHop(3, MessageType::kPartialResult, 0, 0, 4,
                      1'400'000'000, 0, 1'450'000'000, 1'500'000'000)};
  const std::string json = PerfettoTraceJson(log);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One process (track) per node, named from the sampler's node table.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"root\""), std::string::npos);
  // Window lifetimes and hops are async begin/end pairs; spans instants.
  EXPECT_NE(json.find("\"ph\": \"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"window\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"net\""), std::string::npos);
}

TEST(PerfettoExportTest, WritesLoadableFile) {
  const std::string path = ::testing::TempDir() + "/obs_test.trace.json";
  ASSERT_TRUE(WritePerfettoTrace(path, MakeLog()).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_TRUE(
      WritePerfettoTrace("/nonexistent-dir/t.json", MakeLog()).IsIOError());
}

}  // namespace
}  // namespace deco
