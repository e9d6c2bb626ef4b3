#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "metrics/report.h"
#include "obs/profiler.h"

namespace deco {
namespace {

// Unit and integration tests of the in-run CPU/alloc profiler
// (src/obs/profiler.h): handler attribution sums to the thread's CPU
// total within tolerance, nothing is recorded when the profiler is off,
// and the harness surfaces the profile in RunReport.

/// Burns thread CPU until at least `nanos` of CLOCK_THREAD_CPUTIME_ID have
/// elapsed; returns an unusable value so the loop can't be optimized out.
volatile uint64_t g_burn_sink = 0;
void BurnCpu(TimeNanos nanos) {
  const TimeNanos until = ThreadCpuNanos() + nanos;
  uint64_t acc = g_burn_sink;
  while (ThreadCpuNanos() < until) {
    for (int i = 0; i < 1000; ++i) acc = acc * 1664525u + 1013904223u;
  }
  g_burn_sink = acc;
}

TEST(ProfilerTest, HandlerAttributionSumsToThreadCpu) {
  Profiler profiler(/*count_allocs=*/false);
  Profiler::ThreadSlot* slot = profiler.RegisterThread("worker");
  ASSERT_NE(slot, nullptr);

  // Two handler classes doing real work, a little unattributed work
  // outside any handler.
  constexpr TimeNanos kBurn = 3 * kNanosPerMilli;
  slot->HandlerBegin(MessageType::kEventBatch);
  BurnCpu(kBurn);
  slot->HandlerEnd();
  slot->HandlerBegin(MessageType::kPartialResult);
  BurnCpu(kBurn);
  slot->HandlerEnd();
  BurnCpu(kBurn / 4);  // outside a handler: counts to the thread only
  slot->Finish();

  const ProfileReport report = profiler.Collect();
  ASSERT_EQ(report.threads.size(), 1u);
  const ThreadProfile& t = report.threads[0];
  EXPECT_EQ(t.name, "worker");
  EXPECT_EQ(t.messages_handled, 2u);
  ASSERT_EQ(t.handlers.size(), 2u);
  EXPECT_EQ(t.handlers[0].type, MessageType::kEventBatch);
  EXPECT_EQ(t.handlers[1].type, MessageType::kPartialResult);

  uint64_t handler_cpu = 0;
  for (const HandlerProfile& h : t.handlers) {
    EXPECT_EQ(h.count, 1u);
    EXPECT_GE(h.cpu_nanos, static_cast<uint64_t>(kBurn));
    EXPECT_GE(h.wall_nanos, h.cpu_nanos / 2);  // wall >= cpu, roughly
    handler_cpu += h.cpu_nanos;
  }
  // The handler split never exceeds the thread total, and here (handlers
  // doing ~90% of the work) it must account for most of it.
  EXPECT_LE(handler_cpu, t.cpu_nanos);
  EXPECT_GE(static_cast<double>(handler_cpu),
            0.5 * static_cast<double>(t.cpu_nanos));
}

TEST(ProfilerTest, OpenHandlerIsClosedByFinish) {
  Profiler profiler(/*count_allocs=*/false);
  Profiler::ThreadSlot* slot = profiler.RegisterThread("worker");
  slot->HandlerBegin(MessageType::kStartWindow);
  BurnCpu(kNanosPerMilli);
  slot->Finish();  // no HandlerEnd: Finish must close the interval

  const ProfileReport report = profiler.Collect();
  ASSERT_EQ(report.threads.size(), 1u);
  ASSERT_EQ(report.threads[0].handlers.size(), 1u);
  EXPECT_EQ(report.threads[0].handlers[0].type, MessageType::kStartWindow);
  EXPECT_GE(report.threads[0].handlers[0].cpu_nanos,
            static_cast<uint64_t>(kNanosPerMilli) / 2);
}

TEST(ProfilerTest, HandlerEndWithoutBeginIsNoOp) {
  Profiler profiler(/*count_allocs=*/false);
  Profiler::ThreadSlot* slot = profiler.RegisterThread("worker");
  slot->HandlerEnd();  // receive re-entry with nothing dequeued yet
  slot->Finish();
  const ProfileReport report = profiler.Collect();
  ASSERT_EQ(report.threads.size(), 1u);
  EXPECT_EQ(report.threads[0].messages_handled, 0u);
  EXPECT_TRUE(report.threads[0].handlers.empty());
}

TEST(ProfilerTest, AllocCountersTrackNewWhileAnyHoldIsLive) {
  if (!AllocCountingCompiledIn()) {
    GTEST_SKIP() << "built with DECO_PROFILE_ALLOC=OFF";
  }
  // Two runs ask for counting; the first to finish must not switch it
  // off under the other.
  RetainAllocCounting();
  RetainAllocCounting();
  ReleaseAllocCounting();
  const AllocCounters before = ThreadAllocCounters();
  {
    auto block = std::make_unique<std::vector<char>>(1 << 16);
    ASSERT_NE(block, nullptr);
  }
  const AllocCounters during = ThreadAllocCounters();
  ReleaseAllocCounting();
  EXPECT_GT(during.count, before.count);
  EXPECT_GE(during.bytes, before.bytes + (1u << 16));

  // No hold left: further allocations leave the counters untouched.
  const AllocCounters after_off = ThreadAllocCounters();
  auto more = std::make_unique<std::vector<char>>(1 << 12);
  ASSERT_NE(more, nullptr);
  const AllocCounters still = ThreadAllocCounters();
  EXPECT_EQ(still.count, after_off.count);
  EXPECT_EQ(still.bytes, after_off.bytes);
}

ExperimentConfig SmallConfig(Scheme scheme) {
  ExperimentConfig config;
  config.scheme = scheme;
  config.query.window = WindowSpec::CountTumbling(2000);
  config.query.aggregate = AggregateKind::kSum;
  config.num_locals = 2;
  config.streams_per_local = 2;
  config.events_per_local = 20'000;
  config.base_rate = 50'000;
  config.rate_change = 0.05;
  config.batch_size = 512;
  config.seed = 1234;
  return config;
}

TEST(ProfilerHarnessTest, DisabledRunRecordsNoSamples) {
  auto result = RunExperiment(SmallConfig(Scheme::kDecoAsync));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->profile.enabled);
  EXPECT_FALSE(result->profile.alloc_counted);
  EXPECT_TRUE(result->profile.threads.empty());
  EXPECT_EQ(result->profile.TotalCpuNanos(), 0u);
}

TEST(ProfilerHarnessTest, EnabledRunAttributesEveryActorThread) {
  ExperimentConfig config = SmallConfig(Scheme::kDecoAsync);
  config.profile.enabled = true;
  auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const ProfileReport& profile = result->profile;
  EXPECT_TRUE(profile.enabled);
  // One slot per actor: root + 2 locals.
  ASSERT_EQ(profile.threads.size(), 3u);
  bool saw_root = false;
  for (const ThreadProfile& t : profile.threads) {
    if (t.name == "root") saw_root = true;
    // Handler counts must sum to the thread's dispatch total, and the
    // handler CPU split can never exceed the thread's CPU total.
    uint64_t count = 0, cpu = 0;
    for (const HandlerProfile& h : t.handlers) {
      count += h.count;
      cpu += h.cpu_nanos;
    }
    EXPECT_EQ(count, t.messages_handled) << t.name;
    EXPECT_LE(cpu, t.cpu_nanos) << t.name;
  }
  EXPECT_TRUE(saw_root);
  // The root merges every partial: it must have dispatched messages and
  // burned measurable CPU.
  EXPECT_GT(profile.TotalCpuNanos(), 0u);
  if (AllocCountingCompiledIn()) {
    EXPECT_TRUE(profile.alloc_counted);
    EXPECT_GT(profile.TotalAllocations(), 0u);
  }
}

TEST(ProfilerHarnessTest, ProfileSurfacesInRunReportJson) {
  ExperimentConfig config = SmallConfig(Scheme::kCentral);
  config.profile.enabled = true;
  config.profile.count_allocs = false;
  auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string json = RunReportJson(*result);
  EXPECT_NE(json.find("\"profile\":{\"enabled\":true"), std::string::npos)
      << json.substr(0, 200);
  EXPECT_NE(json.find("\"cpu_nanos\""), std::string::npos);
}

}  // namespace
}  // namespace deco
