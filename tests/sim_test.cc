#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/queue.h"
#include "event/serde.h"
#include "harness/experiment.h"
#include "metrics/report.h"
#include "node/stream_set.h"
#include "sim/scheduler.h"

namespace deco {
namespace {

// Unit tests of the deterministic simulation scheduler (DESIGN.md §8) plus
// the harness-level determinism regression: byte-identical reports from
// identical (config, seed), diverging message orders across seeds.

TEST(SimSchedulerTest, VirtualSleepAdvancesClockWithoutWallTime) {
  SimScheduler sched(1);
  const SimTaskId id = sched.AddTask("sleeper");
  std::thread t([&] {
    sched.TaskMain(id, [&] {
      sched.SleepFor(5 * kNanosPerSecond);  // five virtual seconds
    });
  });
  EXPECT_TRUE(sched.RunUntilTaskDone(id).ok());
  t.join();
  EXPECT_EQ(sched.Now(), 5 * kNanosPerSecond);
}

TEST(SimSchedulerTest, TimerEventsFireInTimeThenScheduleOrder) {
  SimScheduler sched(1);
  std::vector<int> fired;
  const SimTaskId id = sched.AddTask("waiter");
  std::thread t([&] {
    sched.TaskMain(id, [&] { sched.SleepFor(100); });
  });
  sched.ScheduleAt(50, [&] { fired.push_back(2); });
  sched.ScheduleAt(10, [&] { fired.push_back(1); });
  sched.ScheduleAt(50, [&] { fired.push_back(3); });  // tie: schedule order
  EXPECT_TRUE(sched.RunUntilTaskDone(id).ok());
  t.join();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(SimSchedulerTest, DeadlockIsDetectedAndNamed) {
  SimScheduler sched(1);
  std::atomic<bool> release{false};
  const SimTaskId id = sched.AddTask("stuck-task");
  std::thread t([&] {
    sched.TaskMain(id, [&] {
      sched.WaitUntil([&] { return release.load(); }, TimeNanos{-1});
    });
  });
  const Status status = sched.RunUntilTaskDone(id);
  EXPECT_TRUE(status.IsInternal());
  EXPECT_NE(status.ToString().find("stuck-task"), std::string::npos)
      << status.ToString();
  release.store(true);  // unblock so the scheduler can wind down
  EXPECT_TRUE(sched.DrainAll().ok());
  t.join();
}

TEST(SimSchedulerTest, VirtualTimeLimitAborts) {
  SimScheduler sched(1);
  sched.SetVirtualTimeLimit(kNanosPerSecond);
  const SimTaskId id = sched.AddTask("long-sleeper");
  std::thread t([&] {
    sched.TaskMain(id, [&] { sched.SleepFor(10 * kNanosPerSecond); });
  });
  EXPECT_TRUE(sched.RunUntilTaskDone(id).IsTimeout());
  sched.SetVirtualTimeLimit(0);
  EXPECT_TRUE(sched.DrainAll().ok());
  t.join();
}

TEST(SimSchedulerTest, PopHonorsVirtualDeadlineAndClose) {
  SimScheduler sched(1);
  BlockingQueue<int> queue;
  std::optional<int> timed_out_value = 42;
  std::optional<int> delivered_value;
  const SimTaskId id = sched.AddTask("popper");
  std::thread t([&] {
    sched.TaskMain(id, [&] {
      // Nothing arrives before the deadline: returns nullopt at t=1000.
      timed_out_value = sched.Pop(&queue, TimeNanos{1000});
      // An event delivers an item at t=2000: Pop returns it.
      delivered_value = sched.Pop(&queue, TimeNanos{5000});
    });
  });
  sched.ScheduleAt(2000, [&] { queue.Push(7); });
  EXPECT_TRUE(sched.RunUntilTaskDone(id).ok());
  t.join();
  EXPECT_FALSE(timed_out_value.has_value());
  ASSERT_TRUE(delivered_value.has_value());
  EXPECT_EQ(*delivered_value, 7);
  EXPECT_EQ(sched.Now(), 2000);
}

TEST(SimSchedulerTest, InterleavingIsAPureFunctionOfSeed) {
  // Two yield-looping tasks: the grant sequence is the scheduler's seeded
  // choice alone. Same seed => identical sequence; different seed =>
  // different sequence (64 binary picks cannot all collide).
  const auto run = [](uint64_t seed) {
    SimScheduler sched(seed);
    std::vector<SimTaskId> order;
    std::mutex order_mu;
    std::vector<std::thread> threads;
    for (SimTaskId i = 0; i < 2; ++i) {
      const SimTaskId id = sched.AddTask("task-" + std::to_string(i));
      threads.emplace_back([&sched, &order, &order_mu, id] {
        sched.TaskMain(id, [&] {
          for (int k = 0; k < 32; ++k) {
            {
              std::lock_guard<std::mutex> lock(order_mu);
              order.push_back(id);
            }
            sched.Yield();
          }
        });
      });
    }
    EXPECT_TRUE(sched.DrainAll().ok());
    for (auto& t : threads) t.join();
    return order;
  };
  const auto a = run(7);
  const auto b = run(7);
  const auto c = run(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// Folds every resumption (who, virtual time) of a mixed workload into one
// digest: a yielder, a sleeper, a mailbox popper fed by timer deliveries,
// and a task that schedules those deliveries between sleeps. Any change to
// which task a hand-off grants, or when, moves the digest.
uint64_t MixedGrantDigest(uint64_t seed) {
  SimScheduler sched(seed);
  std::mutex mu;
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto record = [&](uint64_t who) {
    std::lock_guard<std::mutex> lock(mu);
    for (const uint64_t word : {who, static_cast<uint64_t>(sched.Now())}) {
      h = (h ^ word) * 0x100000001b3ULL;
      h ^= h >> 29;
    }
  };
  BlockingQueue<int> mail;
  std::vector<std::function<void()>> bodies;
  bodies.push_back([&] {  // yielder
    for (int k = 0; k < 40; ++k) {
      record(0);
      sched.Yield();
    }
  });
  bodies.push_back([&] {  // sleeper
    for (int k = 0; k < 20; ++k) {
      record(1);
      sched.SleepFor(3 + 7 * (k % 4));
    }
  });
  bodies.push_back([&] {  // popper
    while (std::optional<int> item = sched.Pop(&mail, sched.Now() + 25)) {
      record(200 + static_cast<uint64_t>(*item));
    }
    record(2);
    while (std::optional<int> item = sched.Pop(&mail, TimeNanos{-1})) {
      record(200 + static_cast<uint64_t>(*item));
    }
  });
  bodies.push_back([&] {  // deliverer
    for (int k = 0; k < 30; ++k) {
      record(3);
      sched.ScheduleAt(sched.Now() + 5 * (k % 3), [&mail, &record, k] {
        record(100);
        mail.Push(k);
      });
      if (k % 2 == 0) {
        sched.Yield();
      } else {
        sched.SleepFor(4);
      }
    }
    sched.ScheduleAt(sched.Now() + 50, [&mail] { mail.Close(); });
  });
  std::vector<std::thread> threads;
  for (size_t i = 0; i < bodies.size(); ++i) {
    const SimTaskId id = sched.AddTask("task-" + std::to_string(i));
    threads.emplace_back([&sched, &bodies, i, id] {
      sched.TaskMain(id, bodies[i]);
    });
  }
  EXPECT_TRUE(sched.DrainAll().ok());
  for (auto& t : threads) t.join();
  record(sched.steps());
  return h;
}

// Pins the grant sequence against recorded constants, so a change to the
// hand-off mechanics that reorders grants fails here even though two runs
// of one binary would still agree with each other.
TEST(SimSchedulerTest, GrantSequenceIsPinned) {
  EXPECT_EQ(MixedGrantDigest(7), MixedGrantDigest(7));
  EXPECT_EQ(MixedGrantDigest(7), 0x8b4b2b099b693003ULL);
  EXPECT_EQ(MixedGrantDigest(8), 0xaa9f8872048e82a5ULL);
}

// 32 tasks pass 4 tokens around a ring of mailboxes, so most tasks sit
// parked at any moment while grants hop between them.
TEST(SimSchedulerTest, RingOfParkedTasksPassesTokens) {
  constexpr size_t kTasks = 32;
  constexpr int kTokens = 4;
  constexpr int kHops = 200;
  const auto run = [&](uint64_t seed) {
    SimScheduler sched(seed);
    std::vector<BlockingQueue<int>> mail(kTasks);
    std::mutex mu;
    std::vector<size_t> order;
    int retired = 0;
    for (int t = 0; t < kTokens; ++t) mail[t * kTasks / kTokens].Push(0);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kTasks; ++i) {
      const SimTaskId id = sched.AddTask("ring-" + std::to_string(i));
      threads.emplace_back([&, i, id] {
        sched.TaskMain(id, [&, i] {
          while (std::optional<int> hops = sched.Pop(&mail[i], -1)) {
            bool last = false;
            bool yield = false;
            {
              std::lock_guard<std::mutex> lock(mu);
              order.push_back(i);
              last = *hops + 1 == kHops && ++retired == kTokens;
              yield = order.size() % 3 == 0;
            }
            if (*hops + 1 < kHops) {
              mail[(i + 1) % kTasks].Push(*hops + 1);
            } else if (last) {
              for (auto& queue : mail) queue.Close();
            }
            if (yield) sched.Yield();
          }
        });
      });
    }
    EXPECT_TRUE(sched.DrainAll().ok());
    for (auto& t : threads) t.join();
    return order;
  };
  const std::vector<size_t> a = run(5);
  EXPECT_EQ(a.size(), static_cast<size_t>(kTokens * kHops));
  EXPECT_EQ(a, run(5));
  EXPECT_NE(a, run(6));
}

ExperimentConfig SimConfig(uint64_t seed) {
  ExperimentConfig config;
  config.sim = true;
  config.scheme = Scheme::kDecoSync;
  config.query.window = WindowSpec::CountTumbling(2000);
  config.num_locals = 3;
  config.streams_per_local = 2;
  config.events_per_local = 30'000;
  config.base_rate = 50'000;
  config.rate_change = 0.05;
  config.batch_size = 512;
  config.seed = seed;
  return config;
}

TEST(SimDeterminismTest, SameSeedReplaysByteIdentically) {
  // ISSUE 4 satellite: the full RunReport JSON — window values, latency
  // histogram, fabric byte counters, the delivery-order hash — must be
  // byte-identical across two runs of the same (config, seed).
  auto first = RunExperiment(SimConfig(1234));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = RunExperiment(SimConfig(1234));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(first->delivery_hash, 0u);
  EXPECT_EQ(first->delivery_hash, second->delivery_hash);
  EXPECT_EQ(first->network.total_bytes, second->network.total_bytes);
  EXPECT_EQ(first->network.total_messages, second->network.total_messages);
  EXPECT_EQ(RunReportJson(*first), RunReportJson(*second));
}

TEST(SimDeterminismTest, DifferentSeedsProduceDifferentMessageOrders) {
  auto a = RunExperiment(SimConfig(1234));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = RunExperiment(SimConfig(4321));
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_NE(a->delivery_hash, b->delivery_hash);
  EXPECT_NE(RunReportJson(*a), RunReportJson(*b));
}

// SimConfig paced so faults land mid-stream, crashing local-1 at 200 ms
// and restarting it at `restart`.
ExperimentConfig ChaosSimConfig(const std::string& restart) {
  auto config = SimConfig(99);
  config.cpu_events_per_sec = 20'000;
  config.root_options.node_timeout_nanos = 120 * kNanosPerMilli;
  auto schedule =
      ChaosSchedule::Parse("crash:local-1@200ms,restart:local-1@" + restart);
  EXPECT_TRUE(schedule.ok());
  if (schedule.ok()) config.chaos.schedule = *schedule;
  return config;
}

TEST(SimDeterminismTest, ChaosScheduleReplaysByteIdentically) {
  // Chaos actions become timer events on the same queue, so a faulty run
  // replays exactly too — including the membership timeline. The restart
  // lands mid-stream, so local-1 is removed and then re-admitted.
  const auto config = ChaosSimConfig("400ms");
  auto first = RunExperiment(config);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = RunExperiment(config);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_GE(first->membership.size(), 2u)
      << "crash/restart did not produce membership churn";
  EXPECT_EQ(RunReportJson(*first), RunReportJson(*second));
}

TEST(SimDeterminismTest, RestartAsTheRunEndsDoesNotFailIt) {
  // The restart lands on the virtual instant the survivors finish, so the
  // revived local's kRejoin meets a fabric that has already shut down.
  // That ends the run for it; it is not an error.
  auto report = RunExperiment(ChaosSimConfig("500ms"));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->windows_emitted, 0u);
}

TEST(SimPropertyTest, DecoTrafficDoesNotDependOnIngestBatch) {
  // Ingest pulls stop at the region boundary and a correction ships a
  // solicited prefix, so a local retains and ships the same events
  // whatever the batch: the bytes, messages and corrections of a Deco run
  // must not move with `--batch`, even when the batch dwarfs the 500-event
  // local window.
  for (Scheme scheme : {Scheme::kDecoSync, Scheme::kDecoAsync}) {
    std::vector<RunReport> reports;
    for (size_t batch : {512, 8192}) {
      ExperimentConfig config;
      config.sim = true;
      config.scheme = scheme;
      config.query.window = WindowSpec::CountTumbling(4000);
      config.num_locals = 8;
      config.events_per_local = 100'000;
      config.batch_size = batch;
      auto report = RunExperiment(config);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      reports.push_back(std::move(*report));
    }
    const std::string name = SchemeToString(scheme);
    EXPECT_GT(reports[0].windows_emitted, 0u) << name;
    EXPECT_EQ(reports[0].network.total_bytes, reports[1].network.total_bytes)
        << name;
    EXPECT_EQ(reports[0].network.total_messages,
              reports[1].network.total_messages)
        << name;
    EXPECT_EQ(reports[0].correction_steps, reports[1].correction_steps)
        << name;
  }
}

TEST(SimPropertyTest, CorrectionsShipOnlyWhatTheCutNeeds) {
  // A correction repairs the failed window in place: it asks only the
  // locals whose check failed, for the next events past what the root
  // holds or for one slice's raw events, instead of every local's share
  // plus slack. A fault-free run empties no window, not even its short
  // last one. Same shape as DecoTrafficDoesNotDependOnIngestBatch.
  for (Scheme scheme :
       {Scheme::kDecoSync, Scheme::kDecoMon, Scheme::kDecoAsync}) {
    ExperimentConfig config;
    config.sim = true;
    config.scheme = scheme;
    config.query.window = WindowSpec::CountTumbling(4000);
    config.num_locals = 8;
    config.events_per_local = 100'000;
    auto report = RunExperiment(config);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const std::string name = SchemeToString(scheme);
    ASSERT_GT(report->correction_steps, 0u) << name;
    EXPECT_EQ(report->corrections_repaired, report->correction_steps)
        << name;
    uint64_t bytes = 0;
    for (const NodeTrafficStats& node : report->network.per_node) {
      bytes += node.bytes_sent_by_type[static_cast<size_t>(
          MessageType::kCorrectionResult)];
    }
    // Below one local share per correction: 4000 / 8 consecutive events of
    // a local's streams, as the batch codec ships them.
    StreamSet streams(MakeIngestConfig(config, 0).streams);
    EventVec share;
    streams.NextBatch(4000 / 8, &share);
    BinaryWriter writer;
    writer.PutEvents(share);
    const uint64_t share_bytes = writer.size();
    EXPECT_LT(bytes, report->correction_steps * share_bytes)
        << name << ": " << report->correction_steps << " corrections, "
        << bytes << " B";
  }
}

TEST(SimPropertyTest, SlowSourcesKeepEveryLocalAlive) {
  // Each local needs 200 ms of virtual time to fill its 2,000-event share,
  // longer than the 120 ms failure timeout. Locals heartbeat while they
  // pull, so the root removes none of them and all 10 windows arrive.
  for (Scheme scheme :
       {Scheme::kDecoSync, Scheme::kDecoMon, Scheme::kDecoAsync}) {
    ExperimentConfig config;
    config.sim = true;
    config.scheme = scheme;
    config.seed = 123;
    config.query.window = WindowSpec::CountTumbling(6000);
    config.num_locals = 3;
    config.streams_per_local = 2;
    config.events_per_local = 20'000;
    config.cpu_events_per_sec = 10'000;
    config.base_rate = 10'000;
    config.batch_size = 128;
    config.root_options.node_timeout_nanos = 120 * kNanosPerMilli;
    auto report = RunExperiment(config);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const std::string name = SchemeToString(scheme);
    EXPECT_EQ(report->windows_emitted, 10u) << name;
    EXPECT_TRUE(report->membership.empty()) << name;
  }
}

TEST(SimDeterminismTest, SimClockOnlyMovesForward) {
  SimClock clock(100);
  EXPECT_EQ(clock.NowNanos(), 100);
  clock.AdvanceTo(50);  // past times are ignored
  EXPECT_EQ(clock.NowNanos(), 100);
  clock.AdvanceTo(200);
  EXPECT_EQ(clock.NowNanos(), 200);
}

}  // namespace
}  // namespace deco
