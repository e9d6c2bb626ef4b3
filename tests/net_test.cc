#include <gtest/gtest.h>

#include <thread>

#include "common/clock.h"
#include "net/fabric.h"
#include "net/message.h"
#include "net/shaping.h"
#include "sim/scheduler.h"

namespace deco {
namespace {

Message MakeMessage(NodeId src, NodeId dst, MessageType type,
                    size_t payload_bytes) {
  Message msg;
  msg.type = type;
  msg.src = src;
  msg.dst = dst;
  msg.payload.assign(payload_bytes, 'x');
  return msg;
}

// ------------------------------------------------------------ TokenBucket

TEST(TokenBucketTest, StartsFullAndDrains) {
  ManualClock clock(0);
  TokenBucket bucket(1000, &clock);
  EXPECT_EQ(bucket.AvailableTokens(), 1000u);
  EXPECT_TRUE(bucket.TryAcquire(600));
  EXPECT_FALSE(bucket.TryAcquire(600));
  EXPECT_TRUE(bucket.TryAcquire(400));
}

TEST(TokenBucketTest, RefillsWithTime) {
  ManualClock clock(0);
  TokenBucket bucket(1000, &clock);
  ASSERT_TRUE(bucket.TryAcquire(1000));
  EXPECT_FALSE(bucket.TryAcquire(1));
  clock.Advance(kNanosPerSecond / 2);  // half a second -> 500 tokens
  EXPECT_TRUE(bucket.TryAcquire(450));
  EXPECT_FALSE(bucket.TryAcquire(100));
}

TEST(TokenBucketTest, CapacityIsBounded) {
  ManualClock clock(0);
  TokenBucket bucket(100, &clock);
  clock.Advance(100 * kNanosPerSecond);  // a long idle period
  EXPECT_EQ(bucket.AvailableTokens(), 100u);  // capped at 1s worth
}

TEST(TokenBucketTest, AcquireBlockingPaysDebt) {
  // With the real clock: acquiring twice the rate must take ~1 second of
  // wall time in total; we use a small rate to keep the test fast but
  // meaningful.
  TokenBucket bucket(100'000, SystemClock::Default());
  bucket.AcquireBlocking(100'000);  // drains the initial burst
  const TimeNanos start = SystemClock::Default()->NowNanos();
  bucket.AcquireBlocking(20'000);  // must wait ~0.2 s
  const TimeNanos elapsed = SystemClock::Default()->NowNanos() - start;
  EXPECT_GT(elapsed, 120 * kNanosPerMilli);
}

// ---------------------------------------------------------------- Fabric

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : fabric_(SystemClock::Default(), 1) {
    a_ = fabric_.RegisterNode("a");
    b_ = fabric_.RegisterNode("b");
  }
  NetworkFabric fabric_;
  NodeId a_, b_;
};

TEST_F(FabricTest, RegistersDenseIds) {
  EXPECT_EQ(a_, 0u);
  EXPECT_EQ(b_, 1u);
  EXPECT_EQ(fabric_.node_count(), 2u);
  EXPECT_EQ(fabric_.node_name(a_), "a");
  EXPECT_EQ(fabric_.node_name(99), "<unknown>");
}

TEST_F(FabricTest, DeliversInFifoOrder) {
  for (int i = 0; i < 100; ++i) {
    Message msg = MakeMessage(a_, b_, MessageType::kPartialResult, 8);
    msg.window_index = i;
    ASSERT_TRUE(fabric_.Send(std::move(msg)).ok());
  }
  Mailbox* mailbox = fabric_.mailbox(b_);
  for (int i = 0; i < 100; ++i) {
    auto msg = mailbox->Pop();
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->window_index, static_cast<uint64_t>(i));
  }
}

TEST_F(FabricTest, AccountsBytesPerLinkAndNode) {
  const size_t kPayload = 100;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        fabric_.Send(MakeMessage(a_, b_, MessageType::kEventBatch, kPayload))
            .ok());
  }
  const size_t wire = kPayload + Message::kHeaderBytes;
  const LinkStats link = fabric_.link_stats(a_, b_);
  EXPECT_EQ(link.messages_sent, 5u);
  EXPECT_EQ(link.bytes_sent, 5 * wire);
  const NodeTrafficStats src = fabric_.node_stats(a_);
  EXPECT_EQ(src.bytes_sent, 5 * wire);
  EXPECT_EQ(src.messages_received, 0u);
  const NodeTrafficStats dst = fabric_.node_stats(b_);
  EXPECT_EQ(dst.bytes_received, 5 * wire);
  const NetworkStats stats = fabric_.Stats();
  EXPECT_EQ(stats.total_bytes, 5 * wire);
  EXPECT_EQ(stats.total_messages, 5u);
}

TEST_F(FabricTest, CountsTrafficPerMessageType) {
  ASSERT_TRUE(
      fabric_.Send(MakeMessage(a_, b_, MessageType::kEventBatch, 100)).ok());
  ASSERT_TRUE(
      fabric_.Send(MakeMessage(a_, b_, MessageType::kPartialResult, 10))
          .ok());
  ASSERT_TRUE(
      fabric_.Send(MakeMessage(a_, b_, MessageType::kPartialResult, 20))
          .ok());
  const NodeTrafficStats src = fabric_.node_stats(a_);
  const size_t batch = static_cast<size_t>(MessageType::kEventBatch);
  const size_t partial = static_cast<size_t>(MessageType::kPartialResult);
  EXPECT_EQ(src.messages_sent_by_type[batch], 1u);
  EXPECT_EQ(src.bytes_sent_by_type[batch], 100 + Message::kHeaderBytes);
  EXPECT_EQ(src.messages_sent_by_type[partial], 2u);
  EXPECT_EQ(src.bytes_sent_by_type[partial],
            30 + 2 * Message::kHeaderBytes);
  // The per-type split always sums to the untyped totals.
  uint64_t messages = 0, bytes = 0;
  for (size_t i = 0; i < kNumMessageTypes; ++i) {
    messages += src.messages_sent_by_type[i];
    bytes += src.bytes_sent_by_type[i];
  }
  EXPECT_EQ(messages, src.messages_sent);
  EXPECT_EQ(bytes, src.bytes_sent);

  fabric_.ResetStats();
  EXPECT_EQ(fabric_.node_stats(a_).messages_sent_by_type[batch], 0u);
  EXPECT_EQ(fabric_.node_stats(a_).bytes_sent_by_type[partial], 0u);
}

TEST_F(FabricTest, HopStampingDoesNotChangeByteAccounting) {
  // Causal tracing must be free on the wire: the hop record rides the
  // in-process Message struct and never counts toward WireSize, so the
  // byte accounting is identical with and without stamping.
  ASSERT_TRUE(
      fabric_.Send(MakeMessage(a_, b_, MessageType::kEventBatch, 64)).ok());
  const uint64_t plain_bytes = fabric_.node_stats(a_).bytes_sent;
  ASSERT_GT(plain_bytes, 0u);

  fabric_.ResetStats();
  fabric_.SetHopStamping(true);
  ASSERT_TRUE(
      fabric_.Send(MakeMessage(a_, b_, MessageType::kEventBatch, 64)).ok());
  EXPECT_EQ(fabric_.node_stats(a_).bytes_sent, plain_bytes);

  auto unstamped = fabric_.mailbox(b_)->Pop();
  auto stamped = fabric_.mailbox(b_)->Pop();
  ASSERT_TRUE(unstamped.has_value());
  ASSERT_TRUE(stamped.has_value());
  EXPECT_EQ(unstamped->WireSize(), stamped->WireSize());
  EXPECT_EQ(MessageCausalId(*unstamped), 0u);
#if DECO_TRACE_ENABLED
  // With stamping on, the fabric assigned a causal id and timestamps.
  EXPECT_NE(stamped->hop.msg_id, 0u);
  EXPECT_GT(stamped->hop.enqueue_nanos, 0);
  EXPECT_GE(stamped->hop.deliver_nanos, stamped->hop.enqueue_nanos);
#else
  EXPECT_EQ(MessageCausalId(*stamped), 0u);
#endif
}

TEST_F(FabricTest, ResetStatsClearsCounters) {
  ASSERT_TRUE(
      fabric_.Send(MakeMessage(a_, b_, MessageType::kEventBatch, 10)).ok());
  fabric_.ResetStats();
  EXPECT_EQ(fabric_.Stats().total_bytes, 0u);
  EXPECT_EQ(fabric_.link_stats(a_, b_).messages_sent, 0u);
}

TEST_F(FabricTest, ResetStatsClearsEveryPerLinkCounter) {
  // Regression: ResetStats must zero the whole per-link struct (including
  // drop counts), not just the per-node totals.
  LinkConfig link;
  link.drop_probability = 1.0;
  ASSERT_TRUE(fabric_.SetLinkConfig(a_, b_, link).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        fabric_.Send(MakeMessage(a_, b_, MessageType::kEventBatch, 8)).ok());
  }
  ASSERT_EQ(fabric_.link_stats(a_, b_).messages_dropped, 4u);
  ASSERT_GT(fabric_.Stats().total_dropped, 0u);

  fabric_.ResetStats();
  const LinkStats after = fabric_.link_stats(a_, b_);
  EXPECT_EQ(after.messages_sent, 0u);
  EXPECT_EQ(after.bytes_sent, 0u);
  EXPECT_EQ(after.messages_dropped, 0u);
  EXPECT_EQ(fabric_.Stats().total_dropped, 0u);
  EXPECT_EQ(fabric_.node_stats(a_).bytes_sent, 0u);
}

TEST_F(FabricTest, QueueDepthTracksMailbox) {
  EXPECT_EQ(fabric_.queue_depth(b_), 0u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        fabric_.Send(MakeMessage(a_, b_, MessageType::kEventBatch, 8)).ok());
  }
  EXPECT_EQ(fabric_.queue_depth(b_), 3u);
  EXPECT_EQ(fabric_.queue_depth(a_), 0u);
  ASSERT_TRUE(fabric_.mailbox(b_)->Pop().has_value());
  EXPECT_EQ(fabric_.queue_depth(b_), 2u);
  // Unknown ids read as empty rather than crashing the sampler.
  EXPECT_EQ(fabric_.queue_depth(999), 0u);
}

TEST_F(FabricTest, UnknownEndpointsRejected) {
  EXPECT_TRUE(fabric_.Send(MakeMessage(42, b_, MessageType::kEventBatch, 1))
                  .IsInvalidArgument());
  EXPECT_TRUE(fabric_.Send(MakeMessage(a_, 42, MessageType::kEventBatch, 1))
                  .IsInvalidArgument());
}

TEST_F(FabricTest, DropProbabilityOneDropsEverything) {
  LinkConfig link;
  link.drop_probability = 1.0;
  ASSERT_TRUE(fabric_.SetLinkConfig(a_, b_, link).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        fabric_.Send(MakeMessage(a_, b_, MessageType::kEventBatch, 8)).ok());
  }
  EXPECT_EQ(fabric_.mailbox(b_)->size(), 0u);
  const LinkStats stats = fabric_.link_stats(a_, b_);
  EXPECT_EQ(stats.messages_dropped, 10u);
  // Bytes still count: they left the sender's NIC.
  EXPECT_GT(stats.bytes_sent, 0u);
}

TEST_F(FabricTest, DropProbabilityValidated) {
  LinkConfig link;
  link.drop_probability = 1.5;
  EXPECT_TRUE(fabric_.SetLinkConfig(a_, b_, link).IsInvalidArgument());
  link.drop_probability = 0.5;
  link.latency_nanos = -1;
  EXPECT_TRUE(fabric_.SetLinkConfig(a_, b_, link).IsInvalidArgument());
}

TEST_F(FabricTest, DownSenderFailsDownReceiverSwallows) {
  ASSERT_TRUE(fabric_.SetNodeDown(a_, true).ok());
  EXPECT_TRUE(fabric_.Send(MakeMessage(a_, b_, MessageType::kEventBatch, 1))
                  .IsNodeFailed());
  ASSERT_TRUE(fabric_.SetNodeDown(a_, false).ok());
  ASSERT_TRUE(fabric_.SetNodeDown(b_, true).ok());
  EXPECT_TRUE(fabric_.IsNodeDown(b_));
  // Send succeeds (bytes spent) but nothing arrives.
  ASSERT_TRUE(
      fabric_.Send(MakeMessage(a_, b_, MessageType::kEventBatch, 1)).ok());
  EXPECT_EQ(fabric_.mailbox(b_)->size(), 0u);
  // Recovery allows delivery again.
  ASSERT_TRUE(fabric_.SetNodeDown(b_, false).ok());
  ASSERT_TRUE(
      fabric_.Send(MakeMessage(a_, b_, MessageType::kEventBatch, 1)).ok());
  EXPECT_EQ(fabric_.mailbox(b_)->size(), 1u);
}

TEST_F(FabricTest, LatencyDelaysDelivery) {
  LinkConfig link;
  link.latency_nanos = 50 * kNanosPerMilli;
  ASSERT_TRUE(fabric_.SetLinkConfig(a_, b_, link).ok());
  const TimeNanos start = SystemClock::Default()->NowNanos();
  ASSERT_TRUE(
      fabric_.Send(MakeMessage(a_, b_, MessageType::kEventBatch, 4)).ok());
  auto msg =
      fabric_.mailbox(b_)->PopWithTimeout(std::chrono::milliseconds(500));
  const TimeNanos elapsed = SystemClock::Default()->NowNanos() - start;
  ASSERT_TRUE(msg.has_value());
  EXPECT_GE(elapsed, 45 * kNanosPerMilli);
}

TEST_F(FabricTest, LatencyPreservesPerLinkOrder) {
  LinkConfig link;
  link.latency_nanos = 5 * kNanosPerMilli;
  ASSERT_TRUE(fabric_.SetLinkConfig(a_, b_, link).ok());
  for (int i = 0; i < 20; ++i) {
    Message msg = MakeMessage(a_, b_, MessageType::kEventBatch, 4);
    msg.window_index = i;
    ASSERT_TRUE(fabric_.Send(std::move(msg)).ok());
  }
  for (int i = 0; i < 20; ++i) {
    auto msg =
        fabric_.mailbox(b_)->PopWithTimeout(std::chrono::milliseconds(500));
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->window_index, static_cast<uint64_t>(i));
  }
}

TEST_F(FabricTest, FifoPreservedAcrossRuntimeLatencyChange) {
  // Regression for runtime-mutable shaping: a message in flight on a slow
  // link must not be overtaken by one sent after the latency was lowered
  // (a chaos `lag` restore would otherwise reorder a FIFO link).
  LinkConfig link;
  link.latency_nanos = 30 * kNanosPerMilli;
  ASSERT_TRUE(fabric_.SetLinkConfig(a_, b_, link).ok());
  Message slow = MakeMessage(a_, b_, MessageType::kEventBatch, 4);
  slow.window_index = 1;
  ASSERT_TRUE(fabric_.Send(std::move(slow)).ok());

  link.latency_nanos = 0;
  ASSERT_TRUE(fabric_.SetLinkConfig(a_, b_, link).ok());
  Message fast = MakeMessage(a_, b_, MessageType::kEventBatch, 4);
  fast.window_index = 2;
  ASSERT_TRUE(fabric_.Send(std::move(fast)).ok());

  auto first =
      fabric_.mailbox(b_)->PopWithTimeout(std::chrono::milliseconds(500));
  auto second =
      fabric_.mailbox(b_)->PopWithTimeout(std::chrono::milliseconds(500));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->window_index, 1u);
  EXPECT_EQ(second->window_index, 2u);
}

TEST_F(FabricTest, BlockedLinkDropsUntilUnblocked) {
  ASSERT_TRUE(fabric_.SetLinkBlocked(a_, b_, true).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        fabric_.Send(MakeMessage(a_, b_, MessageType::kEventBatch, 8)).ok());
  }
  EXPECT_EQ(fabric_.mailbox(b_)->size(), 0u);
  EXPECT_EQ(fabric_.link_stats(a_, b_).messages_dropped, 5u);
  // The reverse direction is unaffected.
  ASSERT_TRUE(
      fabric_.Send(MakeMessage(b_, a_, MessageType::kEventBatch, 8)).ok());
  EXPECT_EQ(fabric_.mailbox(a_)->size(), 1u);
  // SetLinkBlocked must preserve the link's other shaping fields.
  auto config = fabric_.GetLinkConfig(a_, b_);
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->blocked);
  EXPECT_DOUBLE_EQ(config->drop_probability, 0.0);

  ASSERT_TRUE(fabric_.SetLinkBlocked(a_, b_, false).ok());
  ASSERT_TRUE(
      fabric_.Send(MakeMessage(a_, b_, MessageType::kEventBatch, 8)).ok());
  EXPECT_EQ(fabric_.mailbox(b_)->size(), 1u);
}

TEST_F(FabricTest, PartitionNodeBlocksBothDirections) {
  ASSERT_TRUE(fabric_.PartitionNode(b_, true).ok());
  ASSERT_TRUE(
      fabric_.Send(MakeMessage(a_, b_, MessageType::kEventBatch, 8)).ok());
  ASSERT_TRUE(
      fabric_.Send(MakeMessage(b_, a_, MessageType::kEventBatch, 8)).ok());
  EXPECT_EQ(fabric_.mailbox(b_)->size(), 0u);
  EXPECT_EQ(fabric_.mailbox(a_)->size(), 0u);

  ASSERT_TRUE(fabric_.PartitionNode(b_, false).ok());
  ASSERT_TRUE(
      fabric_.Send(MakeMessage(a_, b_, MessageType::kEventBatch, 8)).ok());
  ASSERT_TRUE(
      fabric_.Send(MakeMessage(b_, a_, MessageType::kEventBatch, 8)).ok());
  EXPECT_EQ(fabric_.mailbox(b_)->size(), 1u);
  EXPECT_EQ(fabric_.mailbox(a_)->size(), 1u);
}

TEST_F(FabricTest, RevivePurgesStaleMailboxAndBumpsIncarnation) {
  // Regression: a revived node must not replay messages that were queued
  // before its crash — a rebooted host has lost its receive buffers.
  ASSERT_TRUE(
      fabric_.Send(MakeMessage(a_, b_, MessageType::kEventBatch, 8)).ok());
  ASSERT_EQ(fabric_.queue_depth(b_), 1u);
  EXPECT_EQ(fabric_.node_incarnation(b_), 0u);

  ASSERT_TRUE(fabric_.SetNodeDown(b_, true).ok());
  // The stale message stays queued while the node is down (nobody reads),
  // and is swept exactly at revive time.
  EXPECT_EQ(fabric_.queue_depth(b_), 1u);
  ASSERT_TRUE(fabric_.SetNodeDown(b_, false).ok());
  EXPECT_EQ(fabric_.queue_depth(b_), 0u);
  EXPECT_EQ(fabric_.node_incarnation(b_), 1u);

  // Post-revive traffic flows normally.
  ASSERT_TRUE(
      fabric_.Send(MakeMessage(a_, b_, MessageType::kEventBatch, 8)).ok());
  auto msg = fabric_.mailbox(b_)->TryPop();
  ASSERT_TRUE(msg.has_value());
}

TEST_F(FabricTest, LinkCountersSurviveCrashAndRestart) {
  ASSERT_TRUE(
      fabric_.Send(MakeMessage(a_, b_, MessageType::kEventBatch, 8)).ok());
  const LinkStats before = fabric_.link_stats(a_, b_);
  ASSERT_EQ(before.messages_sent, 1u);

  ASSERT_TRUE(fabric_.SetNodeDown(b_, true).ok());
  // Traffic to a down node counts as dropped on the link.
  ASSERT_TRUE(
      fabric_.Send(MakeMessage(a_, b_, MessageType::kEventBatch, 8)).ok());
  ASSERT_TRUE(fabric_.SetNodeDown(b_, false).ok());
  ASSERT_TRUE(
      fabric_.Send(MakeMessage(a_, b_, MessageType::kEventBatch, 8)).ok());

  const LinkStats after = fabric_.link_stats(a_, b_);
  EXPECT_EQ(after.messages_sent, 3u);
  EXPECT_EQ(after.messages_dropped, before.messages_dropped + 1);
  EXPECT_GT(after.bytes_sent, before.bytes_sent);
}

TEST(FabricSimTest, EgressCapThrottlesSender) {
  // Simulation-driven: the throttle delay is exact virtual time — 10'000
  // bytes at 50'000 B/s is precisely 0.2 s — instead of a lower bound on
  // noisy wall-clock sleeps.
  SimScheduler sim(1);
  NetworkFabric fabric(sim.clock(), 1);
  fabric.SetSimScheduler(&sim);
  const NodeId a = fabric.RegisterNode("a");
  const NodeId b = fabric.RegisterNode("b");
  NodeNetConfig net;
  net.egress_bytes_per_sec = 50'000;
  ASSERT_TRUE(fabric.SetNodeNetConfig(a, net).ok());
  TimeNanos elapsed = 0;
  const SimTaskId sender = sim.AddTask("sender");
  std::thread t([&] {
    sim.TaskMain(sender, [&] {
      // Drain the initial burst, then measure.
      ASSERT_TRUE(fabric
                      .Send(MakeMessage(a, b, MessageType::kEventBatch,
                                        50'000 - Message::kHeaderBytes))
                      .ok());
      const TimeNanos start = sim.clock()->NowNanos();
      ASSERT_TRUE(fabric
                      .Send(MakeMessage(a, b, MessageType::kEventBatch,
                                        10'000 - Message::kHeaderBytes))
                      .ok());
      elapsed = sim.clock()->NowNanos() - start;
    });
  });
  EXPECT_TRUE(sim.RunUntilTaskDone(sender).ok());
  t.join();
  EXPECT_GE(elapsed, 200 * kNanosPerMilli);  // exactly 0.2s nominally
  EXPECT_LE(elapsed, 201 * kNanosPerMilli);
}

TEST(FabricSimTest, FlowControlBlocksEventBatchesOnly) {
  // Simulation-driven: at virtual 20ms the sixth batch is *provably*
  // still blocked (flow control is the only thing that can stop the
  // sender, and virtual time only advances when it is blocked) — the
  // wall-clock version could only hope the sender thread had been
  // scheduled by then.
  SimScheduler sim(1);
  NetworkFabric fabric(sim.clock(), 1);
  fabric.SetSimScheduler(&sim);
  const NodeId a = fabric.RegisterNode("a");
  const NodeId b = fabric.RegisterNode("b");
  fabric.SetFlowControlLimit(4);
  bool sent = false;
  const SimTaskId sender = sim.AddTask("sender");
  std::thread t([&] {
    sim.TaskMain(sender, [&] {
      for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(
            fabric.Send(MakeMessage(a, b, MessageType::kEventBatch, 1)).ok());
      }
      sent = true;
    });
  });
  sim.ScheduleAt(20 * kNanosPerMilli, [&] {
    EXPECT_FALSE(sent);  // sixth event batch still blocked
    // Control messages bypass flow control and pass immediately.
    EXPECT_TRUE(
        fabric.Send(MakeMessage(a, b, MessageType::kWindowAssignment, 1))
            .ok());
    // Draining the receiver below the limit releases the sender.
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(fabric.mailbox(b)->TryPop().has_value());
    }
  });
  EXPECT_TRUE(sim.RunUntilTaskDone(sender).ok());
  t.join();
  EXPECT_TRUE(sent);
}

TEST_F(FabricTest, ShutdownClosesMailboxes) {
  fabric_.Shutdown();
  EXPECT_FALSE(fabric_.mailbox(a_)->Pop().has_value());
}

TEST_F(FabricTest, TracksQueueDepthHighWater) {
  EXPECT_EQ(fabric_.node_stats(b_).queue_depth_high_water, 0u);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(
        fabric_.Send(MakeMessage(a_, b_, MessageType::kPartialResult, 8))
            .ok());
  }
  // Nothing was received yet: all 7 messages sit in the mailbox, and the
  // high-water mark saw every intermediate depth up to 7.
  EXPECT_EQ(fabric_.queue_depth(b_), 7u);
  EXPECT_EQ(fabric_.node_stats(b_).queue_depth_high_water, 7u);

  // Draining does not lower the mark — it is a high-water, not a gauge.
  Mailbox* mailbox = fabric_.mailbox(b_);
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(mailbox->Pop().has_value());
  EXPECT_EQ(fabric_.queue_depth(b_), 0u);
  EXPECT_EQ(fabric_.node_stats(b_).queue_depth_high_water, 7u);

  // A shallower burst after the drain leaves the mark untouched...
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        fabric_.Send(MakeMessage(a_, b_, MessageType::kPartialResult, 8))
            .ok());
  }
  EXPECT_EQ(fabric_.node_stats(b_).queue_depth_high_water, 7u);
  EXPECT_EQ(fabric_.Stats().per_node[b_].queue_depth_high_water, 7u);

  // ...and ResetStats rearms it.
  fabric_.ResetStats();
  EXPECT_EQ(fabric_.node_stats(b_).queue_depth_high_water, 0u);
}

TEST(MessageTest, LatencyMetaWeightedMerge) {
  Message msg;
  msg.MergeLatencyMeta(100.0, 1);
  msg.MergeLatencyMeta(200.0, 3);
  EXPECT_EQ(msg.lat_event_count, 4u);
  EXPECT_DOUBLE_EQ(msg.lat_mean_create_nanos, 175.0);
  msg.MergeLatencyMeta(0.0, 0);  // no-op
  EXPECT_EQ(msg.lat_event_count, 4u);
}

TEST(MessageTest, TypeNames) {
  EXPECT_STREQ(MessageTypeToString(MessageType::kEventBatch), "event-batch");
  EXPECT_STREQ(MessageTypeToString(MessageType::kCorrectionRequest),
               "correction-request");
}

}  // namespace
}  // namespace deco
