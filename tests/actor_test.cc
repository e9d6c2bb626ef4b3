#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "node/actor.h"
#include "node/runtime.h"
#include "node/topology.h"
#include "sim/scheduler.h"

namespace deco {
namespace {

// Minimal actor that counts received messages and echoes them back.
class EchoActor final : public Actor {
 public:
  using Actor::Actor;

  std::atomic<int> received{0};

 protected:
  Status Run() override {
    while (!stop_requested()) {
      std::optional<Message> msg = Receive();
      if (!msg.has_value()) break;
      if (msg->type == MessageType::kShutdown) break;
      received.fetch_add(1);
      Message reply;
      reply.type = MessageType::kPartialResult;
      reply.dst = msg->src;
      reply.window_index = msg->window_index;
      DECO_RETURN_NOT_OK(Send(std::move(reply)));
    }
    return Status::OK();
  }
};

class FailingActor final : public Actor {
 public:
  using Actor::Actor;

 protected:
  Status Run() override { return Status::Internal("deliberate failure"); }
};

TEST(ActorTest, EchoesThroughFabric) {
  NetworkFabric fabric(SystemClock::Default(), 1);
  const NodeId tester = fabric.RegisterNode("tester");
  const NodeId echo_id = fabric.RegisterNode("echo");
  RunContext run;
  EchoActor echo(&fabric, echo_id, SystemClock::Default(), &run);
  echo.Start();

  for (int i = 0; i < 10; ++i) {
    Message msg;
    msg.type = MessageType::kEventRate;
    msg.src = tester;
    msg.dst = echo_id;
    msg.window_index = i;
    ASSERT_TRUE(fabric.Send(std::move(msg)).ok());
  }
  for (int i = 0; i < 10; ++i) {
    auto reply = fabric.mailbox(tester)->PopWithTimeout(
        std::chrono::seconds(5));
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->window_index, static_cast<uint64_t>(i));
    EXPECT_EQ(reply->src, echo_id);
  }
  echo.RequestStop();
  echo.Join();
  EXPECT_EQ(echo.received.load(), 10);
  EXPECT_TRUE(echo.status().ok());
}

TEST(ActorTest, StatusReportsRunFailure) {
  NetworkFabric fabric(SystemClock::Default(), 1);
  const NodeId id = fabric.RegisterNode("failing");
  RunContext run;
  FailingActor actor(&fabric, id, SystemClock::Default(), &run);
  actor.Start();
  actor.Join();
  EXPECT_TRUE(actor.status().IsInternal());
}

TEST(ActorTest, RequestStopWakesBlockedReceive) {
  // Simulation-driven: the actor provably parks in Receive() — virtual
  // time cannot reach the 20ms stop event while the actor is runnable —
  // so no wall-clock sleep is needed to get it blocked first.
  SimScheduler sim(1);
  NetworkFabric fabric(sim.clock(), 1);
  fabric.SetSimScheduler(&sim);
  const NodeId id = fabric.RegisterNode("blocked");
  RunContext run;
  EchoActor actor(&fabric, id, sim.clock(), &run);
  actor.Start();
  sim.ScheduleAt(20 * kNanosPerMilli,
                 [&] { actor.RequestStop(); });  // closes the mailbox
  EXPECT_TRUE(sim.RunUntilTaskDone(actor.sim_task()).ok());
  actor.Join();
  EXPECT_TRUE(actor.status().ok());
  EXPECT_EQ(sim.Now(), 20 * kNanosPerMilli);
}

TEST(RuntimeTest, JoinAllPropagatesFirstError) {
  NetworkFabric fabric(SystemClock::Default(), 1);
  const NodeId ok_id = fabric.RegisterNode("ok");
  const NodeId bad_id = fabric.RegisterNode("bad");
  RunContext run;
  Runtime runtime(&fabric);
  runtime.AddActor(std::make_unique<EchoActor>(
      &fabric, ok_id, SystemClock::Default(), &run));
  runtime.AddActor(std::make_unique<FailingActor>(
      &fabric, bad_id, SystemClock::Default(), &run));
  runtime.StartAll();
  runtime.StopAll();
  EXPECT_TRUE(runtime.JoinAll().IsInternal());
}

TEST(TopologyTest, OrdinalLookup) {
  Topology topology;
  topology.root = 0;
  topology.locals = {3, 5, 9};
  EXPECT_EQ(topology.OrdinalOf(5).value(), 1u);
  EXPECT_EQ(topology.OrdinalOf(9).value(), 2u);
  EXPECT_TRUE(topology.OrdinalOf(0).status().IsNotFound());
  EXPECT_EQ(topology.num_locals(), 3u);
}

}  // namespace
}  // namespace deco
