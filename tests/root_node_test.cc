#include <gtest/gtest.h>

#include <chrono>

#include "deco/root_node.h"
#include "node/runtime.h"

namespace deco {
namespace {

// Drives one real DecoRootNode over the fabric from scripted "local
// nodes": the test body plays both locals, shipping slices and raw edge
// regions and asserting on the assignments, corrections and results the
// root produces.
class RootNodeProtocolTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kWindow = 1000;

  void Start(DecoScheme scheme) {
    fabric_ = std::make_unique<NetworkFabric>(SystemClock::Default(), 3);
    topology_.root = fabric_->RegisterNode("root");
    topology_.locals = {fabric_->RegisterNode("a"),
                        fabric_->RegisterNode("b")};
    QueryConfig query;
    query.window = WindowSpec::CountTumbling(kWindow);
    root_ = std::make_unique<DecoRootNode>(
        fabric_.get(), topology_.root, SystemClock::Default(), &run_,
        topology_, query, scheme, &report_);
    root_->Start();
    next_id_.assign(2, 0);
  }

  void TearDown() override {
    if (root_ != nullptr) {
      root_->RequestStop();
      fabric_->Shutdown();
      root_->Join();
    }
  }

  // Next `n` events of local `node`; timestamps interleave round-robin.
  EventVec Take(size_t node, size_t n) {
    EventVec events;
    for (size_t i = 0; i < n; ++i) {
      Event e;
      e.id = next_id_[node];
      e.stream_id = static_cast<StreamId>(node);
      e.value = 1.0;
      e.timestamp = static_cast<EventTime>(1000 + next_id_[node] * 2 + node);
      ++next_id_[node];
      events.push_back(e);
    }
    return events;
  }

  void SendRate(size_t node, uint64_t w, double rate) {
    RateReport report;
    report.window_index = w;
    report.event_rate = rate;
    BinaryWriter writer;
    EncodeRateReport(report, &writer);
    Message msg;
    msg.type = MessageType::kEventRate;
    msg.src = topology_.locals[node];
    msg.dst = topology_.root;
    msg.window_index = w;
    msg.epoch = epoch_;
    msg.payload = writer.Release();
    ASSERT_TRUE(fabric_->Send(std::move(msg)).ok());
  }

  void SendSlice(size_t node, uint64_t w, const EventVec& events,
                 double rate = 500.0) {
    auto func = std::move(MakeAggregate(AggregateKind::kSum)).value();
    SliceSummary summary;
    summary.partial = func->CreatePartial();
    for (const Event& e : events) {
      func->Accumulate(&summary.partial, e.value);
    }
    summary.event_count = events.size();
    if (!events.empty()) {
      summary.min_ts = events.front().timestamp;
      summary.max_ts = events.back().timestamp;
      summary.max_stream_id = events.back().stream_id;
      summary.max_event_id = events.back().id;
    }
    summary.event_rate = rate;
    BinaryWriter writer;
    EncodeSliceSummary(summary, &writer);
    Message msg;
    msg.type = MessageType::kPartialResult;
    msg.src = topology_.locals[node];
    msg.dst = topology_.root;
    msg.window_index = w;
    msg.epoch = epoch_;
    msg.payload = writer.Release();
    ASSERT_TRUE(fabric_->Send(std::move(msg)).ok());
  }

  void SendEndRaw(size_t node, uint64_t w, const EventVec& events) {
    EventBatchPayload payload;
    payload.role = BatchRole::kEnd;
    payload.events = events;
    BinaryWriter writer;
    EncodeEventBatch(payload, &writer);
    Message msg;
    msg.type = MessageType::kEventBatch;
    msg.src = topology_.locals[node];
    msg.dst = topology_.root;
    msg.window_index = w;
    msg.epoch = epoch_;
    msg.payload = writer.Release();
    ASSERT_TRUE(fabric_->Send(std::move(msg)).ok());
  }

  std::optional<Message> ReceiveAt(size_t node, MessageType type) {
    for (int i = 0; i < 64; ++i) {
      auto msg = fabric_->mailbox(topology_.locals[node])
                     ->PopWithTimeout(std::chrono::seconds(5));
      if (!msg.has_value()) return std::nullopt;
      if (msg->type == type) return msg;
    }
    return std::nullopt;
  }

  WindowAssignment DecodeAssignmentOrDie(const Message& msg) {
    BinaryReader reader(msg.payload);
    return std::move(DecodeWindowAssignment(&reader)).value();
  }

  // Plays one full, prediction-conforming window from both locals.
  void PlayBalancedWindow(uint64_t w, size_t slice, size_t buffer) {
    for (size_t n = 0; n < 2; ++n) {
      SendSlice(n, w, Take(n, slice));
      SendEndRaw(n, w, Take(n, buffer));
    }
  }

  RunContext run_;
  std::unique_ptr<NetworkFabric> fabric_;
  Topology topology_;
  std::unique_ptr<DecoRootNode> root_;
  RunReport report_;
  std::vector<uint64_t> next_id_;
  uint64_t epoch_ = 0;
};

TEST_F(RootNodeProtocolTest, BootstrapAssignmentApportionsByRate) {
  Start(DecoScheme::kSync);
  SendRate(0, 0, 600.0);
  SendRate(1, 0, 400.0);
  auto a = ReceiveAt(0, MessageType::kWindowAssignment);
  auto b = ReceiveAt(1, MessageType::kWindowAssignment);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  const WindowAssignment wa = DecodeAssignmentOrDie(*a);
  const WindowAssignment wb = DecodeAssignmentOrDie(*b);
  EXPECT_EQ(wa.window_index, 0u);
  // 1000-event window split 600/400 by the reported rates (paper §4.1).
  EXPECT_EQ(wa.local_window_size, 600u);
  EXPECT_EQ(wb.local_window_size, 400u);
  EXPECT_GT(wa.delta, 0u);
}

TEST_F(RootNodeProtocolTest, VerifiedWindowEmitsResultAndNextAssignment) {
  Start(DecoScheme::kSync);
  SendRate(0, 0, 500.0);
  SendRate(1, 0, 500.0);
  ASSERT_TRUE(ReceiveAt(0, MessageType::kWindowAssignment).has_value());
  ASSERT_TRUE(ReceiveAt(1, MessageType::kWindowAssignment).has_value());

  PlayBalancedWindow(0, 480, 40);
  auto next = ReceiveAt(0, MessageType::kWindowAssignment);
  ASSERT_TRUE(next.has_value());
  const WindowAssignment assignment = DecodeAssignmentOrDie(*next);
  EXPECT_EQ(assignment.window_index, 1u);
  // Watermark is the key of the window's last event.
  EXPECT_GT(assignment.wm_ts, 0);
  EXPECT_EQ(report_.windows_emitted, 1u);
  EXPECT_DOUBLE_EQ(report_.windows[0].value, 1000.0);
  EXPECT_EQ(report_.correction_steps, 0u);
}

TEST_F(RootNodeProtocolTest, OverestimateTriggersCorrectionFlow) {
  Start(DecoScheme::kSync);
  SendRate(0, 0, 500.0);
  SendRate(1, 0, 500.0);
  ASSERT_TRUE(ReceiveAt(0, MessageType::kWindowAssignment).has_value());
  ASSERT_TRUE(ReceiveAt(1, MessageType::kWindowAssignment).has_value());

  // Slices alone exceed the window: 550 + 550 > 1000.
  for (size_t n = 0; n < 2; ++n) {
    SendSlice(n, 0, Take(n, 550));
    SendEndRaw(n, 0, Take(n, 20));
  }
  auto request_msg = ReceiveAt(0, MessageType::kCorrectionRequest);
  ASSERT_TRUE(request_msg.has_value());
  BinaryReader reader(request_msg->payload);
  const CorrectionRequest request =
      std::move(DecodeCorrectionRequest(&reader)).value();
  EXPECT_EQ(request.window_index, 0u);
  EXPECT_EQ(request.topup_events, 0u);  // full resend
  EXPECT_GT(request_msg->epoch, 0u);    // epoch bumped

  // Both locals resend their complete regions (570 events each).
  epoch_ = request_msg->epoch;
  for (size_t n = 0; n < 2; ++n) {
    CorrectionResponse response;
    response.window_index = 0;
    next_id_[n] = 0;  // replay from the window start
    response.events = Take(n, 570);
    response.end_of_stream = false;
    response.round = request.round;  // echo the solicitation round
    BinaryWriter writer;
    EncodeCorrectionResponse(response, &writer);
    Message msg;
    msg.type = MessageType::kCorrectionResult;
    msg.src = topology_.locals[n];
    msg.dst = topology_.root;
    msg.window_index = 0;
    msg.epoch = epoch_;
    msg.payload = writer.Release();
    ASSERT_TRUE(fabric_->Send(std::move(msg)).ok());
  }
  // The corrected window emits exactly 1000 events (500 per node by the
  // interleaved timestamps), and the next assignment carries the bumped
  // epoch (rollback signal).
  auto next = ReceiveAt(0, MessageType::kWindowAssignment);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->epoch, epoch_);
  EXPECT_EQ(report_.windows_emitted, 1u);
  EXPECT_TRUE(report_.windows[0].corrected);
  EXPECT_DOUBLE_EQ(report_.windows[0].value, 1000.0);
  EXPECT_EQ(report_.correction_steps, 1u);
  EXPECT_EQ(report_.consumption.window(0)[0], 500u);
  EXPECT_EQ(report_.consumption.window(0)[1], 500u);
}

TEST_F(RootNodeProtocolTest, HolisticAggregateIsRejected) {
  fabric_ = std::make_unique<NetworkFabric>(SystemClock::Default(), 3);
  topology_.root = fabric_->RegisterNode("root");
  topology_.locals = {fabric_->RegisterNode("a")};
  QueryConfig query;
  query.window = WindowSpec::CountTumbling(kWindow);
  query.aggregate = AggregateKind::kMedian;
  root_ = std::make_unique<DecoRootNode>(
      fabric_.get(), topology_.root, SystemClock::Default(), &run_,
      topology_, query, DecoScheme::kSync, &report_);
  root_->Start();
  root_->Join();
  EXPECT_TRUE(root_->status().IsNotSupported());
  root_.reset();
  fabric_->Shutdown();
}

TEST_F(RootNodeProtocolTest, ShutdownBroadcastOnEndOfStream) {
  Start(DecoScheme::kSync);
  SendRate(0, 0, 500.0);
  SendRate(1, 0, 500.0);
  ASSERT_TRUE(ReceiveAt(0, MessageType::kWindowAssignment).has_value());
  ASSERT_TRUE(ReceiveAt(1, MessageType::kWindowAssignment).has_value());
  PlayBalancedWindow(0, 480, 40);
  ASSERT_TRUE(ReceiveAt(0, MessageType::kWindowAssignment).has_value());

  // Both locals announce end of stream with too few events for another
  // window; the root terminates and broadcasts shutdown.
  for (size_t n = 0; n < 2; ++n) {
    Message msg;
    msg.type = MessageType::kShutdown;
    msg.src = topology_.locals[n];
    msg.dst = topology_.root;
    msg.epoch = epoch_;
    ASSERT_TRUE(fabric_->Send(std::move(msg)).ok());
  }
  EXPECT_TRUE(ReceiveAt(0, MessageType::kShutdown).has_value());
  EXPECT_TRUE(ReceiveAt(1, MessageType::kShutdown).has_value());
  root_->Join();
  EXPECT_TRUE(root_->status().ok());
}

}  // namespace
}  // namespace deco
