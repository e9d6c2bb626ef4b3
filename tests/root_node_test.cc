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

  void Start(DecoScheme scheme, DecoRootOptions options = {}) {
    fabric_ = std::make_unique<NetworkFabric>(SystemClock::Default(), 3);
    topology_.root = fabric_->RegisterNode("root");
    topology_.locals = {fabric_->RegisterNode("a"),
                        fabric_->RegisterNode("b")};
    ServedQuery query;
    query.query.window = WindowSpec::CountTumbling(kWindow);
    registry_ = QueryRegistry();
    ASSERT_TRUE(registry_.Add(std::move(query)).ok());
    root_ = std::make_unique<DecoRootNode>(
        fabric_.get(), topology_.root, SystemClock::Default(), &run_,
        topology_, &registry_, scheme, &report_, options);
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

  // A rate report, or with `type = kRejoin` a restarted local's rejoin.
  void SendRate(size_t node, uint64_t w, double rate,
                MessageType type = MessageType::kEventRate) {
    RateReport report;
    report.window_index = w;
    report.event_rate = rate;
    BinaryWriter writer;
    EncodeRateReport(report, &writer);
    Message msg;
    msg.type = type;
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

  void SendRaw(size_t node, uint64_t w, const EventVec& events,
               BatchRole role = BatchRole::kEnd) {
    EventBatchPayload payload;
    payload.role = role;
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

  // Answers a correction request as local `node` would.
  void SendCorrectionResponse(size_t node, uint64_t round,
                              const EventVec& events, uint64_t w = 0) {
    CorrectionResponse response;
    response.window_index = w;
    response.events = events;
    response.round = round;  // echo the solicitation round
    BinaryWriter writer;
    EncodeCorrectionResponse(response, &writer);
    Message msg;
    msg.type = MessageType::kCorrectionResult;
    msg.src = topology_.locals[node];
    msg.dst = topology_.root;
    msg.window_index = w;
    msg.epoch = epoch_;
    msg.payload = writer.Release();
    ASSERT_TRUE(fabric_->Send(std::move(msg)).ok());
  }

  CorrectionRequest DecodeRequestOrDie(const Message& msg) {
    BinaryReader reader(msg.payload);
    return std::move(DecodeCorrectionRequest(&reader)).value();
  }

  // Receives the correction request of each local.
  std::vector<CorrectionRequest> ReceiveRequests() {
    std::vector<CorrectionRequest> requests;
    for (size_t n = 0; n < 2; ++n) {
      auto msg = ReceiveAt(n, MessageType::kCorrectionRequest);
      EXPECT_TRUE(msg.has_value());
      if (!msg.has_value()) return {};
      EXPECT_EQ(msg->epoch, epoch_);
      requests.push_back(DecodeRequestOrDie(*msg));
    }
    return requests;
  }

  // Sends rate reports, takes window 0's assignments, and ships too few
  // events for the window (2 * (400 + 40) < 1000). The root repairs the
  // held window at epoch 0, asking each local for one more than the 120
  // missing events; then local a rejoins, which empties the window under
  // epoch 1. Returns the emptied window's request to each local.
  std::vector<CorrectionRequest> EmptyFirstWindow() {
    SendRate(0, 0, 500.0);
    SendRate(1, 0, 500.0);
    EXPECT_TRUE(ReceiveAt(0, MessageType::kWindowAssignment).has_value());
    EXPECT_TRUE(ReceiveAt(1, MessageType::kWindowAssignment).has_value());
    for (size_t n = 0; n < 2; ++n) {
      SendSlice(n, 0, Take(n, 400));
      SendRaw(n, 0, Take(n, 40));
    }
    for (const CorrectionRequest& topup : ReceiveRequests()) {
      EXPECT_EQ(topup.window_index, 0u);
      EXPECT_EQ(topup.from_index, 440u);
      EXPECT_EQ(topup.count, 121u);
    }
    SendRate(0, 0, 500.0, MessageType::kRejoin);
    epoch_ = 1;
    return ReceiveRequests();
  }

  WindowAssignment DecodeAssignmentOrDie(const Message& msg) {
    BinaryReader reader(msg.payload);
    return std::move(DecodeWindowAssignment(&reader)).value();
  }

  // Plays one full, prediction-conforming window from both locals.
  void PlayBalancedWindow(uint64_t w, size_t slice, size_t buffer) {
    for (size_t n = 0; n < 2; ++n) {
      SendSlice(n, w, Take(n, slice));
      SendRaw(n, w, Take(n, buffer));
    }
  }

  RunContext run_;
  std::unique_ptr<NetworkFabric> fabric_;
  Topology topology_;
  QueryRegistry registry_;
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

TEST_F(RootNodeProtocolTest, RejoinEmptiesTheRepairedWindow) {
  Start(DecoScheme::kSync);
  const std::vector<CorrectionRequest> requests = EmptyFirstWindow();
  ASSERT_EQ(requests.size(), 2u);
  for (const CorrectionRequest& request : requests) {
    EXPECT_EQ(request.window_index, 0u);
    // No predictor history yet: each local is asked for one window + 1,
    // which bounds the cut on its own.
    EXPECT_EQ(request.from_index, 0u);
    EXPECT_EQ(request.count, kWindow + 1);
  }

  // Both locals resend 570 events from the window start.
  for (size_t n = 0; n < 2; ++n) {
    next_id_[n] = 0;  // replay from the window start
    SendCorrectionResponse(n, requests[n].round, Take(n, 570));
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
  // The repair and the emptying that replaced it count once, and not as
  // repaired.
  EXPECT_EQ(report_.correction_steps, 1u);
  EXPECT_EQ(report_.corrections_repaired, 0u);
  EXPECT_EQ(report_.consumption.window(0)[0], 500u);
  EXPECT_EQ(report_.consumption.window(0)[1], 500u);
}

TEST_F(RootNodeProtocolTest, EmptiedWindowTopsUpFromEventsHeld) {
  Start(DecoScheme::kSync);
  const std::vector<CorrectionRequest> requests = EmptyFirstWindow();
  ASSERT_EQ(requests.size(), 2u);
  // Local b's 460 events all fall inside the cut (540 of a's are needed
  // besides), so none of them bounds the cut.
  next_id_.assign(2, 0);
  SendCorrectionResponse(0, requests[0].round, Take(0, 570));
  SendCorrectionResponse(1, requests[1].round, Take(1, 460));

  // Only b is asked for more, from the 460 events the root holds, at the
  // same epoch: D = 1 + the 80 of a's selected events (ids 460..539) that
  // follow b's last.
  auto topup_msg = ReceiveAt(1, MessageType::kCorrectionRequest);
  ASSERT_TRUE(topup_msg.has_value());
  const CorrectionRequest topup = DecodeRequestOrDie(*topup_msg);
  EXPECT_EQ(topup.window_index, 0u);
  EXPECT_EQ(topup.from_index, 460u);
  EXPECT_EQ(topup.count, 81u);
  EXPECT_GT(topup.round, requests[1].round);
  EXPECT_EQ(topup_msg->epoch, epoch_);
  SendCorrectionResponse(1, topup.round, Take(1, topup.count));

  auto next = ReceiveAt(0, MessageType::kWindowAssignment);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(report_.windows_emitted, 1u);
  EXPECT_TRUE(report_.windows[0].corrected);
  EXPECT_DOUBLE_EQ(report_.windows[0].value, 1000.0);
  EXPECT_EQ(report_.consumption.window(0)[0], 500u);
  EXPECT_EQ(report_.consumption.window(0)[1], 500u);
}

TEST_F(RootNodeProtocolTest, StalledWindowAfterVerifiedWindowsAsksShareAndSlack) {
  DecoRootOptions options;
  options.node_timeout_nanos = 100 * kNanosPerMilli;
  Start(DecoScheme::kSync, options);
  SendRate(0, 0, 500.0);
  SendRate(1, 0, 500.0);
  ASSERT_TRUE(ReceiveAt(0, MessageType::kWindowAssignment).has_value());
  ASSERT_TRUE(ReceiveAt(1, MessageType::kWindowAssignment).has_value());
  // Two verified windows; the second's slices report rates 600/400, so
  // the predictors see sizes 500 then 600 (a) and 500 then 400 (b).
  PlayBalancedWindow(0, 480, 40);
  ASSERT_TRUE(ReceiveAt(0, MessageType::kWindowAssignment).has_value());
  ASSERT_TRUE(ReceiveAt(1, MessageType::kWindowAssignment).has_value());
  const double rates[2] = {600.0, 400.0};
  for (size_t n = 0; n < 2; ++n) {
    SendSlice(n, 1, Take(n, 480), rates[n]);
    SendRaw(n, 1, Take(n, 40));
  }
  ASSERT_TRUE(ReceiveAt(0, MessageType::kWindowAssignment).has_value());
  ASSERT_TRUE(ReceiveAt(1, MessageType::kWindowAssignment).has_value());
  ASSERT_EQ(report_.windows_emitted, 2u);
  ASSERT_EQ(report_.correction_steps, 0u);

  // Window 2 stalls: b's end region is lost, and both locals stay alive.
  // After two timeouts the root empties the window under epoch 1 and asks
  // each local for its predicted share plus two deltas, with the slack
  // sized for a fleet of two.
  SendSlice(0, 2, Take(0, 480), rates[0]);
  SendRaw(0, 2, Take(0, 40));
  SendSlice(1, 2, Take(1, 480), rates[1]);
  std::optional<Message> a_msg;
  for (int i = 0; i < 200 && !a_msg.has_value(); ++i) {
    SendRate(0, 2, 600.0);
    SendRate(1, 2, 400.0);
    auto msg = fabric_->mailbox(topology_.locals[0])
                   ->PopWithTimeout(std::chrono::milliseconds(10));
    if (msg.has_value() && msg->type == MessageType::kCorrectionRequest) {
      a_msg = msg;
    }
  }
  ASSERT_TRUE(a_msg.has_value());
  EXPECT_EQ(a_msg->epoch, 1u);
  auto b_msg = ReceiveAt(1, MessageType::kCorrectionRequest);
  ASSERT_TRUE(b_msg.has_value());
  EXPECT_EQ(b_msg->epoch, 1u);
  const uint64_t sizes[2][2] = {{500, 600}, {500, 400}};
  const Message* msgs[2] = {&*a_msg, &*b_msg};
  for (size_t n = 0; n < 2; ++n) {
    const CorrectionRequest request = DecodeRequestOrDie(*msgs[n]);
    LocalWindowPredictor predictor(4, 1, FleetDeltaMultiplier(2));
    for (uint64_t size : sizes[n]) predictor.ObserveActual(size);
    EXPECT_EQ(request.window_index, 2u);
    EXPECT_EQ(request.from_index, 0u);
    EXPECT_EQ(request.count,
              predictor.PredictedSize() + 2 * predictor.Delta());
  }
  EXPECT_EQ(report_.correction_steps, 1u);
  EXPECT_TRUE(report_.membership.empty());
}

TEST_F(RootNodeProtocolTest, OverestimateRepairsOnlyTheOffendingLocal) {
  Start(DecoScheme::kSync);
  SendRate(0, 0, 500.0);
  SendRate(1, 0, 500.0);
  ASSERT_TRUE(ReceiveAt(0, MessageType::kWindowAssignment).has_value());
  ASSERT_TRUE(ReceiveAt(1, MessageType::kWindowAssignment).has_value());
  PlayBalancedWindow(0, 480, 40);  // 20 leftovers each (ids 500..519)
  ASSERT_TRUE(ReceiveAt(0, MessageType::kWindowAssignment).has_value());
  ASSERT_TRUE(ReceiveAt(1, MessageType::kWindowAssignment).has_value());

  // Window 1 forces 500 + 580 events; b's slice holds the greatest key.
  SendSlice(0, 1, Take(0, 480));
  SendRaw(0, 1, Take(0, 40));
  const EventVec b_slice = Take(1, 560);
  SendSlice(1, 1, b_slice);
  SendRaw(1, 1, Take(1, 20));

  // Only b is asked, at the current epoch, for its slice's raw events,
  // which follow its 20 leftovers.
  auto request_msg = ReceiveAt(1, MessageType::kCorrectionRequest);
  ASSERT_TRUE(request_msg.has_value());
  EXPECT_EQ(request_msg->epoch, 0u);
  const CorrectionRequest request = DecodeRequestOrDie(*request_msg);
  EXPECT_EQ(request.window_index, 1u);
  EXPECT_EQ(request.from_index, 20u);
  EXPECT_EQ(request.count, 560u);
  SendCorrectionResponse(1, request.round, b_slice, /*w=*/1);

  // The repaired window emits exactly, and the next assignment carries
  // the bumped epoch (the rollback). Local a never heard of the repair.
  std::optional<Message> next;
  for (int i = 0; i < 64 && !next.has_value(); ++i) {
    auto msg = fabric_->mailbox(topology_.locals[0])
                   ->PopWithTimeout(std::chrono::seconds(5));
    ASSERT_TRUE(msg.has_value());
    ASSERT_NE(msg->type, MessageType::kCorrectionRequest);
    if (msg->type == MessageType::kWindowAssignment) next = msg;
  }
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->epoch, 1u);
  EXPECT_EQ(DecodeAssignmentOrDie(*next).window_index, 2u);
  ASSERT_EQ(report_.windows_emitted, 2u);
  EXPECT_TRUE(report_.windows[1].corrected);
  EXPECT_DOUBLE_EQ(report_.windows[1].value, 1000.0);
  EXPECT_EQ(report_.correction_steps, 1u);
  EXPECT_EQ(report_.corrections_repaired, 1u);
  EXPECT_EQ(report_.consumption.window(1)[0], 500u);
  EXPECT_EQ(report_.consumption.window(1)[1], 500u);
}

TEST_F(RootNodeProtocolTest, LostRepairResponseEscalatesToFullCorrection) {
  DecoRootOptions options;
  options.node_timeout_nanos = 100 * kNanosPerMilli;
  Start(DecoScheme::kSync, options);
  SendRate(0, 0, 500.0);
  SendRate(1, 0, 500.0);
  ASSERT_TRUE(ReceiveAt(0, MessageType::kWindowAssignment).has_value());
  ASSERT_TRUE(ReceiveAt(1, MessageType::kWindowAssignment).has_value());
  // Window 0 overestimates; the root asks b alone to open its slice.
  for (size_t n = 0; n < 2; ++n) {
    SendSlice(n, 0, Take(n, 550));
    SendRaw(n, 0, Take(n, 20));
  }
  auto repair = ReceiveAt(1, MessageType::kCorrectionRequest);
  ASSERT_TRUE(repair.has_value());
  EXPECT_EQ(repair->epoch, 0u);

  // b's response is lost; b stays alive (heartbeats), so after the
  // timeout the root escalates to the full correction under a new epoch.
  std::optional<Message> escalated;
  for (int i = 0; i < 200 && !escalated.has_value(); ++i) {
    SendRate(0, 0, 500.0);
    SendRate(1, 0, 500.0);
    auto msg = fabric_->mailbox(topology_.locals[0])
                   ->PopWithTimeout(std::chrono::milliseconds(10));
    if (msg.has_value() && msg->type == MessageType::kCorrectionRequest) {
      escalated = msg;
    }
  }
  ASSERT_TRUE(escalated.has_value());
  EXPECT_EQ(escalated->epoch, 1u);
  epoch_ = escalated->epoch;
  const CorrectionRequest a_request = DecodeRequestOrDie(*escalated);
  EXPECT_EQ(a_request.from_index, 0u);
  EXPECT_EQ(a_request.count, kWindow + 1);
  auto b_msg = ReceiveAt(1, MessageType::kCorrectionRequest);
  ASSERT_TRUE(b_msg.has_value());
  EXPECT_EQ(b_msg->epoch, 1u);
  const CorrectionRequest b_request = DecodeRequestOrDie(*b_msg);
  EXPECT_EQ(b_request.from_index, 0u);

  next_id_.assign(2, 0);
  SendCorrectionResponse(0, a_request.round, Take(0, 570));
  SendCorrectionResponse(1, b_request.round, Take(1, 570));
  auto next = ReceiveAt(0, MessageType::kWindowAssignment);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->epoch, 1u);
  EXPECT_TRUE(report_.windows[0].corrected);
  EXPECT_DOUBLE_EQ(report_.windows[0].value, 1000.0);
  // The escalated repair counts once, and not as repaired.
  EXPECT_EQ(report_.correction_steps, 1u);
  EXPECT_EQ(report_.corrections_repaired, 0u);
}

TEST_F(RootNodeProtocolTest, LostResponseInEmptiedWindowIsAskedAgain) {
  DecoRootOptions options;
  options.node_timeout_nanos = 100 * kNanosPerMilli;
  Start(DecoScheme::kSync, options);
  const std::vector<CorrectionRequest> requests = EmptyFirstWindow();
  ASSERT_EQ(requests.size(), 2u);
  next_id_.assign(2, 0);
  SendCorrectionResponse(0, requests[0].round, Take(0, 570));

  // b's response is lost; b stays alive (heartbeats), so after the
  // timeout the root asks b again for the same events under a new round,
  // at the same epoch, and keeps a's response.
  std::optional<Message> again;
  for (int i = 0; i < 200 && !again.has_value(); ++i) {
    SendRate(0, 0, 500.0);
    SendRate(1, 0, 500.0);
    auto msg = fabric_->mailbox(topology_.locals[1])
                   ->PopWithTimeout(std::chrono::milliseconds(10));
    if (msg.has_value() && msg->type == MessageType::kCorrectionRequest) {
      again = msg;
    }
  }
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->epoch, epoch_);
  const CorrectionRequest retry = DecodeRequestOrDie(*again);
  EXPECT_EQ(retry.window_index, 0u);
  EXPECT_EQ(retry.from_index, requests[1].from_index);
  EXPECT_EQ(retry.count, requests[1].count);
  EXPECT_GT(retry.round, requests[1].round);

  SendCorrectionResponse(1, retry.round, Take(1, 570));
  auto next = ReceiveAt(0, MessageType::kWindowAssignment);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->epoch, epoch_);
  EXPECT_TRUE(report_.windows[0].corrected);
  EXPECT_DOUBLE_EQ(report_.windows[0].value, 1000.0);
  EXPECT_EQ(report_.consumption.window(0)[0], 500u);
  EXPECT_EQ(report_.consumption.window(0)[1], 500u);
  EXPECT_EQ(report_.correction_steps, 1u);
}

TEST_F(RootNodeProtocolTest, RollbackAssignmentNamesTheNextWindow) {
  Start(DecoScheme::kAsync);
  SendRate(0, 0, 500.0);
  SendRate(1, 0, 500.0);
  ASSERT_TRUE(ReceiveAt(0, MessageType::kWindowAssignment).has_value());
  ASSERT_TRUE(ReceiveAt(1, MessageType::kWindowAssignment).has_value());
  // Window 0 selects both end regions whole, so it waits for a's next
  // front. Window 1's inputs all arrive first, a's front last: the root
  // assembles window 0 and fails window 1 (b's slice of 520 overshoots)
  // before it sends window 1's assignment.
  for (size_t n = 0; n < 2; ++n) {
    SendSlice(n, 0, Take(n, 480));
    SendRaw(n, 0, Take(n, 20));
  }
  const EventVec a_front = Take(0, 20);
  const EventVec a_slice = Take(0, 460);
  SendSlice(0, 1, a_slice);
  SendRaw(0, 1, Take(0, 40));
  SendRaw(1, 1, Take(1, 20), BatchRole::kFront);
  const EventVec b_slice = Take(1, 520);
  SendSlice(1, 1, b_slice);
  SendRaw(1, 1, Take(1, 20));
  SendRaw(0, 1, a_front, BatchRole::kFront);

  auto request_msg = ReceiveAt(1, MessageType::kCorrectionRequest);
  ASSERT_TRUE(request_msg.has_value());
  const CorrectionRequest request = DecodeRequestOrDie(*request_msg);
  EXPECT_EQ(request.window_index, 1u);
  EXPECT_EQ(request.from_index, 20u);
  EXPECT_EQ(request.count, 520u);
  SendCorrectionResponse(1, request.round, b_slice, /*w=*/1);

  // The rollback assignment names window 2, the next one to assemble: a
  // local resuming at window 1 would plan regions the root drops as stale.
  auto next = ReceiveAt(0, MessageType::kWindowAssignment);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->epoch, 1u);
  EXPECT_EQ(DecodeAssignmentOrDie(*next).window_index, 2u);
  ASSERT_EQ(report_.windows_emitted, 2u);
  EXPECT_TRUE(report_.windows[1].corrected);
  EXPECT_DOUBLE_EQ(report_.windows[1].value, 1000.0);
  EXPECT_EQ(report_.consumption.window(1)[0], 500u);
  EXPECT_EQ(report_.consumption.window(1)[1], 500u);
}

TEST_F(RootNodeProtocolTest, AsyncFirstPredictedAssignmentStepsTheCarryTarget) {
  Start(DecoScheme::kAsync);
  // A node's bootstrap assignments (no predictor history: delta 62 =
  // 500 / 8) target a carry of (124 - 62) / 2 = 31 events. Its first
  // predicted one (sizes 500, delta 1) targets (15 - 7) / 2 = 4. Every
  // window below leaves the carry at the target of the assignment it
  // answers to, so the recentering's own term is zero and `size_adjust`
  // is the step alone.
  SendRate(0, 0, 500.0);
  SendRate(1, 0, 500.0);
  auto next_adjusts = [&](uint64_t w) {
    std::vector<int64_t> adjusts;
    for (size_t n = 0; n < 2; ++n) {
      auto msg = ReceiveAt(n, MessageType::kWindowAssignment);
      EXPECT_TRUE(msg.has_value());
      if (!msg.has_value()) return adjusts;
      const WindowAssignment assignment = DecodeAssignmentOrDie(*msg);
      EXPECT_EQ(assignment.window_index, w);
      adjusts.push_back(assignment.size_adjust);
    }
    return adjusts;
  };
  // Window 0 (the slack window: no front) and window 1 each leave 30 and
  // then 4 of every local's end events over the 500-event cut.
  next_adjusts(0);
  PlayBalancedWindow(0, 450, 80);
  EXPECT_EQ(next_adjusts(1), (std::vector<int64_t>{0, 0}));
  for (size_t n = 0; n < 2; ++n) {
    SendRaw(n, 1, Take(n, 10), BatchRole::kFront);
    SendSlice(n, 1, Take(n, 420));
    SendRaw(n, 1, Take(n, 44));
  }
  // The first predicted assignment carries the whole step, 4 - 31.
  EXPECT_EQ(next_adjusts(2), (std::vector<int64_t>{-27, -27}));
  ASSERT_EQ(report_.windows_emitted, 2u);
  EXPECT_EQ(report_.correction_steps, 0u);

  // Local a restarts. Its predictor starts over, the window is emptied,
  // and both locals resend their retained streams past window 1 (ids
  // 1000 on): the corrected window takes 500 of each.
  SendRate(0, 2, 500.0, MessageType::kRejoin);
  epoch_ = 1;
  const std::vector<CorrectionRequest> requests = ReceiveRequests();
  ASSERT_EQ(requests.size(), 2u);
  for (size_t n = 0; n < 2; ++n) {
    next_id_[n] = 1000;
    SendCorrectionResponse(n, requests[n].round, Take(n, 520), /*w=*/2);
  }
  next_adjusts(3);  // the rollback; a's predictor is not ready yet
  ASSERT_EQ(report_.windows_emitted, 3u);
  EXPECT_TRUE(report_.windows[2].corrected);
  // The locals re-plan from the watermark with a slack window, which
  // leaves 4 events each.
  for (size_t n = 0; n < 2; ++n) next_id_[n] = 1500;
  PlayBalancedWindow(3, 450, 54);
  // a's predictor is ready again, so its step is applied once more; b's
  // was spent.
  EXPECT_EQ(next_adjusts(4), (std::vector<int64_t>{-27, 0}));
  EXPECT_EQ(report_.windows_emitted, 4u);
  EXPECT_EQ(report_.correction_steps, 1u);
}

TEST_F(RootNodeProtocolTest, HolisticAggregateIsRejected) {
  fabric_ = std::make_unique<NetworkFabric>(SystemClock::Default(), 3);
  topology_.root = fabric_->RegisterNode("root");
  topology_.locals = {fabric_->RegisterNode("a")};
  ServedQuery query;
  query.query.window = WindowSpec::CountTumbling(kWindow);
  query.query.aggregate = AggregateKind::kMedian;
  ASSERT_TRUE(registry_.Add(std::move(query)).ok());
  root_ = std::make_unique<DecoRootNode>(
      fabric_.get(), topology_.root, SystemClock::Default(), &run_,
      topology_, &registry_, DecoScheme::kSync, &report_);
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
