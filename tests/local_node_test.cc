#include <gtest/gtest.h>

#include <chrono>

#include "deco/local_node.h"
#include "node/runtime.h"

namespace deco {
namespace {

// Drives one real DecoLocalNode over the fabric from a scripted "root":
// the test body plays the root role, sending assignments and correction
// requests and asserting on the exact messages the local node emits.
class LocalNodeProtocolTest : public ::testing::Test {
 protected:
  static constexpr double kRate = 100'000.0;

  void Start(DecoScheme scheme, uint64_t events = 50'000,
             DecoLocalOptions options = {}) {
    fabric_ = std::make_unique<NetworkFabric>(SystemClock::Default(), 3);
    topology_.root = fabric_->RegisterNode("root");
    topology_.locals = {fabric_->RegisterNode("local")};

    IngestConfig ingest;
    StreamConfig stream;
    stream.stream_id = 0;
    stream.rate.base_rate = kRate;
    stream.rate.change_fraction = 0.0;
    stream.seed = 5;
    ingest.streams.push_back(stream);
    ingest.events_to_produce = events;
    ingest.batch_size = 512;

    QueryConfig query;
    query.window = WindowSpec::CountTumbling(10'000);

    local_ = std::make_unique<DecoLocalNode>(
        fabric_.get(), topology_.locals[0], SystemClock::Default(), &run_,
        topology_, ingest, query, scheme, options);
    local_->Start();
  }

  void TearDown() override {
    if (local_ != nullptr) {
      local_->RequestStop();
      fabric_->Shutdown();
      local_->Join();
    }
  }

  std::optional<Message> ReceiveAtRoot() {
    return fabric_->mailbox(topology_.root)
        ->PopWithTimeout(std::chrono::seconds(5));
  }

  // Receives until a message of `type` arrives; fails the test after a
  // bounded number of other messages.
  std::optional<Message> ReceiveOfType(MessageType type) {
    for (int i = 0; i < 64; ++i) {
      auto msg = ReceiveAtRoot();
      if (!msg.has_value()) return std::nullopt;
      if (msg->type == type) return msg;
    }
    return std::nullopt;
  }

  void SendAssignment(uint64_t w, uint64_t size, uint64_t delta,
                      uint64_t epoch = 0, EventKey wm = EventKey{}) {
    WindowAssignment assignment;
    assignment.window_index = w;
    assignment.local_window_size = size;
    assignment.delta = delta;
    assignment.wm_ts = wm.ts;
    assignment.wm_stream = wm.stream;
    assignment.wm_id = wm.id;
    BinaryWriter writer;
    EncodeWindowAssignment(assignment, &writer);
    Message msg;
    msg.type = MessageType::kWindowAssignment;
    msg.src = topology_.root;
    msg.dst = topology_.locals[0];
    msg.window_index = w;
    msg.epoch = epoch;
    msg.payload = writer.Release();
    ASSERT_TRUE(fabric_->Send(std::move(msg)).ok());
  }

  void SendCorrectionRequest(uint64_t w, uint64_t topup, uint64_t epoch) {
    CorrectionRequest request;
    request.window_index = w;
    request.topup_events = topup;
    BinaryWriter writer;
    EncodeCorrectionRequest(request, &writer);
    Message msg;
    msg.type = MessageType::kCorrectionRequest;
    msg.src = topology_.root;
    msg.dst = topology_.locals[0];
    msg.window_index = w;
    msg.epoch = epoch;
    msg.payload = writer.Release();
    ASSERT_TRUE(fabric_->Send(std::move(msg)).ok());
  }

  RunContext run_;
  std::unique_ptr<NetworkFabric> fabric_;
  Topology topology_;
  std::unique_ptr<DecoLocalNode> local_;
};

TEST_F(LocalNodeProtocolTest, ReportsRateOnStartup) {
  Start(DecoScheme::kSync);
  auto msg = ReceiveOfType(MessageType::kEventRate);
  ASSERT_TRUE(msg.has_value());
  BinaryReader reader(msg->payload);
  const RateReport report = DecodeRateReport(&reader).value();
  EXPECT_EQ(report.window_index, 0u);
  EXPECT_NEAR(report.event_rate, kRate, 1.0);
  EXPECT_EQ(report.stream_position, 0u);
}

TEST_F(LocalNodeProtocolTest, SyncWindowShipsSliceAndEndBuffer) {
  Start(DecoScheme::kSync);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);

  // Sync layout: slice = 5000-100 = 4900, end buffer = 200.
  auto slice = ReceiveOfType(MessageType::kPartialResult);
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(slice->window_index, 0u);
  BinaryReader reader(slice->payload);
  const SliceSummary summary = DecodeSliceSummary(&reader).value();
  EXPECT_EQ(summary.event_count, 4900u);
  EXPECT_GT(summary.max_ts, summary.min_ts);
  EXPECT_NEAR(summary.event_rate, kRate, 1.0);
  EXPECT_EQ(slice->lat_event_count, 4900u);

  auto end = ReceiveOfType(MessageType::kEventBatch);
  ASSERT_TRUE(end.has_value());
  BinaryReader end_reader(end->payload);
  const EventBatchPayload batch = DecodeEventBatch(&end_reader).value();
  EXPECT_EQ(batch.role, BatchRole::kEnd);
  EXPECT_EQ(batch.events.size(), 200u);
  // The end buffer continues exactly where the slice stopped.
  EXPECT_GT(batch.events.front().timestamp, summary.max_ts);
}

TEST_F(LocalNodeProtocolTest, SyncBlocksUntilNextAssignment) {
  Start(DecoScheme::kSync);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);
  ASSERT_TRUE(ReceiveOfType(MessageType::kPartialResult).has_value());
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventBatch).has_value());
  // No assignment for window 1: the synchronous local node must wait.
  // While blocked it sends nothing but liveness heartbeats (kEventRate,
  // every heartbeat_nanos) — never data for an unassigned window.
  for (int i = 0; i < 3; ++i) {
    auto extra = fabric_->mailbox(topology_.root)
                     ->PopWithTimeout(std::chrono::milliseconds(100));
    if (!extra.has_value()) continue;
    EXPECT_EQ(extra->type, MessageType::kEventRate)
        << "blocked node sent " << MessageTypeToString(extra->type);
  }
  // Assignment arrives: window 1 flows.
  SendAssignment(1, 5000, 100);
  EXPECT_TRUE(ReceiveOfType(MessageType::kPartialResult).has_value());
}

TEST_F(LocalNodeProtocolTest, AsyncPipelinesWithoutWaiting) {
  DecoLocalOptions options;
  options.max_unverified_windows = 3;
  Start(DecoScheme::kAsync, 50'000, options);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);
  // Without any further assignment the async node produces windows
  // 0..max_unverified ahead; each window ships slice + end (plus fronts
  // for steady-state windows). The first heartbeat (kEventRate after the
  // startup report) is the positive signal that the node hit the
  // pipeline cap and blocked.
  int slices = 0;
  while (true) {
    auto msg = fabric_->mailbox(topology_.root)
                   ->PopWithTimeout(std::chrono::milliseconds(300));
    if (!msg.has_value()) break;
    if (msg->type == MessageType::kEventRate) break;  // blocked: heartbeat
    if (msg->type == MessageType::kPartialResult) ++slices;
  }
  EXPECT_GE(slices, 3);
  EXPECT_LE(slices, 5);  // bounded by the pipeline cap
}

TEST_F(LocalNodeProtocolTest, AsyncFirstWindowIsSlackLayout) {
  Start(DecoScheme::kAsync);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);
  // Slack layout has no front buffer; its first data message is the slice.
  auto first = ReceiveOfType(MessageType::kPartialResult);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->window_index, 0u);
  // Window 1 (steady async layout) starts with a front buffer.
  std::optional<Message> front;
  for (int i = 0; i < 32; ++i) {
    auto msg = ReceiveAtRoot();
    ASSERT_TRUE(msg.has_value());
    if (msg->type == MessageType::kEventBatch && msg->window_index == 1) {
      front = msg;
      break;
    }
  }
  ASSERT_TRUE(front.has_value());
  BinaryReader reader(front->payload);
  EXPECT_EQ(DecodeEventBatch(&reader).value().role, BatchRole::kFront);
}

TEST_F(LocalNodeProtocolTest, CorrectionResendsFullRetainedRegion) {
  Start(DecoScheme::kSync);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);
  ASSERT_TRUE(ReceiveOfType(MessageType::kPartialResult).has_value());
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventBatch).has_value());

  SendCorrectionRequest(0, 0, /*epoch=*/1);
  auto response_msg = ReceiveOfType(MessageType::kCorrectionResult);
  ASSERT_TRUE(response_msg.has_value());
  EXPECT_EQ(response_msg->epoch, 1u);  // echoes the request epoch
  BinaryReader reader(response_msg->payload);
  const CorrectionResponse response =
      DecodeCorrectionResponse(&reader).value();
  // Retained = the produced region (5100 events) rounded up to whole
  // ingest batches (512): events are pulled batch-wise into retention.
  EXPECT_EQ(response.events.size(), 5120u);
  EXPECT_EQ(response.from_offset, 0u);
  EXPECT_FALSE(response.end_of_stream);
}

TEST_F(LocalNodeProtocolTest, CorrectionTopUpPullsFreshEvents) {
  Start(DecoScheme::kSync);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);
  ASSERT_TRUE(ReceiveOfType(MessageType::kPartialResult).has_value());
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventBatch).has_value());

  SendCorrectionRequest(0, 0, 1);
  ASSERT_TRUE(ReceiveOfType(MessageType::kCorrectionResult).has_value());
  SendCorrectionRequest(0, 300, 1);
  auto topup_msg = ReceiveOfType(MessageType::kCorrectionResult);
  ASSERT_TRUE(topup_msg.has_value());
  BinaryReader reader(topup_msg->payload);
  const CorrectionResponse topup =
      DecodeCorrectionResponse(&reader).value();
  // Top-ups are served in whole ingest batches (>= the requested count).
  EXPECT_GE(topup.events.size(), 300u);
  EXPECT_EQ(topup.from_offset, 5120u);
}

TEST_F(LocalNodeProtocolTest, RollbackReplansFromWatermark) {
  Start(DecoScheme::kSync);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);
  ASSERT_TRUE(ReceiveOfType(MessageType::kPartialResult).has_value());
  auto end = ReceiveOfType(MessageType::kEventBatch);
  ASSERT_TRUE(end.has_value());
  BinaryReader end_reader(end->payload);
  const EventBatchPayload end_batch = DecodeEventBatch(&end_reader).value();

  // Pretend the correction consumed exactly 5000 events; the watermark is
  // the key of the 5000th event (the 100th event of the end buffer).
  const Event& cut = end_batch.events[99];
  SendCorrectionRequest(0, 0, 1);
  ASSERT_TRUE(ReceiveOfType(MessageType::kCorrectionResult).has_value());
  SendAssignment(1, 5000, 100, /*epoch=*/1,
                 EventKey{cut.timestamp, cut.stream_id, cut.id});

  // The re-planned window 1 must start right after the watermark: its
  // slice begins with the 101st end-buffer event.
  auto slice = ReceiveOfType(MessageType::kPartialResult);
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(slice->window_index, 1u);
  BinaryReader reader(slice->payload);
  const SliceSummary summary = DecodeSliceSummary(&reader).value();
  EXPECT_EQ(summary.min_ts, end_batch.events[100].timestamp);
}

TEST_F(LocalNodeProtocolTest, EndOfStreamAnnounced) {
  Start(DecoScheme::kSync, /*events=*/6000);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);  // region 5100 < 6000
  ASSERT_TRUE(ReceiveOfType(MessageType::kPartialResult).has_value());
  SendAssignment(1, 5000, 100);  // second window exhausts the budget
  auto slice = ReceiveOfType(MessageType::kPartialResult);
  ASSERT_TRUE(slice.has_value());
  BinaryReader reader(slice->payload);
  // Only 900 events remain for the 4900-event slice.
  EXPECT_EQ(DecodeSliceSummary(&reader).value().event_count, 900u);
  EXPECT_TRUE(ReceiveOfType(MessageType::kShutdown).has_value());
}

TEST_F(LocalNodeProtocolTest, MonSendsRateReportPerWindow) {
  Start(DecoScheme::kMon);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);
  ASSERT_TRUE(ReceiveOfType(MessageType::kPartialResult).has_value());
  // After producing window 0, mon reports the rate for window 1 without
  // needing any prompt (the initialization up-flow of the next window).
  auto report_msg = ReceiveOfType(MessageType::kEventRate);
  ASSERT_TRUE(report_msg.has_value());
  BinaryReader reader(report_msg->payload);
  EXPECT_EQ(DecodeRateReport(&reader).value().window_index, 1u);
}

// Regression: the watermark of a normal (non-rollback) assignment must
// never drop retained events that were not yet produced into regions —
// they would be lost for future correction resends. Conversely a
// rollback assignment (higher epoch) trims everything at or below the
// watermark, because the corrected window consumed it from the complete
// candidate streams; leaving it would re-produce duplicates.
TEST_F(LocalNodeProtocolTest, RollbackTrimsConsumedEventsExactly) {
  Start(DecoScheme::kSync);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);
  ASSERT_TRUE(ReceiveOfType(MessageType::kPartialResult).has_value());
  auto end = ReceiveOfType(MessageType::kEventBatch);
  ASSERT_TRUE(end.has_value());
  BinaryReader end_reader(end->payload);
  const EventBatchPayload end_batch = DecodeEventBatch(&end_reader).value();

  // Correct window 0 consuming 4950 events; rollback assignment carries
  // the cut key and the bumped epoch.
  SendCorrectionRequest(0, 0, 1);
  ASSERT_TRUE(ReceiveOfType(MessageType::kCorrectionResult).has_value());
  const Event& cut = end_batch.events[49];  // slice 4900 + 50
  SendAssignment(1, 5000, 100, /*epoch=*/1,
                 EventKey{cut.timestamp, cut.stream_id, cut.id});

  // Window 1's slice must start at exactly the first unconsumed event; a
  // double-consumed (or lost) event would shift its first timestamp.
  auto slice = ReceiveOfType(MessageType::kPartialResult);
  ASSERT_TRUE(slice.has_value());
  BinaryReader reader(slice->payload);
  const SliceSummary summary = DecodeSliceSummary(&reader).value();
  EXPECT_EQ(summary.min_ts, end_batch.events[50].timestamp);

  // And a second correction must resend a region whose size reflects the
  // trim: everything retained minus the 4950 consumed events.
  SendCorrectionRequest(1, 0, 2);
  auto resend_msg = ReceiveOfType(MessageType::kCorrectionResult);
  ASSERT_TRUE(resend_msg.has_value());
  BinaryReader resend_reader(resend_msg->payload);
  const CorrectionResponse resend =
      DecodeCorrectionResponse(&resend_reader).value();
  EXPECT_EQ(resend.from_offset, 4950u);
}

}  // namespace
}  // namespace deco
