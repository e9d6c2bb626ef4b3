#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <vector>

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
  static constexpr uint64_t kWindow = 10'000;

  void Start(DecoScheme scheme, uint64_t events = 50'000,
             DecoLocalOptions options = {},
             Clock* clock = SystemClock::Default()) {
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

    if (registry_.queries().empty()) {
      ServedQuery query;
      query.query.window = WindowSpec::CountTumbling(kWindow);
      ASSERT_TRUE(registry_.Add(std::move(query)).ok());
    }

    local_ = std::make_unique<DecoLocalNode>(
        fabric_.get(), topology_.locals[0], clock, &run_, topology_, ingest,
        &registry_, scheme, options);
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

  void SendCorrectionRequest(uint64_t w, uint64_t from_index, uint64_t count,
                             uint64_t epoch) {
    CorrectionRequest request;
    request.window_index = w;
    request.from_index = from_index;
    request.count = count;
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

  // Sends the root's slot schedule (`kQueryConfig`).
  void SendSchedule(const SlotSchedule& schedule) {
    ServeSnapshot snapshot;
    snapshot.pane_length = kWindow;
    snapshot.schedule.CopyFrom(schedule);
    BinaryWriter writer;
    EncodeServeSnapshot(snapshot, &writer);
    Message msg;
    msg.type = MessageType::kQueryConfig;
    msg.src = topology_.root;
    msg.dst = topology_.locals[0];
    msg.payload = writer.Release();
    ASSERT_TRUE(fabric_->Send(std::move(msg)).ok());
  }

  // Receives the next correction response and decodes it.
  CorrectionResponse ReceiveCorrection() {
    auto msg = ReceiveOfType(MessageType::kCorrectionResult);
    EXPECT_TRUE(msg.has_value());
    if (!msg.has_value()) return {};
    BinaryReader reader(msg->payload);
    return DecodeCorrectionResponse(&reader).value();
  }

  RunContext run_;
  std::unique_ptr<NetworkFabric> fabric_;
  Topology topology_;
  // Served by the local; a one-query registry unless a test fills it
  // before `Start`.
  QueryRegistry registry_;
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

TEST_F(LocalNodeProtocolTest, CorrectionShipsRequestedPrefix) {
  Start(DecoScheme::kSync);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);
  ASSERT_TRUE(ReceiveOfType(MessageType::kPartialResult).has_value());
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventBatch).has_value());

  // Pulls stop at the region boundary: the node retains exactly the 5100
  // planned events, not whole 512-event ingest batches.
  SendCorrectionRequest(0, 0, 5100, /*epoch=*/1);
  auto response_msg = ReceiveOfType(MessageType::kCorrectionResult);
  ASSERT_TRUE(response_msg.has_value());
  EXPECT_EQ(response_msg->epoch, 1u);  // echoes the request epoch
  BinaryReader reader(response_msg->payload);
  const CorrectionResponse response =
      DecodeCorrectionResponse(&reader).value();
  EXPECT_EQ(response.events.size(), 5100u);
  EXPECT_EQ(response.from_offset, 0u);
  EXPECT_FALSE(response.end_of_stream);

  // A longer prefix pulls only its shortfall: the heartbeat the blocked
  // node sends next reports the stream position at exactly 5300.
  SendCorrectionRequest(0, 0, 5300, 1);
  const CorrectionResponse longer = ReceiveCorrection();
  EXPECT_EQ(longer.events.size(), 5300u);
  EXPECT_EQ(longer.from_offset, 0u);
  EXPECT_TRUE(std::equal(response.events.begin(), response.events.end(),
                         longer.events.begin()));
  auto heartbeat = ReceiveOfType(MessageType::kEventRate);
  ASSERT_TRUE(heartbeat.has_value());
  BinaryReader hb_reader(heartbeat->payload);
  EXPECT_EQ(DecodeRateReport(&hb_reader).value().stream_position, 5300u);
}

TEST_F(LocalNodeProtocolTest, CorrectionTopUpContinuesAtFromIndex) {
  Start(DecoScheme::kSync);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);
  ASSERT_TRUE(ReceiveOfType(MessageType::kPartialResult).has_value());
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventBatch).has_value());

  SendCorrectionRequest(0, 0, 2000, 1);
  const CorrectionResponse first = ReceiveCorrection();
  ASSERT_EQ(first.events.size(), 2000u);

  // A top-up at from_index k continues at stream offset k with exactly the
  // requested count, inside the retained region and past its end alike.
  SendCorrectionRequest(0, 2000, 300, 1);
  const CorrectionResponse inside = ReceiveCorrection();
  EXPECT_EQ(inside.from_offset, 2000u);
  ASSERT_EQ(inside.events.size(), 300u);
  EXPECT_GT(inside.events.front().timestamp, first.events.back().timestamp);

  SendCorrectionRequest(0, 5000, 300, 1);
  const CorrectionResponse beyond = ReceiveCorrection();
  EXPECT_EQ(beyond.from_offset, 5000u);
  EXPECT_EQ(beyond.events.size(), 300u);
  EXPECT_FALSE(beyond.end_of_stream);

  // The same prefix asked again (a lost-message retry) ships the same
  // events: indices count from the watermark, not from earlier replies.
  SendCorrectionRequest(0, 2000, 300, 1);
  const CorrectionResponse again = ReceiveCorrection();
  EXPECT_EQ(again.from_offset, 2000u);
  EXPECT_EQ(again.events, inside.events);
}

TEST_F(LocalNodeProtocolTest, CorrectionAtStreamEndMarksCompletePrefixOnly) {
  Start(DecoScheme::kSync, /*events=*/6000);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);
  ASSERT_TRUE(ReceiveOfType(MessageType::kPartialResult).has_value());
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventBatch).has_value());

  // Asking past the budget exhausts the source and reaches the retained
  // end: the node's candidates are complete.
  SendCorrectionRequest(0, 0, 7000, 1);
  const CorrectionResponse all = ReceiveCorrection();
  EXPECT_EQ(all.events.size(), 6000u);
  EXPECT_TRUE(all.end_of_stream);

  // An exhausted source with retained events past the prefix is not.
  SendCorrectionRequest(0, 0, 5100, 1);
  const CorrectionResponse prefix = ReceiveCorrection();
  EXPECT_EQ(prefix.events.size(), 5100u);
  EXPECT_FALSE(prefix.end_of_stream);
}

TEST_F(LocalNodeProtocolTest, AsyncCorrectionShipsOneShareNotEveryWindow) {
  DecoLocalOptions options;
  options.max_unverified_windows = 4;
  Start(DecoScheme::kAsync, 100'000, options);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);
  // With no further assignment the node runs max_unverified_windows ahead
  // and blocks; its first heartbeat says it holds every one of them.
  int slices = 0;
  while (true) {
    auto msg = ReceiveAtRoot();
    ASSERT_TRUE(msg.has_value());
    if (msg->type == MessageType::kEventRate) break;
    if (msg->type == MessageType::kPartialResult) ++slices;
  }
  ASSERT_GE(slices, 4);

  // The correction asks for the node's share plus 2 delta; it gets no
  // more, not the 4+ unverified windows it retains.
  SendCorrectionRequest(0, 0, 5000 + 2 * 100, 1);
  const CorrectionResponse response = ReceiveCorrection();
  EXPECT_EQ(response.from_offset, 0u);
  EXPECT_GT(response.events.size(), 0u);
  EXPECT_LE(response.events.size(), 5200u);
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
  SendCorrectionRequest(0, 0, 5100, 1);
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

// The latency side channel keeps one creation stamp per pull. A region
// built from the tail of a pull that a compaction cut, a whole later pull
// and fresh pulls must ship the mean a per-event array gives, summed one
// event at a time in stream order, bit for bit.
TEST_F(LocalNodeProtocolTest, CreateMeanSpansPullsAndACompactedRun) {
  // Wall-clock-sized stamps, so a sum of thousands of them rounds.
  const TimeNanos t0 = 1'700'000'000'000'000'000;
  ManualClock clock(t0);
  Start(DecoScheme::kSync, 50'000, {}, &clock);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);  // pulls [0, 5100) at t0
  ASSERT_TRUE(ReceiveOfType(MessageType::kPartialResult).has_value());
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventBatch).has_value());

  // Each correction pulls its shortfall in one pull: [5100, 5300) at t1,
  // then [5300, 5600) at t2.
  const TimeNanos t1 = t0 + kNanosPerMilli;
  const TimeNanos t2 = t1 + kNanosPerMilli;
  clock.SetNanos(t1);
  SendCorrectionRequest(0, 0, 5300, 1);
  const CorrectionResponse first = ReceiveCorrection();
  ASSERT_EQ(first.events.size(), 5300u);
  clock.SetNanos(t2);
  SendCorrectionRequest(0, 0, 5600, 1);
  ASSERT_EQ(ReceiveCorrection().events.size(), 5600u);

  // A rollback to event 5199 drops 5200 of the 5600 retained events, which
  // compacts the buffer inside the t1 pull. Window 1 is then planned from
  // the 100 events left of it, the 300 of t2 and 4,500 pulled at t3.
  const TimeNanos t3 = t2 + kNanosPerMilli;
  clock.SetNanos(t3);
  const Event& cut = first.events[5199];
  SendAssignment(1, 5000, 100, /*epoch=*/1,
                 EventKey{cut.timestamp, cut.stream_id, cut.id});
  auto slice = ReceiveOfType(MessageType::kPartialResult);
  ASSERT_TRUE(slice.has_value());
  ASSERT_EQ(slice->window_index, 1u);
  ASSERT_EQ(slice->lat_event_count, 4900u);

  std::vector<double> create(100, static_cast<double>(t1));
  create.insert(create.end(), 300, static_cast<double>(t2));
  create.insert(create.end(), 4500, static_cast<double>(t3));
  double sum = 0.0;
  for (double stamp : create) sum += stamp;
  EXPECT_EQ(slice->lat_mean_create_nanos,
            sum / static_cast<double>(create.size()));
  // The stamps differ, so the mean is none of them.
  EXPECT_NE(slice->lat_mean_create_nanos, static_cast<double>(t3));
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

// A local learns its slots one way: each `kQueryConfig` snapshot replaces
// its whole schedule. A scheduled query's slot stays off until a snapshot
// activates it at pane 2; slices from window 2 on carry its extra, and a
// second snapshot that retires the slot at pane 4 stops them.
TEST_F(LocalNodeProtocolTest, ScheduleSnapshotActivatesAndRetiresSlot) {
  ServedQuery sum;
  sum.query.window = WindowSpec::CountTumbling(kWindow);
  ServedQuery max = sum;
  max.query.aggregate = AggregateKind::kMax;
  max.add_pane = 2;
  ASSERT_TRUE(registry_.Add(sum).ok());
  ASSERT_TRUE(registry_.Add(max).ok());
  ASSERT_EQ(registry_.slots().size(), 2u);
  Start(DecoScheme::kSync);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());

  SlotSchedule schedule;
  schedule.Reset(2);
  schedule.Activate(1, 2);
  SendSchedule(schedule);
  for (uint64_t w = 0; w < 6; ++w) {
    if (w == 4) {
      schedule.Retire(1, 4);
      SendSchedule(schedule);
    }
    SendAssignment(w, 5000, 100);
    auto msg = ReceiveOfType(MessageType::kPartialResult);
    ASSERT_TRUE(msg.has_value());
    ASSERT_EQ(msg->window_index, w);
    BinaryReader reader(msg->payload);
    const SliceSummary slice = DecodeSliceSummary(&reader).value();
    ASSERT_EQ(slice.event_count, 4900u);
    if (w < 2 || w >= 4) {
      EXPECT_TRUE(slice.extras.empty()) << "window " << w;
      continue;
    }
    ASSERT_EQ(slice.extras.size(), 1u) << "window " << w;
    EXPECT_EQ(slice.extras[0].slot, 1u);
    // The slot's partial is the max over the events the sum covers.
    const Partial& extra = slice.extras[0].partial;
    EXPECT_EQ(extra.kind, AggregateKind::kMax);
    EXPECT_EQ(extra.count, 4900u);
    EXPECT_GE(extra.max, slice.partial.sum / 4900.0);
  }
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
  SendCorrectionRequest(0, 0, 5100, 1);
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

  // And a second correction must resend from the trim: its prefix starts
  // right after the 4950 consumed events.
  SendCorrectionRequest(1, 0, 5100, 2);
  auto resend_msg = ReceiveOfType(MessageType::kCorrectionResult);
  ASSERT_TRUE(resend_msg.has_value());
  BinaryReader resend_reader(resend_msg->payload);
  const CorrectionResponse resend =
      DecodeCorrectionResponse(&resend_reader).value();
  EXPECT_EQ(resend.from_offset, 4950u);
}

}  // namespace
}  // namespace deco
