#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "node/apportion.h"
#include "node/protocol.h"

namespace deco {
namespace {

// ------------------------------------------------------- Payload codecs

TEST(ProtocolTest, SliceSummaryRoundTrip) {
  SliceSummary summary;
  summary.partial.kind = AggregateKind::kSum;
  summary.partial.sum = 123.5;
  summary.partial.count = 42;
  summary.event_count = 42;
  summary.min_ts = 100;
  summary.max_ts = 900;
  summary.max_stream_id = 3;
  summary.max_event_id = 777;
  summary.event_rate = 1234.5;

  BinaryWriter writer;
  EncodeSliceSummary(summary, &writer);
  BinaryReader reader(writer.buffer());
  const SliceSummary decoded = DecodeSliceSummary(&reader).value();
  EXPECT_EQ(decoded.event_count, summary.event_count);
  EXPECT_EQ(decoded.min_ts, summary.min_ts);
  EXPECT_EQ(decoded.max_ts, summary.max_ts);
  EXPECT_EQ(decoded.max_stream_id, summary.max_stream_id);
  EXPECT_EQ(decoded.max_event_id, summary.max_event_id);
  EXPECT_DOUBLE_EQ(decoded.event_rate, summary.event_rate);
  EXPECT_DOUBLE_EQ(decoded.partial.sum, summary.partial.sum);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ProtocolTest, WindowAssignmentRoundTrip) {
  WindowAssignment assignment;
  assignment.window_index = 17;
  assignment.local_window_size = 123456;
  assignment.delta = 789;
  assignment.size_adjust = -55;
  assignment.wm_ts = 987654321;
  assignment.wm_stream = 6;
  assignment.wm_id = 12345;

  BinaryWriter writer;
  EncodeWindowAssignment(assignment, &writer);
  BinaryReader reader(writer.buffer());
  const WindowAssignment decoded = DecodeWindowAssignment(&reader).value();
  EXPECT_EQ(decoded.window_index, assignment.window_index);
  EXPECT_EQ(decoded.local_window_size, assignment.local_window_size);
  EXPECT_EQ(decoded.delta, assignment.delta);
  EXPECT_EQ(decoded.size_adjust, assignment.size_adjust);
  EXPECT_EQ(decoded.wm_ts, assignment.wm_ts);
  EXPECT_EQ(decoded.wm_stream, assignment.wm_stream);
  EXPECT_EQ(decoded.wm_id, assignment.wm_id);
}

TEST(ProtocolTest, RateReportRoundTrip) {
  RateReport report;
  report.window_index = 3;
  report.event_rate = 99.25;
  report.stream_position = 4096;
  report.incarnation = 2;
  BinaryWriter writer;
  EncodeRateReport(report, &writer);
  BinaryReader reader(writer.buffer());
  const RateReport decoded = DecodeRateReport(&reader).value();
  EXPECT_EQ(decoded.window_index, 3u);
  EXPECT_DOUBLE_EQ(decoded.event_rate, 99.25);
  EXPECT_EQ(decoded.stream_position, 4096u);
  EXPECT_EQ(decoded.incarnation, 2u);
}

TEST(ProtocolTest, CorrectionRequestRoundTrip) {
  CorrectionRequest request;
  request.window_index = 8;
  // The root asks for a prefix of the node's retained stream.
  request.from_index = 1200;
  request.count = 4096;
  request.round = 3;
  // The root's watermark rides along so a rejoining local can discard
  // retained events at or below it (already covered by emitted windows).
  request.wm_ts = 123456789;
  request.wm_stream = 7;
  request.wm_id = 42;
  BinaryWriter writer;
  EncodeCorrectionRequest(request, &writer);
  BinaryReader reader(writer.buffer());
  const CorrectionRequest decoded = DecodeCorrectionRequest(&reader).value();
  EXPECT_EQ(decoded.window_index, 8u);
  EXPECT_EQ(decoded.from_index, 1200u);
  EXPECT_EQ(decoded.count, 4096u);
  EXPECT_EQ(decoded.round, 3u);
  EXPECT_EQ(decoded.wm_ts, 123456789);
  EXPECT_EQ(decoded.wm_stream, 7u);
  EXPECT_EQ(decoded.wm_id, 42u);
}

TEST(ProtocolTest, CorrectionResponseRoundTrip) {
  CorrectionResponse response;
  response.window_index = 5;
  response.from_offset = 1000;
  response.end_of_stream = true;
  for (int i = 0; i < 10; ++i) {
    Event e;
    e.id = i;
    e.stream_id = 1;
    e.value = i * 0.5;
    e.timestamp = 100 + i;
    response.events.push_back(e);
  }
  BinaryWriter writer;
  EncodeCorrectionResponse(response, &writer);
  BinaryReader reader(writer.buffer());
  const CorrectionResponse decoded =
      DecodeCorrectionResponse(&reader).value();
  EXPECT_EQ(decoded.window_index, 5u);
  EXPECT_EQ(decoded.from_offset, 1000u);
  EXPECT_TRUE(decoded.end_of_stream);
  EXPECT_EQ(decoded.events, response.events);
}

TEST(ProtocolTest, EventBatchRoundTripWithRole) {
  EventBatchPayload batch;
  batch.from_offset = 12345;
  batch.end_of_stream = false;
  batch.role = BatchRole::kFront;
  Event e;
  e.id = 9;
  e.timestamp = 77;
  batch.events.push_back(e);

  BinaryWriter writer;
  EncodeEventBatch(batch, &writer);
  BinaryReader reader(writer.buffer());
  const EventBatchPayload decoded = DecodeEventBatch(&reader).value();
  EXPECT_EQ(decoded.from_offset, 12345u);
  EXPECT_FALSE(decoded.end_of_stream);
  EXPECT_EQ(decoded.role, BatchRole::kFront);
  EXPECT_EQ(decoded.events, batch.events);
}

TEST(ProtocolTest, EventBatchTextRoundTrip) {
  EventBatchPayload batch;
  batch.from_offset = 7;
  batch.end_of_stream = true;
  for (int i = 0; i < 5; ++i) {
    Event e;
    e.id = i;
    e.stream_id = 2;
    e.value = 1.5 * i;
    e.timestamp = 50 + i;
    batch.events.push_back(e);
  }
  const EventBatchPayload decoded =
      DecodeEventBatchText(EncodeEventBatchText(batch)).value();
  EXPECT_EQ(decoded.from_offset, 7u);
  EXPECT_TRUE(decoded.end_of_stream);
  ASSERT_EQ(decoded.events.size(), 5u);
  EXPECT_EQ(decoded.events[4].timestamp, 54);
}

TEST(ProtocolTest, MalformedInputsAreErrors) {
  // BinaryReader holds a reference to the buffer, so it must be a named
  // lvalue that outlives the reader.
  const std::string empty;
  BinaryReader empty_reader(empty);
  EXPECT_FALSE(DecodeSliceSummary(&empty_reader).ok());
  BinaryReader empty_reader2(empty);
  EXPECT_FALSE(DecodeWindowAssignment(&empty_reader2).ok());
  EXPECT_FALSE(DecodeEventBatchText("no newline").ok());
  EXPECT_FALSE(DecodeEventBatchText("wrong;header\n").ok());
  // A bad role byte must be rejected.
  BinaryWriter writer;
  writer.PutU64(0);
  writer.PutU8(0);
  writer.PutU8(9);  // invalid role
  writer.PutU64(0);
  BinaryReader reader(writer.buffer());
  EXPECT_FALSE(DecodeEventBatch(&reader).ok());
}

TEST(ProtocolTest, HugeSliceExtrasCountIsRejectedNotAllocated) {
  SliceSummary summary;
  summary.partial.kind = AggregateKind::kSum;
  BinaryWriter writer;
  EncodeSliceSummary(summary, &writer);
  // The extras count is the last field; claim 2^32 - 1 extras with no
  // bytes behind them.
  std::string buf = writer.Release();
  const uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(buf.data() + buf.size() - sizeof(huge), &huge, sizeof(huge));
  BinaryReader reader(buf);
  EXPECT_TRUE(DecodeSliceSummary(&reader).status().IsOutOfRange());
}

// Every proper prefix of an encoded message must fail to decode with an
// error, never read past the buffer or decode a shorter message.
template <typename Decode>
void ExpectEveryPrefixFails(const std::string& encoded, Decode decode) {
  for (size_t n = 0; n < encoded.size(); ++n) {
    const std::string prefix = encoded.substr(0, n);
    BinaryReader reader(prefix);
    EXPECT_FALSE(decode(&reader).ok()) << "prefix of " << n << " bytes";
  }
  BinaryReader reader(encoded);
  EXPECT_TRUE(decode(&reader).ok());
  EXPECT_TRUE(reader.AtEnd());
}

EventVec SampleEvents(size_t n) {
  EventVec events;
  for (size_t i = 0; i < n; ++i) {
    Event e;
    e.id = 1000 + i;
    e.stream_id = static_cast<StreamId>(i % 3);
    e.value = -0.25 * static_cast<double>(i);
    e.timestamp = 5000 + 7 * static_cast<EventTime>(i);
    events.push_back(e);
  }
  return events;
}

TEST(ProtocolTest, EveryEventBatchPrefixFailsToDecode) {
  EventBatchPayload batch;
  batch.from_offset = 42;
  batch.role = BatchRole::kEnd;
  batch.events = SampleEvents(5);
  BinaryWriter writer;
  EncodeEventBatch(batch, &writer);
  ExpectEveryPrefixFails(writer.buffer(), DecodeEventBatch);
}

TEST(ProtocolTest, EveryCorrectionRequestPrefixFailsToDecode) {
  CorrectionRequest request;
  request.window_index = 3;
  request.from_index = 250;
  request.count = 1001;
  request.wm_ts = 9000;
  request.wm_stream = 2;
  request.wm_id = 17;
  request.round = 4;
  BinaryWriter writer;
  EncodeCorrectionRequest(request, &writer);
  ExpectEveryPrefixFails(writer.buffer(), DecodeCorrectionRequest);
}

TEST(ProtocolTest, EveryCorrectionResponsePrefixFailsToDecode) {
  CorrectionResponse response;
  response.window_index = 3;
  response.from_offset = 77;
  response.round = 2;
  response.events = SampleEvents(5);
  BinaryWriter writer;
  EncodeCorrectionResponse(response, &writer);
  ExpectEveryPrefixFails(writer.buffer(), DecodeCorrectionResponse);
}

// 20 streams, more than a batch's 15-slot table, in round-robin order:
// streams 15-19 are escaped on every event. Every fourth event skips ids
// and timestamps fall back once in a while.
EventVec ManyStreamEvents(size_t n) {
  EventVec events;
  for (size_t i = 0; i < n; ++i) {
    Event e;
    e.stream_id = static_cast<StreamId>(100 + i % 20);
    e.id = i / 20 + (i % 4 == 0 ? 1000 * i : 0);
    e.value = 0.5 * static_cast<double>(i);
    e.timestamp = 1'000'000 + 700 * static_cast<EventTime>(i) -
                  (i % 7 == 0 ? 5'000 : 0);
    events.push_back(e);
  }
  return events;
}

TEST(ProtocolTest, ManyStreamPayloadsRoundTripAndEveryPrefixFails) {
  EventBatchPayload batch;
  batch.from_offset = 9;
  batch.role = BatchRole::kFront;
  batch.events = ManyStreamEvents(60);
  BinaryWriter batch_writer;
  EncodeEventBatch(batch, &batch_writer);
  BinaryReader batch_reader(batch_writer.buffer());
  EXPECT_EQ(DecodeEventBatch(&batch_reader).value().events, batch.events);
  ExpectEveryPrefixFails(batch_writer.buffer(), DecodeEventBatch);

  CorrectionResponse response;
  response.window_index = 4;
  response.events = ManyStreamEvents(45);
  BinaryWriter response_writer;
  EncodeCorrectionResponse(response, &response_writer);
  BinaryReader response_reader(response_writer.buffer());
  EXPECT_EQ(DecodeCorrectionResponse(&response_reader).value().events,
            response.events);
  ExpectEveryPrefixFails(response_writer.buffer(), DecodeCorrectionResponse);
}

// ------------------------------------------------------------ Apportion

TEST(ApportionTest, SumsExactlyToTotal) {
  const auto shares = ApportionWindow(1000, {1.2e6, 0.8e6}).value();
  EXPECT_EQ(shares[0] + shares[1], 1000u);
  // The paper's example: 1.2M and 0.8M rates split 1M as 0.6M / 0.4M.
  EXPECT_EQ(shares[0], 600u);
  EXPECT_EQ(shares[1], 400u);
}

TEST(ApportionTest, LargestRemainderHandlesFractions) {
  const auto shares = ApportionWindow(10, {1.0, 1.0, 1.0}).value();
  EXPECT_EQ(shares[0] + shares[1] + shares[2], 10u);
  // 10/3: two nodes get 3, one gets 4 (deterministic tie-break).
  std::vector<uint64_t> sorted = shares;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted[0], 3u);
  EXPECT_EQ(sorted[2], 4u);
}

TEST(ApportionTest, ZeroWeightsSplitEvenly) {
  const auto shares = ApportionWindow(9, {0.0, 0.0, 0.0}).value();
  EXPECT_EQ(shares[0] + shares[1] + shares[2], 9u);
}

TEST(ApportionTest, RejectsInvalidWeights) {
  EXPECT_FALSE(ApportionWindow(10, {}).ok());
  EXPECT_FALSE(ApportionWindow(10, {-1.0, 2.0}).ok());
  EXPECT_FALSE(
      ApportionWindow(10, {std::numeric_limits<double>::infinity()}).ok());
}

TEST(ApportionTest, DeterministicAcrossCalls) {
  const std::vector<double> weights{3.1, 2.9, 4.05, 1.95};
  const auto a = ApportionWindow(12345, weights).value();
  const auto b = ApportionWindow(12345, weights).value();
  EXPECT_EQ(a, b);
}

// Property sweep: proportionality within one unit for many weight shapes.
class ApportionProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ApportionProperty, SharesAreProportionalWithinOneUnit) {
  const uint64_t total = GetParam();
  const std::vector<double> weights{5.0, 3.0, 2.0};
  const auto shares = ApportionWindow(total, weights).value();
  uint64_t sum = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double exact = total * weights[i] / 10.0;
    EXPECT_NEAR(static_cast<double>(shares[i]), exact, 1.0) << "i=" << i;
    sum += shares[i];
  }
  EXPECT_EQ(sum, total);
}

INSTANTIATE_TEST_SUITE_P(Totals, ApportionProperty,
                         ::testing::Values(1, 7, 10, 99, 1000, 999'983,
                                           1'000'000));

}  // namespace
}  // namespace deco
