#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/random.h"
#include "event/event.h"
#include "event/serde.h"
#include "harness/experiment.h"
#include "node/stream_set.h"
#include "obs/profiler.h"

namespace deco {
namespace {

Event MakeEvent(EventId id, StreamId stream, double value, EventTime ts) {
  Event e;
  e.id = id;
  e.stream_id = stream;
  e.value = value;
  e.timestamp = ts;
  return e;
}

// ------------------------------------------------------------- Ordering

TEST(EventOrderTest, OrdersByTimestampFirst) {
  EventTimestampLess less;
  EXPECT_TRUE(less(MakeEvent(5, 3, 0, 10), MakeEvent(1, 0, 0, 20)));
  EXPECT_FALSE(less(MakeEvent(1, 0, 0, 20), MakeEvent(5, 3, 0, 10)));
}

TEST(EventOrderTest, TiesBreakByStreamThenId) {
  EventTimestampLess less;
  // Same timestamp: lower stream id wins.
  EXPECT_TRUE(less(MakeEvent(9, 1, 0, 10), MakeEvent(0, 2, 0, 10)));
  // Same timestamp and stream: lower event id wins.
  EXPECT_TRUE(less(MakeEvent(3, 1, 0, 10), MakeEvent(4, 1, 0, 10)));
  // Identical keys are not less than each other.
  EXPECT_FALSE(less(MakeEvent(3, 1, 0, 10), MakeEvent(3, 1, 0, 10)));
}

TEST(EventOrderTest, IsStrictWeakOrderOnSample) {
  EventTimestampLess less;
  std::vector<Event> events;
  for (EventTime ts : {10, 20}) {
    for (StreamId s : {0u, 1u}) {
      for (EventId id : {0u, 1u}) {
        events.push_back(MakeEvent(id, s, 0, ts));
      }
    }
  }
  std::sort(events.begin(), events.end(), less);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_FALSE(less(events[i], events[i - 1]));
  }
}

TEST(EventTest, ToStringMentionsFields) {
  const std::string s = ToString(MakeEvent(7, 2, 3.5, 99));
  EXPECT_NE(s.find("id=7"), std::string::npos);
  EXPECT_NE(s.find("stream=2"), std::string::npos);
  EXPECT_NE(s.find("ts=99"), std::string::npos);
}

// --------------------------------------------------------- Binary serde

TEST(BinarySerdeTest, PrimitiveRoundTrip) {
  BinaryWriter writer;
  writer.PutU8(200);
  writer.PutU32(123456);
  writer.PutU64(1ull << 60);
  writer.PutI64(-42);
  writer.PutDouble(3.25);
  writer.PutString("hello");

  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.GetU8().value(), 200);
  EXPECT_EQ(reader.GetU32().value(), 123456u);
  EXPECT_EQ(reader.GetU64().value(), 1ull << 60);
  EXPECT_EQ(reader.GetI64().value(), -42);
  EXPECT_DOUBLE_EQ(reader.GetDouble().value(), 3.25);
  EXPECT_EQ(reader.GetString().value(), "hello");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BinarySerdeTest, EventBatchRoundTrip) {
  EventVec events;
  for (int i = 0; i < 100; ++i) {
    events.push_back(MakeEvent(i, i % 3, i * 0.5, 1000 + i));
  }
  BinaryWriter writer;
  writer.PutEvents(events);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.GetEvents().value(), events);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BinarySerdeTest, UnderflowIsError) {
  BinaryWriter writer;
  writer.PutU32(1);
  BinaryReader reader(writer.buffer());
  EXPECT_TRUE(reader.GetU64().status().IsOutOfRange());
}

TEST(BinarySerdeTest, TruncatedStringIsError) {
  BinaryWriter writer;
  writer.PutU32(100);  // claims 100 bytes follow
  BinaryReader reader(writer.buffer());
  EXPECT_TRUE(reader.GetString().status().IsOutOfRange());
}

TEST(BinarySerdeTest, HugeEventCountIsRejectedNotAllocated) {
  BinaryWriter writer;
  writer.PutU64(1ull << 60);  // absurd count with no bytes behind it
  BinaryReader reader(writer.buffer());
  EXPECT_TRUE(reader.GetEvents().status().IsOutOfRange());
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Field by field, values by their bits: `Event::operator==` compares
// doubles with `==`, so a NaN never equals itself and -0.0 equals 0.0.
void ExpectBitIdentical(const EventVec& decoded, const EventVec& events) {
  ASSERT_EQ(decoded.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(decoded[i].id, events[i].id) << "event " << i;
    EXPECT_EQ(decoded[i].stream_id, events[i].stream_id) << "event " << i;
    EXPECT_EQ(decoded[i].timestamp, events[i].timestamp) << "event " << i;
    EXPECT_EQ(Bits(decoded[i].value), Bits(events[i].value)) << "event " << i;
  }
}

// A batch in none of the generator's shapes: up to 40 streams (the slot
// table holds 15), ids that skip, repeat and go back, timestamps that tie,
// go back and jump between the extremes, and values with NaN payloads,
// signed zeros, denormals and infinities.
EventVec RandomBatch(Rng* rng) {
  constexpr EventTime kMin = std::numeric_limits<EventTime>::min();
  constexpr EventTime kMax = std::numeric_limits<EventTime>::max();
  const double kOddValues[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -FromBits(0x000FFFFFFFFFFFFFull),  // largest negative denormal
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      FromBits(0x7FF8000000000001ull),  // quiet NaN with a payload
      FromBits(0xFFF0000000000001ull),  // negative signalling NaN
      std::numeric_limits<double>::max()};
  const size_t num_streams = static_cast<size_t>(rng->NextInt(1, 40));
  std::vector<StreamId> stream_ids(num_streams);
  std::vector<EventId> next_ids(num_streams);
  for (size_t s = 0; s < num_streams; ++s) {
    stream_ids[s] = rng->NextBool(0.2)
                        ? std::numeric_limits<StreamId>::max() -
                              static_cast<StreamId>(s)
                        : static_cast<StreamId>(rng->NextBounded(1000));
    next_ids[s] = rng->NextBool(0.2) ? rng->NextUint64()
                                     : rng->NextBounded(1'000'000);
  }
  EventVec events(static_cast<size_t>(rng->NextInt(0, 300)));
  EventTime ts = static_cast<EventTime>(rng->NextUint64());
  for (Event& e : events) {
    const size_t s = rng->NextBounded(num_streams);
    e.stream_id = stream_ids[s];
    const uint64_t id_shape = rng->NextBounded(10);
    if (id_shape == 0) {
      next_ids[s] += rng->NextBounded(1'000);  // a gap
    } else if (id_shape == 1) {
      next_ids[s] -= rng->NextBounded(3);  // repeated or decreasing
    } else if (id_shape == 2) {
      next_ids[s] = rng->NextUint64();  // anywhere
    }
    e.id = next_ids[s]++;
    const uint64_t ts_shape = rng->NextBounded(12);
    if (ts_shape == 0) {
      ts = rng->NextBool(0.5) ? kMin : kMax;
    } else if (ts_shape == 1) {
      ts = static_cast<EventTime>(rng->NextUint64());
    } else if (ts_shape == 2) {
      ts = static_cast<EventTime>(static_cast<uint64_t>(ts) -
                                  rng->NextBounded(5'000));
    } else if (ts_shape > 3) {  // 3 keeps the timestamp: a tie
      ts = static_cast<EventTime>(static_cast<uint64_t>(ts) +
                                  rng->NextBounded(5'000));
    }
    e.timestamp = ts;
    e.value = rng->NextBool(0.3)
                  ? kOddValues[rng->NextBounded(std::size(kOddValues))]
                  : rng->NextDouble(-1e6, 1e6);
  }
  return events;
}

// INT64_MIN right after INT64_MAX and back, on more streams than the slot
// table holds, with the largest ids, -0.0 and a signalling NaN.
EventVec ExtremeBatch() {
  constexpr EventTime kMin = std::numeric_limits<EventTime>::min();
  constexpr EventTime kMax = std::numeric_limits<EventTime>::max();
  const double kNaN = FromBits(0x7FF0000000000ABCull);
  EventVec events;
  for (int i = 0; i < 60; ++i) {
    events.push_back(MakeEvent(std::numeric_limits<EventId>::max() - i % 2,
                               static_cast<StreamId>(i % 20),
                               i % 3 == 0 ? -0.0 : kNaN,
                               i % 2 == 0 ? kMax : kMin));
  }
  return events;
}

TEST(BinarySerdeTest, RandomBatchesRoundTripBitExact) {
  Rng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    const EventVec events = trial == 0 ? ExtremeBatch() : RandomBatch(&rng);
    BinaryWriter writer;
    writer.PutU8(7);  // a batch behind a header decodes the same
    writer.PutEvents(events);
    BinaryReader reader(writer.buffer());
    ASSERT_EQ(reader.GetU8().value(), 7);
    auto decoded = reader.GetEvents();
    ASSERT_TRUE(decoded.ok()) << "trial " << trial << ": "
                              << decoded.status().ToString();
    ExpectBitIdentical(*decoded, events);
    EXPECT_TRUE(reader.AtEnd()) << "trial " << trial;
    if (::testing::Test::HasFailure()) return;
  }
}

// `count`, then `bytes`, then zeros up to `size` bytes after the count, so
// the count check passes and the decoder has to read the events.
std::string Batch(uint64_t count, const std::vector<int>& bytes,
                  size_t size = 64) {
  BinaryWriter writer;
  writer.PutU64(count);
  for (int b : bytes) writer.PutU8(static_cast<uint8_t>(b));
  std::string buf = writer.Release();
  buf.resize(std::max(buf.size(), sizeof(uint64_t) + size), '\0');
  return buf;
}

Status DecodeStatus(const std::string& buf) {
  BinaryReader reader(buf);
  return reader.GetEvents().status();
}

std::vector<int> Concat(std::initializer_list<std::vector<int>> parts) {
  std::vector<int> out;
  for (const std::vector<int>& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

TEST(BinarySerdeTest, HostileBatchesAreRejected) {
  // An escape tag, stream 3, id 5, timestamp delta 0 and a zero value.
  const std::vector<int> escape = {0x0F, 3, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  ASSERT_TRUE(DecodeStatus(Batch(1, escape)).ok());

  // Reserved bits 5-7, and bit 4 on an escape tag.
  for (int tag : {0x20, 0x40, 0x80, 0x1F}) {
    EXPECT_TRUE(DecodeStatus(Batch(1, {tag, 3, 5, 0})).IsInvalidArgument())
        << "tag " << tag;
  }
  // Slot 0 before any stream took it; slot 1 when only slot 0 is taken.
  EXPECT_TRUE(DecodeStatus(Batch(1, {0x00, 0})).IsInvalidArgument());
  EXPECT_TRUE(
      DecodeStatus(Batch(2, Concat({escape, {0x01, 0}}))).IsInvalidArgument());

  // An 11-byte varint (zero with ten continuation bytes) and a 10-byte one
  // whose last byte carries bits above 63, as the stream id, the id and the
  // timestamp delta of an escaped event.
  const std::vector<int> eleven = {0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                                   0x80, 0x80, 0x80, 0x80, 0x00};
  const std::vector<int> overflow = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                     0xFF, 0xFF, 0xFF, 0xFF, 0x02};
  for (const std::vector<int>& bad : {eleven, overflow}) {
    for (size_t field = 0; field < 3; ++field) {
      std::vector<int> fields[3] = {{3}, {5}, {0}};
      fields[field] = bad;
      const std::string buf =
          Batch(1, Concat({{0x0F}, fields[0], fields[1], fields[2]}));
      EXPECT_TRUE(DecodeStatus(buf).IsInvalidArgument()) << "field " << field;
    }
  }
  // The same two as the id skip of a second event on stream 3's slot.
  for (const std::vector<int>& bad : {eleven, overflow}) {
    EXPECT_TRUE(DecodeStatus(Batch(2, Concat({escape, {0x10}, bad, {0}})))
                    .IsInvalidArgument());
  }
  // Stream id 2^32.
  EXPECT_TRUE(DecodeStatus(Batch(1, {0x0F, 0x80, 0x80, 0x80, 0x80, 0x10, 5,
                                     0}))
                  .IsInvalidArgument());
  // Cut inside a value and inside a varint, with the count still in bounds.
  EXPECT_TRUE(
      DecodeStatus(Batch(1, {0x0F, 3, 5, 0, 0, 0}, 6)).IsOutOfRange());
  EXPECT_TRUE(DecodeStatus(Batch(1, {0x0F, 3, 5, 0x80, 0x80, 0x80, 0x80,
                                     0x80, 0x80},
                                 9))
                  .IsOutOfRange());

  // 100 kB hold at most 10,000 events of 10 bytes; a count of one more is
  // rejected before the 10,001-event vector is allocated.
  const std::string buf = Batch(10'001, {}, 100'000);
  RetainAllocCounting();
  const AllocCounters before = ThreadAllocCounters();
  const Status status = DecodeStatus(buf);
  const AllocCounters after = ThreadAllocCounters();
  ReleaseAllocCounting();
  EXPECT_TRUE(status.IsOutOfRange()) << status.ToString();
  EXPECT_LT(after.bytes - before.bytes, 1'000u);  // the status message only
}

TEST(BinarySerdeTest, GeneratorBatchCostsElevenBytesPerEvent) {
  // One local's streams at the default configuration: 4 streams of
  // 250k ev/s each, so merged timestamps are about 1 us apart.
  StreamSet streams(MakeIngestConfig(ExperimentConfig{}, 0).streams);
  EventVec events;
  streams.NextBatch(4096, &events);
  RetainAllocCounting();
  const AllocCounters before = ThreadAllocCounters();
  BinaryWriter writer;
  writer.PutEvents(events);
  const AllocCounters encoded = ThreadAllocCounters();
  BinaryReader reader(writer.buffer());
  auto decoded = reader.GetEvents();
  const AllocCounters after = ThreadAllocCounters();
  ReleaseAllocCounting();
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectBitIdentical(*decoded, events);

  const double per_event =
      static_cast<double>(writer.size() - sizeof(uint64_t)) / 4096.0;
  EXPECT_LE(per_event, 11.5);
  // The payload holds what it encodes, not a worst case per event.
  EXPECT_LE(writer.buffer().capacity(),
            writer.size() + writer.size() / 16);
  // Nothing per event: a scratch and the buffer, then the vector.
  if (AllocCountingCompiledIn()) {
    EXPECT_LE(encoded.count - before.count, 2u);
    EXPECT_EQ(after.count - encoded.count, 1u);
  }
}

// ----------------------------------------------------------- Text serde

TEST(TextSerdeTest, EventRoundTrip) {
  const Event e = MakeEvent(9, 3, 2.7182818, 555);
  const std::string text = EncodeEventText(e);
  EXPECT_NE(text.find("event;"), std::string::npos);
  const Event decoded = DecodeEventText(text).value();
  EXPECT_EQ(decoded.id, e.id);
  EXPECT_EQ(decoded.stream_id, e.stream_id);
  EXPECT_EQ(decoded.timestamp, e.timestamp);
  EXPECT_DOUBLE_EQ(decoded.value, e.value);
}

TEST(TextSerdeTest, BatchRoundTripPreservesOrder) {
  EventVec events;
  for (int i = 0; i < 20; ++i) {
    events.push_back(MakeEvent(i, 1, i * 1.25, 10 * i));
  }
  const EventVec decoded = DecodeEventsText(EncodeEventsText(events)).value();
  ASSERT_EQ(decoded.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(decoded[i].id, events[i].id);
    EXPECT_EQ(decoded[i].timestamp, events[i].timestamp);
  }
}

TEST(TextSerdeTest, TextIsLargerThanBinary) {
  // The premise of the Disco network experiments: string wire formats cost
  // more bytes than the compact binary one.
  EventVec events;
  for (int i = 0; i < 50; ++i) {
    events.push_back(MakeEvent(i, 2, 1.0 / 3.0, 1'000'000'000 + i));
  }
  BinaryWriter writer;
  writer.PutEvents(events);
  EXPECT_GT(EncodeEventsText(events).size(), writer.size());
}

TEST(TextSerdeTest, MalformedInputsAreErrors) {
  EXPECT_FALSE(DecodeEventText("garbage").ok());
  EXPECT_FALSE(DecodeEventText("event;id=1").ok());
  EXPECT_FALSE(DecodeEventText("event;id=1;stream=2;value=3").ok());
  EXPECT_FALSE(
      DecodeEventText("event;bogus=1;stream=2;value=3;timestamp=4").ok());
}

TEST(TextSerdeTest, EmptyLinesAreSkipped) {
  const EventVec decoded = DecodeEventsText("\n\n").value();
  EXPECT_TRUE(decoded.empty());
}

}  // namespace
}  // namespace deco
