#include "event/serde.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>

namespace deco {
namespace {

// The batch layout of `BinaryWriter::PutEvents`.
constexpr uint8_t kSlotMask = 0x0F;
constexpr uint8_t kEscapeTag = 0x0F;  // a stream not in the slot table
constexpr uint8_t kIdSkipBit = 0x10;  // id is not the slot's last id + 1
constexpr uint8_t kReservedBits = 0xE0;
constexpr size_t kSlots = 15;
constexpr size_t kMaxVarintBytes = 10;  // 5 for a 32-bit stream id
// Tag, one-byte timestamp delta, value.
constexpr size_t kMinEncodedEvent = 1 + 1 + sizeof(double);
// Tag, escaped stream id and id, timestamp delta, value.
constexpr size_t kMaxEncodedEvent =
    1 + 5 + 2 * kMaxVarintBytes + sizeof(double);

uint64_t ZigZag(uint64_t delta) { return (delta << 1) ^ (0 - (delta >> 63)); }
uint64_t UnZigZag(uint64_t v) { return (v >> 1) ^ (0 - (v & 1)); }

// Writes `v` as a varint at `out` and returns the byte after it. One- and
// two-byte varints (a generator's timestamp deltas) take no loop.
inline char* PutVarint(uint64_t v, char* out) {
  if (v < 0x80) {
    *out = static_cast<char>(v);
    return out + 1;
  }
  if (v < 0x4000) {
    out[0] = static_cast<char>(v | 0x80);
    out[1] = static_cast<char>(v >> 7);
    return out + 2;
  }
  while (v >= 0x80) {
    *out++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *out++ = static_cast<char>(v);
  return out;
}

// A varint read: the byte after it, or null if it is truncated, longer
// than 10 bytes or over 64 bits; and its value.
struct Varint {
  const uint8_t* next;
  uint64_t value;
};

// Reads a varint of any length from [in, end): at most 10 bytes, the tenth
// carrying only bit 63.
Varint GetLongVarint(const uint8_t* in, const uint8_t* end) {
  uint64_t v = 0;
  for (unsigned shift = 0; shift < 7 * kMaxVarintBytes; shift += 7) {
    if (in == end) return {nullptr, 0};
    const uint64_t byte = *in++;
    v |= (byte & 0x7F) << shift;
    if (byte < 0x80) {
      if (shift == 63 && byte > 1) return {nullptr, 0};
      return {in, v};
    }
  }
  return {nullptr, 0};
}

// `GetLongVarint`, with one- and two-byte varints read inline.
inline Varint GetVarint(const uint8_t* in, const uint8_t* end) {
  if (end - in >= 2) {
    const uint64_t b0 = in[0];
    if (b0 < 0x80) return {in + 1, b0};
    const uint64_t b1 = in[1];
    if (b1 < 0x80) return {in + 2, (b0 & 0x7F) | (b1 << 7)};
  }
  return GetLongVarint(in, end);
}

// Why the varint at `in` did not read: it ran into `end`, or it is too long
// or too large.
Status VarintError(const uint8_t* in, const uint8_t* end) {
  for (size_t i = 0; i < kMaxVarintBytes; ++i) {
    if (in + i == end) {
      return Status::OutOfRange("event batch truncated inside a varint");
    }
    if (in[i] < 0x80) break;
  }
  return Status::InvalidArgument(
      "event batch varint longer than 10 bytes or 64 bits");
}

}  // namespace

void BinaryWriter::PutEvents(std::span<const Event> events) {
  PutU64(events.size());
  if (events.empty()) return;
  // One pass into a worst-case scratch, then one exact append: the payload
  // holds what it encodes and no more.
  std::unique_ptr<char[]> scratch(
      new char[events.size() * kMaxEncodedEvent]);
  char* out = scratch.get();
  StreamId streams[kSlots] = {};
  EventId last_ids[kSlots] = {};
  size_t used = 0;
  // The slot a stream id's low byte last named; checked, then scanned.
  uint8_t hint[256] = {};
  uint64_t last_ts = 0;
  for (const Event& e : events) {
    size_t slot = hint[e.stream_id & 0xFF];
    if (slot >= used || streams[slot] != e.stream_id) {
      slot = 0;
      while (slot < used && streams[slot] != e.stream_id) ++slot;
      hint[e.stream_id & 0xFF] = static_cast<uint8_t>(slot);
    }
    if (slot == used) {
      *out++ = static_cast<char>(kEscapeTag);
      out = PutVarint(e.stream_id, out);
      out = PutVarint(e.id, out);
      if (used < kSlots) {
        streams[used] = e.stream_id;
        last_ids[used++] = e.id;
      }
    } else {
      const uint64_t skip = e.id - (last_ids[slot] + 1);
      last_ids[slot] = e.id;
      if (skip == 0) {
        *out++ = static_cast<char>(slot);
      } else {
        *out++ = static_cast<char>(slot | kIdSkipBit);
        out = PutVarint(ZigZag(skip), out);
      }
    }
    const uint64_t ts = static_cast<uint64_t>(e.timestamp);
    out = PutVarint(ZigZag(ts - last_ts), out);
    last_ts = ts;
    std::memcpy(out, &e.value, sizeof(e.value));
    out += sizeof(e.value);
  }
  buf_.append(scratch.get(), static_cast<size_t>(out - scratch.get()));
}

Status BinaryReader::ReadRaw(void* out, size_t n) {
  if (pos_ + n > buf_.size()) {
    return Status::OutOfRange("binary buffer underflow: need " +
                              std::to_string(n) + " bytes, have " +
                              std::to_string(buf_.size() - pos_));
  }
  std::memcpy(out, buf_.data() + pos_, n);
  pos_ += n;
  return Status::OK();
}

Result<uint8_t> BinaryReader::GetU8() {
  uint8_t v;
  DECO_RETURN_NOT_OK(ReadRaw(&v, sizeof(v)));
  return v;
}

Result<uint32_t> BinaryReader::GetU32() {
  uint32_t v;
  DECO_RETURN_NOT_OK(ReadRaw(&v, sizeof(v)));
  return v;
}

Result<uint64_t> BinaryReader::GetU64() {
  uint64_t v;
  DECO_RETURN_NOT_OK(ReadRaw(&v, sizeof(v)));
  return v;
}

Result<int64_t> BinaryReader::GetI64() {
  int64_t v;
  DECO_RETURN_NOT_OK(ReadRaw(&v, sizeof(v)));
  return v;
}

Result<double> BinaryReader::GetDouble() {
  double v;
  DECO_RETURN_NOT_OK(ReadRaw(&v, sizeof(v)));
  return v;
}

Result<std::string> BinaryReader::GetString() {
  DECO_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  if (pos_ + len > buf_.size()) {
    return Status::OutOfRange("string length exceeds buffer");
  }
  std::string s(buf_.data() + pos_, len);
  pos_ += len;
  return s;
}

Result<EventVec> BinaryReader::GetEvents() {
  DECO_ASSIGN_OR_RETURN(uint64_t n, GetU64());
  if (n > remaining() / kMinEncodedEvent) {
    return Status::OutOfRange("event count exceeds buffer size");
  }
  EventVec events(n);
  const uint8_t* const begin = reinterpret_cast<const uint8_t*>(buf_.data());
  const uint8_t* const end = begin + buf_.size();
  const uint8_t* in = begin + pos_;
  StreamId streams[kSlots] = {};
  EventId last_ids[kSlots] = {};
  size_t used = 0;
  uint64_t ts = 0;
  for (Event& e : events) {
    if (in == end) return Status::OutOfRange("event batch truncated");
    const uint8_t tag = *in++;
    if (tag < used) {  // a slot's next id: the common case
      e.stream_id = streams[tag];
      e.id = ++last_ids[tag];
    } else if (tag == kEscapeTag) {
      const Varint stream = GetVarint(in, end);
      if (stream.next == nullptr) return VarintError(in, end);
      if (stream.value > std::numeric_limits<StreamId>::max()) {
        return Status::InvalidArgument("event batch stream id above 2^32 - 1");
      }
      const Varint id = GetVarint(stream.next, end);
      if (id.next == nullptr) return VarintError(stream.next, end);
      in = id.next;
      e.stream_id = static_cast<StreamId>(stream.value);
      e.id = id.value;
      if (used < kSlots) {
        streams[used] = e.stream_id;
        last_ids[used++] = e.id;
      }
    } else if (static_cast<uint8_t>(tag ^ kIdSkipBit) < used) {
      const Varint skip = GetVarint(in, end);
      if (skip.next == nullptr) return VarintError(in, end);
      in = skip.next;
      const size_t slot = tag & kSlotMask;
      e.stream_id = streams[slot];
      e.id = last_ids[slot] + 1 + UnZigZag(skip.value);
      last_ids[slot] = e.id;
    } else if ((tag & kReservedBits) != 0 || (tag & kSlotMask) == kEscapeTag) {
      return Status::InvalidArgument("event batch tag sets a reserved bit");
    } else {
      return Status::InvalidArgument("event batch names an unassigned slot");
    }
    const Varint delta = GetVarint(in, end);
    if (delta.next == nullptr) return VarintError(in, end);
    in = delta.next;
    ts += UnZigZag(delta.value);
    e.timestamp = static_cast<EventTime>(ts);
    if (static_cast<size_t>(end - in) < sizeof(e.value)) {
      return Status::OutOfRange("event batch truncated inside a value");
    }
    std::memcpy(&e.value, in, sizeof(e.value));
    in += sizeof(e.value);
  }
  pos_ = static_cast<size_t>(in - begin);
  return events;
}

std::string EncodeEventText(const Event& event) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "event;id=%llu;stream=%u;value=%.17g;timestamp=%lld",
                static_cast<unsigned long long>(event.id), event.stream_id,
                event.value, static_cast<long long>(event.timestamp));
  return buf;
}

namespace {

// Extracts the value of "key=" from `field`; returns false on mismatch.
bool TakeField(const std::string& field, const char* key, std::string* out) {
  const std::string prefix = std::string(key) + "=";
  if (field.rfind(prefix, 0) != 0) return false;
  *out = field.substr(prefix.size());
  return true;
}

}  // namespace

Result<Event> DecodeEventText(const std::string& text) {
  std::stringstream ss(text);
  std::string field;
  if (!std::getline(ss, field, ';') || field != "event") {
    return Status::InvalidArgument("text event missing 'event' tag: " + text);
  }
  Event e;
  std::string v;
  if (!std::getline(ss, field, ';') || !TakeField(field, "id", &v)) {
    return Status::InvalidArgument("text event missing id");
  }
  e.id = std::strtoull(v.c_str(), nullptr, 10);
  if (!std::getline(ss, field, ';') || !TakeField(field, "stream", &v)) {
    return Status::InvalidArgument("text event missing stream");
  }
  e.stream_id = static_cast<StreamId>(std::strtoul(v.c_str(), nullptr, 10));
  if (!std::getline(ss, field, ';') || !TakeField(field, "value", &v)) {
    return Status::InvalidArgument("text event missing value");
  }
  e.value = std::strtod(v.c_str(), nullptr);
  if (!std::getline(ss, field, ';') || !TakeField(field, "timestamp", &v)) {
    return Status::InvalidArgument("text event missing timestamp");
  }
  e.timestamp = std::strtoll(v.c_str(), nullptr, 10);
  return e;
}

std::string EncodeEventsText(const EventVec& events) {
  std::string out;
  for (const Event& e : events) {
    out += EncodeEventText(e);
    out += '\n';
  }
  return out;
}

Result<EventVec> DecodeEventsText(const std::string& text) {
  EventVec events;
  std::stringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) {
    if (line.empty()) continue;
    DECO_ASSIGN_OR_RETURN(Event e, DecodeEventText(line));
    events.push_back(e);
  }
  return events;
}

}  // namespace deco
