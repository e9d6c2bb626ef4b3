#include "event/serde.h"

#include <charconv>
#include <cstdio>
#include <sstream>

namespace deco {
namespace {

// Unpacks one event in the layout `BinaryWriter::PutEvent` writes.
void EventFromBytes(const char* in, Event* e) {
  std::memcpy(&e->id, in, sizeof(e->id));
  std::memcpy(&e->stream_id, in + 8, sizeof(e->stream_id));
  std::memcpy(&e->value, in + 12, sizeof(e->value));
  std::memcpy(&e->timestamp, in + 20, sizeof(e->timestamp));
}

}  // namespace

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

Result<Event> BinaryReader::GetEvent() {
  char bytes[kBinaryEventSize];
  DECO_RETURN_NOT_OK(ReadRaw(bytes, kBinaryEventSize));
  Event e;
  EventFromBytes(bytes, &e);
  return e;
}

Result<EventVec> BinaryReader::GetEvents() {
  DECO_ASSIGN_OR_RETURN(uint64_t n, GetU64());
  if (n > remaining() / kBinaryEventSize) {
    return Status::OutOfRange("event count exceeds buffer size");
  }
  // The check above covers every event, so the copy needs no more.
  EventVec events(n);
  const char* in = buf_.data() + pos_;
  for (Event& e : events) {
    EventFromBytes(in, &e);
    in += kBinaryEventSize;
  }
  pos_ += n * kBinaryEventSize;
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
