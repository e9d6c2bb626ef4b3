#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "event/event.h"

/// \file serde.h
/// \brief Wire encodings for events and primitive fields.
///
/// Two formats exist on purpose (paper §5.1, network utilization): every
/// scheme except the Disco baseline uses the compact little-endian binary
/// format; the Disco baseline uses a verbose human-readable text format to
/// reproduce the paper's observation that Disco's string messages inflate
/// network cost above even the raw-event-forwarding Central baseline.

namespace deco {

/// \brief Size in bytes of one event in the binary format: id, stream id,
/// value and timestamp, packed in that order.
inline constexpr size_t kBinaryEventSize =
    sizeof(uint64_t) + sizeof(uint32_t) + sizeof(double) + sizeof(int64_t);

/// \brief Growable byte sink for binary encoding.
class BinaryWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }

  /// \brief Length-prefixed string.
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.append(s);
  }

  void PutEvent(const Event& e) {
    char bytes[kBinaryEventSize];
    std::memcpy(bytes, &e.id, sizeof(e.id));
    std::memcpy(bytes + 8, &e.stream_id, sizeof(e.stream_id));
    std::memcpy(bytes + 12, &e.value, sizeof(e.value));
    std::memcpy(bytes + 20, &e.timestamp, sizeof(e.timestamp));
    buf_.append(bytes, kBinaryEventSize);
  }

  /// \brief Count-prefixed events: reserves once, then one append per
  /// event.
  void PutEvents(std::span<const Event> events) {
    PutU64(events.size());
    buf_.reserve(buf_.size() + events.size() * kBinaryEventSize);
    for (const Event& e : events) PutEvent(e);
  }

  const std::string& buffer() const { return buf_; }
  std::string Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void PutRaw(const void* p, size_t n) {
    buf_.append(reinterpret_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// \brief Bounds-checked reader over an encoded byte buffer.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& buf) : buf_(buf) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<std::string> GetString();
  Result<Event> GetEvent();
  Result<EventVec> GetEvents();

  /// \brief Bytes not yet consumed.
  size_t remaining() const { return buf_.size() - pos_; }
  bool AtEnd() const { return remaining() == 0; }

 private:
  Status ReadRaw(void* out, size_t n);
  const std::string& buf_;
  size_t pos_ = 0;
};

/// \brief Verbose text encoding of one event, Disco-style:
/// "event;id=<id>;stream=<sid>;value=<v>;timestamp=<ts>".
std::string EncodeEventText(const Event& event);

/// \brief Parses `EncodeEventText` output.
Result<Event> DecodeEventText(const std::string& text);

/// \brief Text-encodes a batch, one event per line.
std::string EncodeEventsText(const EventVec& events);

/// \brief Parses `EncodeEventsText` output.
Result<EventVec> DecodeEventsText(const std::string& text);

}  // namespace deco
