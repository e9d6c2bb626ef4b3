#pragma once

#include <cstdint>
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

/// \brief Size in bytes of one event as a fixed record: id, stream id,
/// value and timestamp. No wire format uses this record any more (batches
/// are delta-coded, see `BinaryWriter::PutEvents`); it stays because
/// perfbench's traced cross-check divides raw-event bytes by it.
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

  /// \brief A batch of events, delta-coded: the count as a `PutU64`, then
  /// per event
  ///  - a tag byte: bits 0-3 name the event's slot in a per-batch table of
  ///    up to 15 stream ids; bit 4 says its id is not the slot's previous
  ///    id + 1; bits 5-7 are 0. Slot 15 (the tag is exactly 15) is a stream
  ///    not in the table: its stream id and event id follow as varints and
  ///    the stream takes the next free slot. Otherwise, with bit 4, the
  ///    zigzag varint of `id - (previous id + 1)` follows;
  ///  - the zigzag varint of `timestamp - previous timestamp`, in wrapping
  ///    64-bit arithmetic, the first event's previous timestamp being 0;
  ///  - the value's 8 bytes, verbatim.
  /// Varints are LEB128. An event of a generator stream (ids step by 1,
  /// merged timestamps about 1 us apart) costs 1 + 2 + 8 = 11 bytes.
  void PutEvents(std::span<const Event> events);

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

  /// \brief Decodes a `BinaryWriter::PutEvents` batch bit for bit. Rejects
  /// a count the remaining bytes cannot hold before allocating, and rejects
  /// truncation, a varint over 10 bytes or 64 bits, a stream id over
  /// 32 bits, an unassigned slot and a set reserved bit.
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
