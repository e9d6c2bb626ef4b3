#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// \file event.h
/// \brief The stream tuple model of the Deco system (paper §3).
///
/// A data event is the tuple `t = (i, v, τ)`: a per-stream sequential id, a
/// value, and a timestamp assigned by the datastream node. Events are
/// produced in order per sensor, so timestamps increase monotonically within
/// one stream. We additionally carry the originating stream id so the root
/// node can apply the paper's tie-break rule ("when two events share the
/// same timestamp at the count-based window edge, we use the first one")
/// with a stable, deterministic order.

namespace deco {

/// Identifier of a logical data stream (one sensor).
using StreamId = uint32_t;

/// Per-stream sequential event id.
using EventId = uint64_t;

/// Event-time timestamp in nanoseconds.
using EventTime = int64_t;

/// \brief One stream tuple.
struct Event {
  EventId id = 0;
  StreamId stream_id = 0;
  double value = 0.0;
  EventTime timestamp = 0;

  friend bool operator==(const Event& a, const Event& b) {
    return a.id == b.id && a.stream_id == b.stream_id &&
           a.value == b.value && a.timestamp == b.timestamp;
  }
};

/// \brief Strict weak order used wherever the paper sorts buffered events:
/// by timestamp, then stream id, then event id. Stable and total, so sorting
/// is deterministic and the "first one wins" tie-break at window edges is
/// well defined.
struct EventTimestampLess {
  bool operator()(const Event& a, const Event& b) const {
    if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
    if (a.stream_id != b.stream_id) return a.stream_id < b.stream_id;
    return a.id < b.id;
  }
};

/// \brief A batch of events as shipped between nodes. Plain vector wrapper
/// kept for readability at call sites.
using EventVec = std::vector<Event>;

/// \brief Renders an event as "(id=.., stream=.., v=.., ts=..)" for logs
/// and test failure messages.
std::string ToString(const Event& event);

}  // namespace deco
