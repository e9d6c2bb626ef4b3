#pragma once

#include <cstdint>
#include <string>

/// \file message.h
/// \brief The message envelope exchanged between nodes (paper §3,
/// communication model).
///
/// Every communication *flow* — up-flow (local → root) or down-flow
/// (root → local) — is a sequence of messages. A message has a small fixed
/// header and a scheme-specific payload; the fabric accounts
/// `header + payload` bytes as network utilization, which is the quantity
/// Figures 8, 10b and 11b of the paper report.

namespace deco {

/// Identifier of a node registered with the fabric.
using NodeId = uint32_t;

/// \brief Discriminates message payloads across all schemes.
enum class MessageType : uint8_t {
  /// Raw events (centralized ingest, Deco buffer shipping). Payload:
  /// event batch in the sender's wire format.
  kEventBatch = 0,

  /// Partial aggregation result of a local slice plus statistics.
  kPartialResult = 1,

  /// Event-rate report from a local node (Deco_mon initialization step).
  kEventRate = 2,

  /// Root → local: (predicted) local window size, delta and watermark for
  /// the next global window.
  kWindowAssignment = 3,

  /// Root → local: prediction was wrong; actual local window size inside
  /// (correction step).
  kCorrectionRequest = 4,

  /// Local → root: corrected partial result plus the window's last event.
  kCorrectionResult = 5,

  /// Root → local: query definition (window spec, aggregate) at startup.
  kQueryConfig = 6,

  /// Local ↔ local: event-rate exchange (Deco_monlocal microbenchmark).
  kRateExchange = 7,

  /// Root → local: begin the next global window (synchronous schemes).
  kStartWindow = 8,

  /// Clean end-of-stream marker.
  kShutdown = 9,

  /// Local → root: a restarted local announces itself and asks to be
  /// re-admitted into the topology (rejoin protocol, DESIGN.md §6).
  /// Payload: `RateReport` with the node's current rate and cumulative
  /// stream position.
  kRejoin = 10,

  /// Root → local: a query was admitted at runtime; the payload
  /// (`QueryUpdate`) names the aggregate slot the local must start
  /// computing and the first protocol window (pane) it takes effect in
  /// (multi-query serving layer, DESIGN.md §11).
  kQueryAdd = 11,

  /// Root → local: a query was retired at runtime; payload (`QueryUpdate`)
  /// names the slot and the first pane it no longer applies to.
  kQueryRemove = 12,
};

/// Number of `MessageType` values; sizes per-type counter arrays.
inline constexpr size_t kNumMessageTypes = 13;

/// \brief Returns a short name for logging ("event-batch", ...).
const char* MessageTypeToString(MessageType type);

#ifndef DECO_TRACE_ENABLED
#define DECO_TRACE_ENABLED 1
#endif

#if DECO_TRACE_ENABLED
/// \brief Causal hop record carried by every message while tracing is
/// compiled in (CMake option `DECO_TRACE=ON`, the default).
///
/// The fabric stamps the record as the message moves: `Send` assigns an
/// id unique within the fabric and the enqueue time, measures how long
/// the sender blocked on egress shaping / flow control, and `Deliver`
/// stamps the mailbox-arrival time. The *receiving* actor stamps the
/// dequeue time and hands the finished record to its run's hop recorders
/// — so node code stays untouched on the hot path. Like the latency
/// side-channel, the hop record is excluded from wire-byte accounting: a
/// real deployment would fold these ~12 bytes into the RPC framing or
/// reconstruct them from per-host clocks.
///
/// All fields stay zero unless the fabric stamps hops (`msg_id == 0`
/// means "not traced").
struct MessageHop {
  uint64_t msg_id = 0;            ///< fabric-unique causal id; 0 = untraced
  int64_t enqueue_nanos = 0;      ///< sender entered `Send`
  int64_t deliver_nanos = 0;      ///< fabric pushed into the dst mailbox
  int64_t dequeue_nanos = 0;      ///< receiver popped from its mailbox
  int64_t shaping_delay_nanos = 0;///< sender blocked on egress cap/backpressure
};
#endif

/// \brief Envelope carried by the fabric.
struct Message {
  MessageType type = MessageType::kEventBatch;
  NodeId src = 0;
  NodeId dst = 0;

  /// Global window index the message refers to (0-based); schemes that do
  /// not need it leave it 0.
  uint64_t window_index = 0;

  /// Protocol epoch. Deco_async bumps it on every correction so stale
  /// messages from rolled-back windows can be discarded (paper §4.3.2).
  uint64_t epoch = 0;

  /// Serialized payload; format depends on `type` and the sender's wire
  /// format (binary everywhere except the Disco baseline's text format).
  std::string payload;

  /// Measurement side-channel (see DESIGN.md §4.1): weighted mean
  /// wall-clock creation time of the events this message covers, and their
  /// count. Excluded from wire-byte accounting — in a real deployment each
  /// node measures latency locally; the side channel replaces synchronized
  /// clocks in the in-process fabric.
  double lat_mean_create_nanos = 0.0;
  uint64_t lat_event_count = 0;

#if DECO_TRACE_ENABLED
  /// Causal tracing side-channel (DESIGN.md §7); zero unless the fabric
  /// stamps hops. Compiled out entirely with `DECO_TRACE=OFF`.
  MessageHop hop;
#endif

  /// \brief Folds another covered-event set into the latency side-channel.
  void MergeLatencyMeta(double mean_create_nanos, uint64_t count) {
    if (count == 0) return;
    const uint64_t total = lat_event_count + count;
    lat_mean_create_nanos =
        (lat_mean_create_nanos * static_cast<double>(lat_event_count) +
         mean_create_nanos * static_cast<double>(count)) /
        static_cast<double>(total);
    lat_event_count = total;
  }

  /// \brief Modeled on-the-wire size: fixed header + payload bytes.
  size_t WireSize() const { return kHeaderBytes + payload.size(); }

  /// Modeled header: type (1) + src (4) + dst (4) + window index (8) +
  /// epoch (8) + payload length (4) — comparable to a compact RPC framing.
  static constexpr size_t kHeaderBytes = 29;
};

/// \brief The causal id of a message, or 0 when untraced / tracing is
/// compiled out. Span sites use this so they need no `#if` of their own.
inline uint64_t MessageCausalId(const Message& msg) {
#if DECO_TRACE_ENABLED
  return msg.hop.msg_id;
#else
  (void)msg;
  return 0;
#endif
}

}  // namespace deco
