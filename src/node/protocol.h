#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "agg/aggregate.h"
#include "common/result.h"
#include "event/event.h"
#include "event/serde.h"

/// \file protocol.h
/// \brief Typed payloads of the messages exchanged by the schemes, with
/// their binary codecs. One struct per `MessageType` that carries data.
///
/// Wire formats are versionless and little-endian; the fabric is
/// homogeneous. The Disco baseline encodes event batches with the verbose
/// text codec from event/serde.h instead (it only ever ships raw events).

namespace deco {

/// \brief `kPartialResult` payload: the partial aggregate of one local
/// slice plus the statistics the root needs for verification (paper §4.2.2:
/// "partial results ... and the statistics including the number of events
/// and the first and the last event's timestamps" plus the event rate).
/// \brief One extra aggregate computed over the same slice for another
/// registered query (multi-query serving, DESIGN.md §11). Slot 0 — the
/// primary query's aggregate — stays in `SliceSummary::partial` so the
/// single-query wire format is unchanged apart from the extras count.
struct SlotPartial {
  uint16_t slot = 0;
  Partial partial;
};

struct SliceSummary {
  Partial partial;

  /// Per-slot partials for aggregate slots beyond the primary (slot 0),
  /// computed in the same pass over the slice. Empty in single-query runs.
  std::vector<SlotPartial> extras;

  /// Events aggregated into the slice.
  uint64_t event_count = 0;

  /// Timestamps of the slice's first and last event (undefined when
  /// `event_count == 0`).
  EventTime min_ts = 0;
  EventTime max_ts = 0;

  /// Stream-id and event-id of the slice's last event, completing the
  /// total-order key used for exact edge verification.
  StreamId max_stream_id = 0;
  EventId max_event_id = 0;

  /// Local node's measured event rate over the slice, events/second of
  /// event time (paper §4.3.3).
  double event_rate = 0.0;
};

void EncodeSliceSummary(const SliceSummary& summary, BinaryWriter* writer);
Result<SliceSummary> DecodeSliceSummary(BinaryReader* reader);

/// \brief Wire size of one encoded `SlotPartial` extra; the marginal
/// bytes/pane one additional aggregate slot costs on a slice message.
size_t SlotPartialWireSize(const SlotPartial& extra);

/// \brief `kWindowAssignment` payload: root → local window-planning values
/// for the next global window.
struct WindowAssignment {
  uint64_t window_index = 0;

  /// Predicted (Deco_sync/async) or measured (Deco_mon) local window size.
  uint64_t local_window_size = 0;

  /// Delta buffer parameter (paper Eq. 2).
  uint64_t delta = 0;

  /// One-shot size adjustment (Deco_async): applied by the local node to
  /// the first window it plans after receiving this assignment, then
  /// discarded. The root uses it as a damped feedback term that recenters
  /// the node's root-buffer carryover around delta/2, keeping the
  /// self-balancing asynchronous layout verifiable.
  int64_t size_adjust = 0;

  /// Watermark as a full total-order key `(ts, stream, id)`: events at or
  /// before it belong to verified windows and can be dropped. The full key
  /// (not just the timestamp) makes the drop exact under timestamp ties.
  EventTime wm_ts = INT64_MIN;
  StreamId wm_stream = 0;
  EventId wm_id = 0;
};

void EncodeWindowAssignment(const WindowAssignment& assignment,
                            BinaryWriter* writer);
Result<WindowAssignment> DecodeWindowAssignment(BinaryReader* reader);

/// \brief `kEventRate` payload: a local node's rate report (Deco_mon
/// initialization step, and Deco_monlocal peer exchange).
struct RateReport {
  uint64_t window_index = 0;
  double event_rate = 0.0;

  /// Total events this node has ingested so far (cumulative position).
  uint64_t stream_position = 0;

  /// Set on the sender's final broadcast: its stream is exhausted and no
  /// further rate reports will follow. Peers apportion it zero share for
  /// every later window instead of waiting for reports that never come.
  bool end_of_stream = false;

  /// Sender's incarnation: how many crash/restart cycles it has completed
  /// (0 for a node that never crashed). Carried so the root's provenance
  /// records attribute each contribution to the producing incarnation
  /// without consulting the fabric (DESIGN.md §10).
  uint64_t incarnation = 0;
};

void EncodeRateReport(const RateReport& report, BinaryWriter* writer);
Result<RateReport> DecodeRateReport(BinaryReader* reader);

/// \brief `kCorrectionRequest` payload: root → local fallback instructions
/// for a mispredicted window (paper §4.3.1/§4.3.2).
struct CorrectionRequest {
  uint64_t window_index = 0;

  /// The local ships retained events `[from_index, from_index + count)`,
  /// pulling only the shortfall from its stream. Indices count from the
  /// first retained event after the watermark drop below, so the prefixes
  /// one correction solicits neither overlap nor skip: an emptied window
  /// asks from 0 for about the node's share of the window, and each top-up
  /// asks from the number of events the root already holds for the node.
  uint64_t from_index = 0;
  uint64_t count = 0;

  /// The root's verified watermark as a total-order key, mirroring
  /// `WindowAssignment`. A rejoining local drops retained events at or
  /// before it before responding: the root already emitted windows covering
  /// them using the node's pre-crash contributions, so resending would
  /// double-count (rejoin protocol, DESIGN.md §6). `INT64_MIN` (the
  /// default) keeps every retained event — the behaviour healthy locals
  /// relied on before rejoin existed.
  EventTime wm_ts = INT64_MIN;
  StreamId wm_stream = 0;
  EventId wm_id = 0;

  /// Per-node solicitation round, echoed by the response. The root bumps
  /// it on every request it sends to a node — including the lost-message
  /// retries — and discards responses carrying an older round, so a
  /// delayed original and its retry can never both be folded into the
  /// window (which would double-count events).
  uint64_t round = 0;
};

void EncodeCorrectionRequest(const CorrectionRequest& request,
                             BinaryWriter* writer);
Result<CorrectionRequest> DecodeCorrectionRequest(BinaryReader* reader);

/// \brief `kCorrectionResult` payload: local → root raw events for the
/// centralized fallback of a mispredicted window.
struct CorrectionResponse {
  uint64_t window_index = 0;

  /// Cumulative stream offset of `events.front()` at this node.
  uint64_t from_offset = 0;

  /// True when the node's stream budget is exhausted and `events` reaches
  /// the end of its retained stream: no top-up can ever return more.
  bool end_of_stream = false;

  /// Echo of `CorrectionRequest::round`; the root only accepts the
  /// response to its latest request.
  uint64_t round = 0;

  EventVec events;
};

void EncodeCorrectionResponse(const CorrectionResponse& response,
                              BinaryWriter* writer);
Result<CorrectionResponse> DecodeCorrectionResponse(BinaryReader* reader);

/// \brief Role of a raw-event batch within the Deco window protocol.
enum class BatchRole : uint8_t {
  kData = 0,     ///< centralized forwarding (baselines)
  kFront = 1,    ///< Deco_async Fbuffer region of a window
  kEnd = 2,      ///< Deco_sync buffer / Deco_async Ebuffer region
};

/// \brief `kEventBatch` payload in the binary format, with the cumulative
/// stream offset of the first event (used by the root to detect gaps and
/// duplicates after corrections).
struct EventBatchPayload {
  uint64_t from_offset = 0;
  bool end_of_stream = false;
  BatchRole role = BatchRole::kData;
  EventVec events;
};

/// \brief Encodes a `kEventBatch` payload from its header fields and a
/// contiguous event range: the one writer of the batch wire layout, so a
/// sender that keeps its events elsewhere need not copy them into an
/// `EventBatchPayload` first.
void EncodeEventBatch(uint64_t from_offset, bool end_of_stream,
                      BatchRole role, std::span<const Event> events,
                      BinaryWriter* writer);
void EncodeEventBatch(const EventBatchPayload& batch, BinaryWriter* writer);
Result<EventBatchPayload> DecodeEventBatch(BinaryReader* reader);

/// \brief Verbose text encoding of an event batch (Disco wire format):
/// a `batch;from=..;eos=..` header line followed by one text event per
/// line. Reproduces the paper's observation that Disco's string messages
/// cost more network bytes than even raw binary forwarding.
std::string EncodeEventBatchText(const EventBatchPayload& batch);
Result<EventBatchPayload> DecodeEventBatchText(const std::string& text);

}  // namespace deco
