#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "net/message.h"

/// \file trace.h
/// \brief Window-lifecycle tracing: span events recorded by the root,
/// local and baseline nodes as a global window moves through the protocol
/// (open -> partial-received -> assemble -> correct -> emit).
///
/// Recording sites use the `DECO_TRACE_SPAN` macros of run_context.h,
/// which record into the sink of the run the node belongs to; they compile
/// to nothing when `DECO_TRACE_ENABLED` is 0 (CMake option
/// `DECO_TRACE=OFF`). Span sites fire per *window*, never per event, so
/// the per-event hot path is untouched either way.

namespace deco {

/// \brief Lifecycle phase of a window-span event.
enum class TracePhase : uint8_t {
  kWindowOpen = 0,      ///< assignment sent / local window planning started
  kPartialReceived = 1, ///< root received a node's slice summary
  kAssemble = 2,        ///< verification succeeded, window assembled
  kCorrect = 3,         ///< prediction error, correction step started
  kEmit = 4,            ///< final global window result emitted
};

std::string_view TracePhaseToString(TracePhase phase);

/// \brief One span event.
struct TraceEvent {
  TimeNanos t_nanos = 0;   ///< wall-clock time of the event
  NodeId node = 0;         ///< fabric id of the recording node
  TracePhase phase = TracePhase::kWindowOpen;
  uint64_t window_index = 0;
  int64_t value = 0;       ///< phase-specific payload (e.g. event count)
  /// Causal id of the message that triggered this phase (the hop record's
  /// `msg_id`); 0 when the phase was not message-triggered or tracing of
  /// hops is off. Joins span events with `HopRecord`s in the critical-path
  /// analyzer.
  uint64_t msg_id = 0;
};

/// \brief One completed message hop, finalized at dequeue time.
///
/// The fabric fills the timestamps into the message's embedded
/// `MessageHop`; the receiving actor copies them here (plus the routing
/// header) and hands the record to the sink. The four timestamps cut the
/// hop into sender blocking (`shaping_delay_nanos`), link latency
/// (`deliver - (enqueue + shaping)`) and mailbox queueing
/// (`dequeue - deliver`).
struct HopRecord {
  uint64_t msg_id = 0;
  MessageType type = MessageType::kEventBatch;
  NodeId src = 0;
  NodeId dst = 0;
  uint64_t window_index = 0;
  uint64_t wire_bytes = 0;
  TimeNanos enqueue_nanos = 0;
  TimeNanos deliver_nanos = 0;
  TimeNanos dequeue_nanos = 0;
  TimeNanos shaping_delay_nanos = 0;
};

/// \brief Collects span events from many node threads with striped locks.
/// A telemetry run owns one through its `RunContext`.
class TraceSink {
 public:
  /// \param clock time source for event timestamps; not owned
  /// \param capacity maximum retained events (oldest-first cutoff; keeps a
  ///        runaway run from exhausting memory). 0 = unbounded.
  explicit TraceSink(Clock* clock, size_t capacity = 1 << 20);

  /// \brief Records one span event (thread-safe, lock per stripe).
  void Record(NodeId node, TracePhase phase, uint64_t window_index,
              int64_t value, uint64_t msg_id = 0);

  /// \brief Records a completed message hop; called by the receiving
  /// actor right after dequeuing a stamped message. No-op (and the hop
  /// fields do not exist) when tracing is compiled out.
  void RecordHop(const Message& msg);

  /// \brief Moves every recorded event out, sorted by timestamp.
  std::vector<TraceEvent> Drain();

  /// \brief Moves every recorded hop out, sorted by enqueue time.
  std::vector<HopRecord> DrainHops();

  /// \brief Events recorded so far (approximate under concurrency).
  size_t size() const;

  /// \brief Events dropped because the capacity was reached.
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// \brief Hop records dropped because the capacity was reached.
  uint64_t hops_dropped() const {
    return hops_dropped_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kStripes = 8;
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    std::vector<TraceEvent> events;
    std::vector<HopRecord> hops;
  };

  Clock* clock_;
  size_t capacity_;
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> hops_dropped_{0};
  std::array<Stripe, kStripes> stripes_;
};

}  // namespace deco
