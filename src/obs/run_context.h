#pragma once

#include <memory>

#include "obs/flight_recorder.h"
#include "obs/metric_registry.h"
#include "obs/profiler.h"
#include "obs/trace.h"

/// \file run_context.h
/// \brief The observability state of one experiment run.

namespace deco {

/// \brief One run's metric registry plus its optional trace sink, flight
/// recorder and profiler.
///
/// `RunExperiment` builds one per call and hands it to every actor, the
/// chaos controller, serve accounting and the ops plane, so everything a
/// run counts or records lands in state no other run shares: runs in one
/// process, back to back or concurrent, each report only their own work.
/// The optional members are set before any actor starts and stay fixed
/// until every actor has joined; a null member means that kind of
/// recording is off for the run.
struct RunContext {
  MetricRegistry metrics;
  std::unique_ptr<TraceSink> trace;
  std::unique_ptr<FlightRecorder> flight_recorder;
  std::unique_ptr<Profiler> profiler;

  /// \brief Records one window-lifecycle span (see `TraceSink::Record`).
  void RecordSpan(NodeId node, TracePhase phase, uint64_t window_index,
                  int64_t value, uint64_t msg_id) const {
    if (trace != nullptr) {
      trace->Record(node, phase, window_index, value, msg_id);
    }
    if (flight_recorder != nullptr) {
      flight_recorder->RecordSpan(node, phase, window_index, value, msg_id);
    }
  }

#if DECO_TRACE_ENABLED
  /// \brief Records the completed hop of a dequeued, stamped message: one
  /// `HopRecord`, handed to the trace sink and the flight recorder.
  /// `Actor::FinishHop` skips unstamped messages before calling.
  void RecordHop(const Message& msg) const {
    HopRecord hop;
    hop.msg_id = msg.hop.msg_id;
    hop.type = msg.type;
    hop.src = msg.src;
    hop.dst = msg.dst;
    hop.window_index = msg.window_index;
    hop.wire_bytes = msg.WireSize();
    hop.enqueue_nanos = msg.hop.enqueue_nanos;
    hop.deliver_nanos = msg.hop.deliver_nanos;
    hop.dequeue_nanos = msg.hop.dequeue_nanos;
    hop.shaping_delay_nanos = msg.hop.shaping_delay_nanos;
    if (trace != nullptr) trace->RecordHop(hop);
    if (flight_recorder != nullptr) flight_recorder->RecordHop(hop);
  }
#endif
};

}  // namespace deco

#if DECO_TRACE_ENABLED
/// \brief Records a window-lifecycle span into the run context `run`.
#define DECO_TRACE_SPAN(run, node, phase, window, value) \
  DECO_TRACE_SPAN_MSG(run, node, phase, window, value, 0)

/// \brief Like `DECO_TRACE_SPAN`, but also tags the span with the causal
/// id of the message that triggered the phase (see `MessageCausalId`).
#define DECO_TRACE_SPAN_MSG(run, node, phase, window, value, msg_id) \
  (run).RecordSpan((node), (phase), (window), (value), (msg_id))
#else
#define DECO_TRACE_SPAN(run, node, phase, window, value) \
  do {                                                   \
  } while (false)
#define DECO_TRACE_SPAN_MSG(run, node, phase, window, value, msg_id) \
  do {                                                               \
  } while (false)
#endif
