#include "obs/trace.h"

#include <algorithm>

namespace deco {

std::string_view TracePhaseToString(TracePhase phase) {
  switch (phase) {
    case TracePhase::kWindowOpen:
      return "window-open";
    case TracePhase::kPartialReceived:
      return "partial-received";
    case TracePhase::kAssemble:
      return "assemble";
    case TracePhase::kCorrect:
      return "correct";
    case TracePhase::kEmit:
      return "emit";
  }
  return "?";
}

TraceSink::TraceSink(Clock* clock, size_t capacity)
    : clock_(clock), capacity_(capacity) {}

namespace {
// Stripe by node id so concurrent nodes rarely contend. Node-keyed (not
// thread-keyed): a process-global thread counter would hand every run in
// the process a different stripe assignment, and with it a different
// drain order for simultaneous events — breaking sim replay identity for
// any binary that runs more than one experiment.
size_t NodeStripe(NodeId node, size_t num_stripes) {
  return static_cast<size_t>(node) % num_stripes;
}
}  // namespace

void TraceSink::Record(NodeId node, TracePhase phase, uint64_t window_index,
                       int64_t value, uint64_t msg_id) {
  TraceEvent event;
  event.t_nanos = clock_->NowNanos();
  event.node = node;
  event.phase = phase;
  event.window_index = window_index;
  event.value = value;
  event.msg_id = msg_id;

  Stripe& s = stripes_[NodeStripe(node, kStripes)];
  std::lock_guard<std::mutex> lock(s.mu);
  if (capacity_ > 0 && s.events.size() >= capacity_ / kStripes) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  s.events.push_back(event);
}

void TraceSink::RecordHop(const Message& msg) {
#if DECO_TRACE_ENABLED
  if (msg.hop.msg_id == 0) return;
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

  Stripe& s = stripes_[NodeStripe(msg.src, kStripes)];
  std::lock_guard<std::mutex> lock(s.mu);
  if (capacity_ > 0 && s.hops.size() >= capacity_ / kStripes) {
    hops_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  s.hops.push_back(hop);
#else
  (void)msg;
#endif
}

std::vector<TraceEvent> TraceSink::Drain() {
  std::vector<TraceEvent> all;
  for (Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    all.insert(all.end(), s.events.begin(), s.events.end());
    s.events.clear();
  }
  // Canonical order, not arrival order: simultaneous events (common
  // under --sim where whole bursts share a timestamp) tie-break on
  // stable fields so the drained stream is a pure function of the run.
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.t_nanos != b.t_nanos) return a.t_nanos < b.t_nanos;
                     if (a.node != b.node) return a.node < b.node;
                     if (a.window_index != b.window_index) {
                       return a.window_index < b.window_index;
                     }
                     return a.phase < b.phase;
                   });
  return all;
}

std::vector<HopRecord> TraceSink::DrainHops() {
  std::vector<HopRecord> all;
  for (Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    all.insert(all.end(), s.hops.begin(), s.hops.end());
    s.hops.clear();
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const HopRecord& a, const HopRecord& b) {
                     if (a.enqueue_nanos != b.enqueue_nanos) {
                       return a.enqueue_nanos < b.enqueue_nanos;
                     }
                     return a.msg_id < b.msg_id;
                   });
  return all;
}

size_t TraceSink::size() const {
  size_t n = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    n += s.events.size();
  }
  return n;
}

}  // namespace deco
