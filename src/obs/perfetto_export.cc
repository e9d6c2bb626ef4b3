#include "obs/perfetto_export.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "common/file.h"
#include "common/json.h"

namespace deco {
namespace {

/// The trace's counter-value format: nine significant digits.
void AppendDouble(std::string* out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  *out += buf;
}

/// Microseconds since `origin`, with sub-microsecond precision (the
/// trace-event spec allows fractional `ts`).
void AppendTs(std::string* out, TimeNanos t, TimeNanos origin) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(t - origin) / 1e3);
  *out += buf;
}

TimeNanos TraceOrigin(const TelemetryLog& log) {
  TimeNanos origin = 0;
  bool seen = false;
  auto consider = [&](TimeNanos t) {
    if (t <= 0) return;
    if (!seen || t < origin) origin = t;
    seen = true;
  };
  for (const TelemetrySample& s : log.samples) consider(s.t_nanos);
  for (const TraceEvent& s : log.spans) consider(s.t_nanos);
  for (const HopRecord& h : log.hops) consider(h.enqueue_nanos);
  for (const WindowProvenance& w : log.provenance.windows) {
    consider(w.emit_nanos);
  }
  return origin;
}

}  // namespace

std::string PerfettoTraceJson(const TelemetryLog& log) {
  const TimeNanos origin = TraceOrigin(log);

  // Every node that appears anywhere gets a named process track. Names
  // come from the sampler series (the fabric registry); nodes only seen in
  // spans/hops fall back to "node-<id>".
  std::map<NodeId, std::string> node_names;
  for (const TelemetrySample& sample : log.samples) {
    for (const NodeSample& node : sample.nodes) {
      if (!node.name.empty()) node_names[node.node] = node.name;
    }
  }
  for (const TraceEvent& span : log.spans) node_names.emplace(span.node, "");
  for (const HopRecord& hop : log.hops) {
    node_names.emplace(hop.src, "");
    node_names.emplace(hop.dst, "");
  }
  for (auto& [id, name] : node_names) {
    if (name.empty()) name = "node-" + std::to_string(id);
  }

  std::string out;
  out.reserve(512 + node_names.size() * 160 + log.spans.size() * 160 +
              log.hops.size() * 256);
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  auto begin_event = [&] {
    out += first ? "\n" : ",\n";
    first = false;
  };

  for (const auto& [id, name] : node_names) {
    begin_event();
    out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": ";
    JsonAppendU64(&out, id);
    out += ", \"tid\": 0, \"args\": {\"name\": ";
    JsonAppendString(&out, name);
    out += "}}";
    begin_event();
    out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": ";
    JsonAppendU64(&out, id);
    out += ", \"tid\": 0, \"args\": {\"name\": ";
    JsonAppendString(&out, name);
    out += "}}";
  }

  // Window lifetime bars: first to last span per (node, window).
  struct Lifetime {
    TimeNanos begin = 0;
    TimeNanos end = 0;
  };
  std::map<std::pair<NodeId, uint64_t>, Lifetime> lifetimes;
  for (const TraceEvent& span : log.spans) {
    Lifetime& lt = lifetimes[{span.node, span.window_index}];
    if (lt.begin == 0 || span.t_nanos < lt.begin) lt.begin = span.t_nanos;
    if (span.t_nanos > lt.end) lt.end = span.t_nanos;
  }
  // Async ids must be unique per category; windows are disambiguated by
  // folding the node id into the high bits.
  uint64_t window_async_id = 0;
  std::map<std::pair<NodeId, uint64_t>, uint64_t> window_ids;
  for (const auto& [key, lt] : lifetimes) {
    window_ids[key] = ++window_async_id;
    begin_event();
    out += "{\"name\": \"window-";
    JsonAppendU64(&out, key.second);
    out += "\", \"cat\": \"window\", \"ph\": \"b\", \"id\": ";
    JsonAppendU64(&out, window_ids[key]);
    out += ", \"pid\": ";
    JsonAppendU64(&out, key.first);
    out += ", \"tid\": 0, \"ts\": ";
    AppendTs(&out, lt.begin, origin);
    out += ", \"args\": {\"window\": ";
    JsonAppendU64(&out, key.second);
    out += "}}";
    begin_event();
    out += "{\"name\": \"window-";
    JsonAppendU64(&out, key.second);
    out += "\", \"cat\": \"window\", \"ph\": \"e\", \"id\": ";
    JsonAppendU64(&out, window_ids[key]);
    out += ", \"pid\": ";
    JsonAppendU64(&out, key.first);
    out += ", \"tid\": 0, \"ts\": ";
    AppendTs(&out, lt.end, origin);
    out += "}";
  }

  for (const TraceEvent& span : log.spans) {
    begin_event();
    out += "{\"name\": \"";
    out += TracePhaseToString(span.phase);
    out += "\", \"cat\": \"span\", \"ph\": \"i\", \"s\": \"t\", \"pid\": ";
    JsonAppendU64(&out, span.node);
    out += ", \"tid\": 0, \"ts\": ";
    AppendTs(&out, span.t_nanos, origin);
    out += ", \"args\": {\"window\": ";
    JsonAppendU64(&out, span.window_index);
    out += ", \"value\": ";
    JsonAppendI64(&out, span.value);
    out += ", \"msg_id\": ";
    JsonAppendU64(&out, span.msg_id);
    out += "}}";
  }

  for (const HopRecord& hop : log.hops) {
    // In-flight bar on the *sender's* track: enqueue -> dequeue at the
    // receiver. Hop records are finalized at dequeue, so both ends exist.
    const TimeNanos end =
        std::max(hop.dequeue_nanos, hop.enqueue_nanos);
    begin_event();
    out += "{\"name\": \"";
    out += MessageTypeToString(hop.type);
    out += "\", \"cat\": \"net\", \"ph\": \"b\", \"id\": ";
    JsonAppendU64(&out, hop.msg_id);
    out += ", \"pid\": ";
    JsonAppendU64(&out, hop.src);
    out += ", \"tid\": 0, \"ts\": ";
    AppendTs(&out, hop.enqueue_nanos, origin);
    out += ", \"args\": {\"dst\": ";
    JsonAppendU64(&out, hop.dst);
    out += ", \"window\": ";
    JsonAppendU64(&out, hop.window_index);
    out += ", \"bytes\": ";
    JsonAppendU64(&out, hop.wire_bytes);
    out += ", \"shaping_delay_ns\": ";
    JsonAppendU64(&out, static_cast<uint64_t>(hop.shaping_delay_nanos));
    out += "}}";
    begin_event();
    out += "{\"name\": \"";
    out += MessageTypeToString(hop.type);
    out += "\", \"cat\": \"net\", \"ph\": \"e\", \"id\": ";
    JsonAppendU64(&out, hop.msg_id);
    out += ", \"pid\": ";
    JsonAppendU64(&out, hop.src);
    out += ", \"tid\": 0, \"ts\": ";
    AppendTs(&out, end, origin);
    out += "}";
  }

  // Live-accuracy counter tracks (ISSUE 6 / DESIGN.md §10): one counter
  // event per estimated window at its emit time, on a synthetic "accuracy"
  // process track so the error series never collides with a fabric node's
  // pid. Perfetto renders each args key as its own series, so the signed
  // decomposition (drop + staleness + approx = total) is directly
  // comparable on one track, with |total| as a separate magnitude track.
  if (!log.provenance.accuracy.empty()) {
    const uint64_t accuracy_pid =
        node_names.empty() ? 0 : node_names.rbegin()->first + 1;
    begin_event();
    out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": ";
    JsonAppendU64(&out, accuracy_pid);
    out += ", \"tid\": 0, \"args\": {\"name\": \"accuracy\"}}";

    // Emit times come from the matching provenance record (the estimator
    // runs post-hoc and carries no clock); windows without one — e.g. when
    // `max_windows` evicted the record — fall back to the previous
    // counter's timestamp so the series stays monotonic.
    std::map<uint64_t, TimeNanos> emit_times;
    for (const WindowProvenance& w : log.provenance.windows) {
      emit_times[w.window_index] = w.emit_nanos;
    }
    TimeNanos last_ts = origin;
    for (const WindowAccuracy& acc : log.provenance.accuracy) {
      auto it = emit_times.find(acc.window_index);
      const TimeNanos ts = it != emit_times.end() ? it->second : last_ts;
      last_ts = ts;
      begin_event();
      out += "{\"name\": \"live-error\", \"cat\": \"accuracy\", "
             "\"ph\": \"C\", \"pid\": ";
      JsonAppendU64(&out, accuracy_pid);
      out += ", \"tid\": 0, \"ts\": ";
      AppendTs(&out, ts, origin);
      out += ", \"args\": {\"drop\": ";
      AppendDouble(&out, acc.drop_error);
      out += ", \"staleness\": ";
      AppendDouble(&out, acc.staleness_error);
      out += ", \"approx\": ";
      AppendDouble(&out, acc.approx_error);
      out += "}}";
      begin_event();
      out += "{\"name\": \"abs-error\", \"cat\": \"accuracy\", "
             "\"ph\": \"C\", \"pid\": ";
      JsonAppendU64(&out, accuracy_pid);
      out += ", \"tid\": 0, \"ts\": ";
      AppendTs(&out, ts, origin);
      out += ", \"args\": {\"abs\": ";
      AppendDouble(&out, std::abs(acc.observed_error));
      out += "}}";
    }
  }

  out += first ? "]}\n" : "\n]}\n";
  return out;
}

Status WritePerfettoTrace(const std::string& path, const TelemetryLog& log) {
  return WriteFile(path, PerfettoTraceJson(log));
}

}  // namespace deco
