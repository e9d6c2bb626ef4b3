#include "obs/export.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/file.h"
#include "common/json.h"
#include "common/logging.h"
#include "obs/critical_path.h"

namespace deco {
namespace {

/// The telemetry document's number format: six significant digits, and
/// non-finite values (which JSON cannot spell) written as 0.
void AppendDouble(std::string* out, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *out += buf;
}

double MillisSince(TimeNanos t, TimeNanos origin) {
  return static_cast<double>(t - origin) / kNanosPerMilli;
}

/// Value of a named counter in a snapshot; 0 when absent.
int64_t CounterValue(const MetricsSnapshot& metrics,
                     const std::string& name) {
  for (const auto& [n, v] : metrics.counters) {
    if (n == name) return v;
  }
  return 0;
}

/// Per-second rate of `curr - prev` over the samples' time gap.
double Rate(uint64_t prev, uint64_t curr, TimeNanos prev_t, TimeNanos curr_t) {
  if (curr_t <= prev_t || curr < prev) return 0.0;
  return static_cast<double>(curr - prev) * kNanosPerSecond /
         static_cast<double>(curr_t - prev_t);
}

/// The previous sample's record for `node`, by id — governed samples hold
/// strided subsets, so positional lookup would pair different nodes.
/// Sample node lists are id-sorted, so a binary search suffices.
const NodeSample* FindNode(const TelemetrySample* sample, NodeId node) {
  if (sample == nullptr) return nullptr;
  auto it = std::lower_bound(
      sample->nodes.begin(), sample->nodes.end(), node,
      [](const NodeSample& s, NodeId id) { return s.node < id; });
  if (it == sample->nodes.end() || it->node != node) return nullptr;
  return &*it;
}

void AppendFleetMetric(std::string* out, const char* key,
                       const FleetMetricSummary& m) {
  *out += ", \"";
  *out += key;
  *out += "\": {\"sum\": ";
  JsonAppendU64(out, m.sum);
  *out += ", \"min\": ";
  AppendDouble(out, m.min);
  *out += ", \"max\": ";
  AppendDouble(out, m.max);
  *out += ", \"p50\": ";
  AppendDouble(out, m.p50);
  *out += ", \"p99\": ";
  AppendDouble(out, m.p99);
  *out += "}";
}

TimeNanos SeriesOrigin(const TelemetryLog& log) {
  if (!log.samples.empty()) return log.samples.front().t_nanos;
  if (!log.spans.empty()) return log.spans.front().t_nanos;
  return 0;
}

void AppendComponents(std::string* out, const LatencyComponents& c) {
  *out += "{\"total_nanos\": ";
  AppendDouble(out, c.total_nanos);
  *out += ", \"local_compute_nanos\": ";
  AppendDouble(out, c.local_compute_nanos);
  *out += ", \"correction_nanos\": ";
  AppendDouble(out, c.correction_nanos);
  *out += ", \"shaping_nanos\": ";
  AppendDouble(out, c.shaping_nanos);
  *out += ", \"link_nanos\": ";
  AppendDouble(out, c.link_nanos);
  *out += ", \"queue_nanos\": ";
  AppendDouble(out, c.queue_nanos);
  *out += ", \"root_merge_nanos\": ";
  AppendDouble(out, c.root_merge_nanos);
  *out += "}";
}

/// Blanks the JSON object around each occurrence of `marker` (flat
/// objects only — the self-metering spans are deliberately kept flat so
/// this stays trivial). `object_starts_after` picks between a marker that
/// precedes its object (`"obs_self": {...}`) and one inside it
/// (`{"name": "obs.self...", ...}`).
void BlankObjectSpans(std::string* text, const std::string& marker,
                      bool object_starts_after) {
  size_t pos = 0;
  while ((pos = text->find(marker, pos)) != std::string::npos) {
    const size_t begin = object_starts_after
                             ? text->find('{', pos + marker.size())
                             : text->rfind('{', pos);
    if (begin == std::string::npos) break;
    const size_t end = text->find('}', begin);
    if (end == std::string::npos) break;
    // Fixed-width token: the spans differ in length across runs (e.g.
    // "node_detail_limit": 64 vs 0), so in-place blanking is not enough.
    text->replace(begin, end - begin + 1, 1, '#');
    pos = begin + 1;
  }
}

}  // namespace

std::string TelemetryToJson(const RunReport& report,
                            const TelemetryLog& log) {
  const TimeNanos origin = SeriesOrigin(log);
  std::string out;
  out.reserve(4096 + log.samples.size() * 512 + log.spans.size() * 96);

  out += "{\n  \"schema_version\": 7,\n  \"scheme\": ";
  JsonAppendString(&out, report.scheme);
  out += ",\n  \"report\": {\"events_processed\": ";
  JsonAppendU64(&out, report.events_processed);
  out += ", \"wall_seconds\": ";
  AppendDouble(&out, report.wall_seconds);
  out += ", \"throughput_eps\": ";
  AppendDouble(&out, report.throughput_eps);
  out += ", \"windows_emitted\": ";
  JsonAppendU64(&out, report.windows_emitted);
  out += ", \"correction_steps\": ";
  JsonAppendU64(&out, report.correction_steps);
  out += ", \"total_bytes\": ";
  JsonAppendU64(&out, report.network.total_bytes);
  out += ", \"total_messages\": ";
  JsonAppendU64(&out, report.network.total_messages);
  out += ", \"latency_mean_nanos\": ";
  AppendDouble(&out, report.latency.mean());
  out += ", \"latency_p50_nanos\": ";
  JsonAppendI64(&out, report.latency.Percentile(0.5));
  out += ", \"latency_p99_nanos\": ";
  JsonAppendI64(&out, report.latency.Percentile(0.99));
  // Schema v3: the run's CPU/alloc profile. Disabled-with-empty-threads
  // (never absent) when the run was not profiled, so consumers need no
  // existence check.
  out += "},\n  \"cpu_breakdown\": ";
  out += ProfileReportJson(report.profile);
  out += ",\n  \"samples\": [";

  for (size_t i = 0; i < log.samples.size(); ++i) {
    const TelemetrySample& sample = log.samples[i];
    const TelemetrySample* prev = i > 0 ? &log.samples[i - 1] : nullptr;
    out += i == 0 ? "\n    {" : ",\n    {";
    out += "\"t_ms\": ";
    AppendDouble(&out, MillisSince(sample.t_nanos, origin));
    out += ", \"events_per_sec\": ";
    if (prev != nullptr) {
      const int64_t curr_events =
          CounterValue(sample.metrics, "root.events_emitted");
      const int64_t prev_events =
          CounterValue(prev->metrics, "root.events_emitted");
      AppendDouble(&out, Rate(static_cast<uint64_t>(prev_events),
                              static_cast<uint64_t>(curr_events),
                              prev->t_nanos, sample.t_nanos));
    } else {
      // No prior snapshot: the first sample has no interval to rate over,
      // so the rate is absent rather than a misleading 0 (schema v2).
      out += "null";
    }
    out += ", \"total_dropped\": ";
    JsonAppendU64(&out, sample.total_dropped);

    out += ", \"counters\": {";
    for (size_t c = 0; c < sample.metrics.counters.size(); ++c) {
      if (c > 0) out += ", ";
      JsonAppendString(&out, sample.metrics.counters[c].first);
      out += ": ";
      JsonAppendI64(&out, sample.metrics.counters[c].second);
    }
    out += "}, \"gauges\": {";
    for (size_t g = 0; g < sample.metrics.gauges.size(); ++g) {
      if (g > 0) out += ", ";
      JsonAppendString(&out, sample.metrics.gauges[g].first);
      out += ": ";
      JsonAppendI64(&out, sample.metrics.gauges[g].second);
    }
    // Schema v7 readers expect the histogram list, so it stays, empty.
    // Registered quantile sketches ride along with every snapshot.
    out += "}, \"histograms\": [], \"sketches\": [";
    for (size_t s = 0; s < sample.metrics.sketches.size(); ++s) {
      const SketchSnapshot& sketch = sample.metrics.sketches[s];
      if (s > 0) out += ", ";
      out += "{\"name\": ";
      JsonAppendString(&out, sketch.name);
      out += ", \"count\": ";
      JsonAppendU64(&out, sketch.count);
      out += ", \"sum\": ";
      AppendDouble(&out, sketch.sum);
      out += ", \"min\": ";
      AppendDouble(&out, sketch.min);
      out += ", \"max\": ";
      AppendDouble(&out, sketch.max);
      out += ", \"p50\": ";
      AppendDouble(&out, sketch.p50);
      out += ", \"p90\": ";
      AppendDouble(&out, sketch.p90);
      out += ", \"p99\": ";
      AppendDouble(&out, sketch.p99);
      out += "}";
    }
    // Schema v7: fleet aggregates — the authoritative totals when the
    // nodes array below holds only a governed subset.
    out += "], \"fleet\": {\"collapsed\": ";
    out += sample.fleet.collapsed ? "true" : "false";
    out += ", \"node_count\": ";
    JsonAppendU64(&out, sample.fleet.node_count);
    out += ", \"detail_nodes\": ";
    JsonAppendU64(&out, sample.fleet.detail_nodes);
    out += ", \"nodes_down\": ";
    JsonAppendU64(&out, sample.fleet.nodes_down);
    out += ", \"total_messages_sent\": ";
    JsonAppendU64(&out, sample.fleet.total_messages_sent);
    out += ", \"total_bytes_sent\": ";
    JsonAppendU64(&out, sample.fleet.total_bytes_sent);
    out += ", \"total_messages_received\": ";
    JsonAppendU64(&out, sample.fleet.total_messages_received);
    out += ", \"total_bytes_received\": ";
    JsonAppendU64(&out, sample.fleet.total_bytes_received);
    AppendFleetMetric(&out, "queue_depth", sample.fleet.queue_depth);
    AppendFleetMetric(&out, "messages_sent", sample.fleet.messages_sent);
    AppendFleetMetric(&out, "bytes_sent", sample.fleet.bytes_sent);
    out += "}, \"nodes\": [";
    for (size_t n = 0; n < sample.nodes.size(); ++n) {
      const NodeSample& node = sample.nodes[n];
      if (n > 0) out += ", ";
      out += "{\"node\": ";
      JsonAppendU64(&out, node.node);
      out += ", \"name\": ";
      JsonAppendString(&out, node.name);
      out += ", \"queue_depth\": ";
      JsonAppendU64(&out, node.queue_depth);
      out += ", \"messages_sent\": ";
      JsonAppendU64(&out, node.messages_sent);
      out += ", \"bytes_sent\": ";
      JsonAppendU64(&out, node.bytes_sent);
      out += ", \"messages_received\": ";
      JsonAppendU64(&out, node.messages_received);
      out += ", \"bytes_received\": ";
      JsonAppendU64(&out, node.bytes_received);
      out += ", \"sent_by_type\": {";
      bool first_type = true;
      for (size_t t = 0; t < kNumMessageTypes; ++t) {
        if (node.messages_sent_by_type[t] == 0) continue;
        if (!first_type) out += ", ";
        first_type = false;
        out += "\"";
        out += MessageTypeToString(static_cast<MessageType>(t));
        out += "\": {\"messages\": ";
        JsonAppendU64(&out, node.messages_sent_by_type[t]);
        out += ", \"bytes\": ";
        JsonAppendU64(&out, node.bytes_sent_by_type[t]);
        out += "}";
      }
      out += "}, \"bytes_per_sec\": ";
      const NodeSample* prev_node = FindNode(prev, node.node);
      if (prev_node != nullptr) {
        AppendDouble(&out, Rate(prev_node->bytes_sent, node.bytes_sent,
                                prev->t_nanos, sample.t_nanos));
      } else {
        out += "null";  // no prior record of this node: nothing to rate
      }
      out += "}";
    }
    out += "]}";
  }
  out += log.samples.empty() ? "],\n" : "\n  ],\n";

  out += "  \"spans\": [";
  for (size_t i = 0; i < log.spans.size(); ++i) {
    const TraceEvent& span = log.spans[i];
    out += i == 0 ? "\n    {" : ",\n    {";
    out += "\"t_ms\": ";
    AppendDouble(&out, MillisSince(span.t_nanos, origin));
    out += ", \"node\": ";
    JsonAppendU64(&out, span.node);
    out += ", \"phase\": \"";
    out += TracePhaseToString(span.phase);
    out += "\", \"window\": ";
    JsonAppendU64(&out, span.window_index);
    out += ", \"value\": ";
    JsonAppendI64(&out, span.value);
    out += ", \"msg_id\": ";
    JsonAppendU64(&out, span.msg_id);
    out += "}";
  }
  out += log.spans.empty() ? "],\n" : "\n  ],\n";
  out += "  \"spans_dropped\": ";
  JsonAppendU64(&out, log.spans_dropped);
  out += ",\n  \"hop_count\": ";
  JsonAppendU64(&out, log.hops.size());
  out += ",\n  \"hops_dropped\": ";
  JsonAppendU64(&out, log.hops_dropped);

  const LatencyAttribution attribution = AttributeWindowLatency(log);
  out += ",\n  \"latency_breakdown\": {\"emit_spans\": ";
  JsonAppendU64(&out, attribution.emit_spans);
  out += ", \"windows_attributed\": ";
  JsonAppendU64(&out, attribution.windows.size());
  out += ", \"unattributed\": ";
  JsonAppendU64(&out, attribution.unattributed);
  out += ", \"mean\": ";
  AppendComponents(&out, attribution.mean);
  out += ", \"windows\": [";
  for (size_t i = 0; i < attribution.windows.size(); ++i) {
    const WindowAttribution& w = attribution.windows[i];
    out += i == 0 ? "\n    {" : ",\n    {";
    out += "\"window\": ";
    JsonAppendU64(&out, w.window_index);
    out += ", \"root\": ";
    JsonAppendU64(&out, w.root);
    out += ", \"critical_src\": ";
    JsonAppendU64(&out, w.critical_src);
    out += ", \"corrected\": ";
    out += w.corrected ? "true" : "false";
    out += ", \"exact\": ";
    out += w.exact ? "true" : "false";
    out += ", \"components\": ";
    AppendComponents(&out, w.components);
    out += "}";
  }
  out += attribution.windows.empty() ? "]}" : "\n  ]}";

  // Schema v4: per-window provenance records + accuracy attribution and
  // their run-level summary. Always present (empty arrays and a
  // disabled-and-zero summary when the run collected none), so consumers
  // need no existence check.
  out += ",\n  \"provenance_summary\": ";
  out += ProvenanceSummaryJson(report.provenance);
  out += ",\n  \"provenance\": ";
  out += ProvenanceJson(log.provenance);

  // Schema v5: the multi-query serving roll-up (per-query window counts +
  // per-tenant accounting). Always present — disabled-and-empty for
  // single-query runs — so consumers need no existence check.
  out += ",\n  \"serving\": ";
  out += ServingSummaryJson(report.serving);
  out += ",\n  \"queries\": [";
  for (size_t i = 0; i < report.query_results.size(); ++i) {
    const QueryRunResult& q = report.query_results[i];
    out += i == 0 ? "\n    {" : ",\n    {";
    out += "\"id\": ";
    JsonAppendU64(&out, q.query_id);
    out += ", \"tenant\": ";
    JsonAppendString(&out, q.tenant);
    out += ", \"spec\": ";
    JsonAppendString(&out, q.spec);
    out += ", \"start_pane\": ";
    JsonAppendU64(&out, q.start_pane);
    out += ", \"end_pane\": ";
    JsonAppendU64(&out, q.end_pane);
    out += ", \"activated\": ";
    out += q.activated ? "true" : "false";
    out += ", \"windows\": ";
    JsonAppendU64(&out, q.windows.size());
    out += "}";
  }
  out += report.query_results.empty() ? "]" : "\n  ]";

  // Schema v6: the watchdog alert section. Always present — disabled and
  // empty when no watchdog ran — so consumers need no existence check.
  out += ",\n  \"alerts\": {\"enabled\": ";
  out += log.alerts_enabled ? "true" : "false";
  out += ", \"fired\": ";
  JsonAppendU64(&out, log.alerts.size());
  size_t active_alerts = 0;
  for (const Alert& a : log.alerts) {
    if (a.resolved_at_nanos == 0) ++active_alerts;
  }
  out += ", \"active\": ";
  JsonAppendU64(&out, active_alerts);
  out += ", \"items\": [";
  for (size_t i = 0; i < log.alerts.size(); ++i) {
    const Alert& a = log.alerts[i];
    out += i == 0 ? "\n    {" : ",\n    {";
    out += "\"kind\": ";
    JsonAppendString(&out, std::string(AlertKindToString(a.kind)));
    out += ", \"subject\": ";
    JsonAppendString(&out, a.subject);
    out += ", \"fired_at_ms\": ";
    AppendDouble(&out, static_cast<double>(a.fired_at_nanos - origin) / 1e6);
    out += ", \"resolved_at_ms\": ";
    if (a.resolved_at_nanos == 0) {
      out += "null";
    } else {
      AppendDouble(&out,
                   static_cast<double>(a.resolved_at_nanos - origin) / 1e6);
    }
    out += ", \"observed\": ";
    AppendDouble(&out, a.observed);
    out += ", \"threshold\": ";
    AppendDouble(&out, a.threshold);
    out += ", \"message\": ";
    JsonAppendString(&out, a.message);
    out += "}";
  }
  out += log.alerts.empty() ? "]}" : "\n  ]}";

  // Schema v7: self-metering of the observability plane. Always present
  // (zeroed when no sampler ran) and deliberately flat — wall-clock
  // fields are scrubbed by byte-identity gates, which is easiest when the
  // section has no nested objects.
  const TelemetryLog::ObsSelf& self = log.obs_self;
  out += ",\n  \"obs_self\": {\"enabled\": ";
  out += self.enabled ? "true" : "false";
  out += ", \"sampler_ticks\": ";
  JsonAppendU64(&out, self.sampler.ticks);
  out += ", \"sampler_tick_mean_nanos\": ";
  AppendDouble(&out, self.sampler.tick_nanos_mean);
  out += ", \"sampler_tick_p50_nanos\": ";
  AppendDouble(&out, self.sampler.tick_nanos_p50);
  out += ", \"sampler_tick_p99_nanos\": ";
  AppendDouble(&out, self.sampler.tick_nanos_p99);
  out += ", \"sampler_tick_max_nanos\": ";
  AppendDouble(&out, self.sampler.tick_nanos_max);
  out += ", \"tracker_bytes\": ";
  JsonAppendU64(&out, self.sampler.tracker_bytes);
  out += ", \"scrapes\": ";
  JsonAppendU64(&out, self.scrapes);
  out += ", \"scrape_nanos_mean\": ";
  AppendDouble(&out, self.scrape_nanos_mean);
  out += ", \"scrape_nanos_p99\": ";
  AppendDouble(&out, self.scrape_nanos_p99);
  out += ", \"exposition_bytes\": ";
  JsonAppendU64(&out, self.exposition_bytes);
  out += ", \"spans_dropped\": ";
  JsonAppendU64(&out, log.spans_dropped);
  out += ", \"hops_dropped\": ";
  JsonAppendU64(&out, log.hops_dropped);
  out += ", \"node_detail_limit\": ";
  JsonAppendU64(&out, self.node_detail_limit);
  out += ", \"top_k\": ";
  JsonAppendU64(&out, self.top_k);
  out += "}";
  out += "\n}\n";
  return out;
}

Status WriteTelemetryJson(const std::string& path, const RunReport& report,
                          const TelemetryLog& log) {
  if (log.spans_dropped > 0 || log.hops_dropped > 0) {
    DECO_LOG(WARNING) << "telemetry export to " << path << " is truncated: "
                      << log.spans_dropped << " spans and "
                      << log.hops_dropped
                      << " hop records were dropped at capacity; rerun with "
                         "a larger --trace_capacity";
  }
  return WriteFile(path, TelemetryToJson(report, log));
}

std::string ScrubTelemetryJson(std::string json) {
  BlankObjectSpans(&json, "obs.self.sampler_tick_nanos", false);
  BlankObjectSpans(&json, "\"obs_self\"", true);
  return json;
}

std::string ScrubExposition(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size() - 1;
    const std::string line = text.substr(pos, eol - pos + 1);
    if (line.find("deco_obs_self") == std::string::npos) out += line;
    pos = eol + 1;
  }
  return out;
}

}  // namespace deco
