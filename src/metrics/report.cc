#include "metrics/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/json.h"

namespace deco {

std::string RunReport::Summary() const {
  char buf[512];
  int n = std::snprintf(
      buf, sizeof(buf),
      "%-12s windows=%llu events=%llu tput=%.3fM ev/s lat(mean)=%.3f ms "
      "lat(p99)=%.3f ms net=%.2f MB (%.2f B/ev) corrections=%llu",
      scheme.c_str(), static_cast<unsigned long long>(windows_emitted),
      static_cast<unsigned long long>(events_processed),
      throughput_eps / 1e6, latency.mean() / 1e6,
      static_cast<double>(latency.Percentile(0.99)) / 1e6,
      static_cast<double>(network.total_bytes) / 1e6, BytesPerEvent(),
      static_cast<unsigned long long>(correction_steps));
  if (correction_steps > 0 && n > 0 && static_cast<size_t>(n) < sizeof(buf)) {
    // What the corrections cost: the raw events they shipped, per event.
    uint64_t bytes = 0;
    for (const NodeTrafficStats& node : network.per_node) {
      bytes += node.bytes_sent_by_type[static_cast<size_t>(
          MessageType::kCorrectionResult)];
    }
    const double per_event =
        events_processed == 0 ? 0.0
                              : static_cast<double>(bytes) /
                                    static_cast<double>(events_processed);
    if (corrections_repaired > 0) {
      std::snprintf(buf + n, sizeof(buf) - n, " (%.2f B/ev, %llu repaired)",
                    per_event,
                    static_cast<unsigned long long>(corrections_repaired));
    } else {
      std::snprintf(buf + n, sizeof(buf) - n, " (%.2f B/ev)", per_event);
    }
  }
  return buf;
}

namespace {

// Local aliases for the shared deterministic-JSON primitives (common/json.h)
// this file historically defined itself.
constexpr auto AppendU64 = JsonAppendU64;
constexpr auto AppendI64 = JsonAppendI64;
constexpr auto AppendDouble = JsonAppendDouble;

}  // namespace

std::string ProfileReportJson(const ProfileReport& profile) {
  std::string out;
  out.reserve(256 + profile.threads.size() * 256);
  out += "{\"enabled\":";
  out += profile.enabled ? "true" : "false";
  out += ",\"alloc_counted\":";
  out += profile.alloc_counted ? "true" : "false";
  out += ",\"threads\":[";
  for (size_t i = 0; i < profile.threads.size(); ++i) {
    const ThreadProfile& thread = profile.threads[i];
    if (i > 0) out += ",";
    out += "{\"name\":";
    JsonAppendString(&out, thread.name);
    out += ",\"cpu_nanos\":";
    AppendU64(&out, thread.cpu_nanos);
    out += ",\"wall_nanos\":";
    AppendU64(&out, thread.wall_nanos);
    out += ",\"messages_handled\":";
    AppendU64(&out, thread.messages_handled);
    out += ",\"allocations\":";
    AppendU64(&out, thread.allocations);
    out += ",\"allocated_bytes\":";
    AppendU64(&out, thread.allocated_bytes);
    out += ",\"handlers\":[";
    for (size_t h = 0; h < thread.handlers.size(); ++h) {
      const HandlerProfile& handler = thread.handlers[h];
      if (h > 0) out += ",";
      out += "{\"type\":";
      JsonAppendString(&out, MessageTypeToString(handler.type));
      out += ",\"count\":";
      AppendU64(&out, handler.count);
      out += ",\"cpu_nanos\":";
      AppendU64(&out, handler.cpu_nanos);
      out += ",\"wall_nanos\":";
      AppendU64(&out, handler.wall_nanos);
      out += "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string ProvenanceSummaryJson(const ProvenanceSummary& summary) {
  std::string out;
  out.reserve(512);
  out += "{\"enabled\":";
  out += summary.enabled ? "true" : "false";
  out += ",\"windows_tracked\":";
  AppendU64(&out, summary.windows_tracked);
  out += ",\"windows_corrected\":";
  AppendU64(&out, summary.windows_corrected);
  out += ",\"correction_rounds\":";
  AppendU64(&out, summary.correction_rounds);
  out += ",\"partials_expected\":";
  AppendU64(&out, summary.partials_expected);
  out += ",\"partials_received\":";
  AppendU64(&out, summary.partials_received);
  out += ",\"partials_missing\":";
  AppendU64(&out, summary.partials_missing);
  out += ",\"partials_duplicate\":";
  AppendU64(&out, summary.partials_duplicate);
  out += ",\"mean_staleness_nanos\":";
  AppendDouble(&out, summary.mean_staleness_nanos);
  out += ",\"windows_estimated\":";
  AppendU64(&out, summary.windows_estimated);
  out += ",\"mean_abs_error\":";
  AppendDouble(&out, summary.mean_abs_error);
  out += ",\"max_abs_error\":";
  AppendDouble(&out, summary.max_abs_error);
  out += ",\"mean_abs_drop_error\":";
  AppendDouble(&out, summary.mean_abs_drop_error);
  out += ",\"mean_abs_staleness_error\":";
  AppendDouble(&out, summary.mean_abs_staleness_error);
  out += ",\"mean_abs_approx_error\":";
  AppendDouble(&out, summary.mean_abs_approx_error);
  out += "}";
  return out;
}

std::string RunReportJson(const RunReport& report) {
  std::string out;
  out.reserve(4096 + report.windows.size() * 96);
  out += "{\"scheme\":\"";
  out += report.scheme;
  out += "\",\"events_processed\":";
  AppendU64(&out, report.events_processed);
  out += ",\"windows_emitted\":";
  AppendU64(&out, report.windows_emitted);
  out += ",\"correction_steps\":";
  AppendU64(&out, report.correction_steps);
  out += ",\"wall_seconds\":";
  AppendDouble(&out, report.wall_seconds);
  out += ",\"throughput_eps\":";
  AppendDouble(&out, report.throughput_eps);
  out += ",\"delivery_hash\":";
  AppendU64(&out, report.delivery_hash);

  out += ",\"latency\":{\"count\":";
  AppendU64(&out, report.latency.count());
  out += ",\"mean\":";
  AppendDouble(&out, report.latency.mean());
  out += ",\"min\":";
  AppendI64(&out, report.latency.min());
  out += ",\"max\":";
  AppendI64(&out, report.latency.max());
  out += ",\"p99\":";
  AppendI64(&out, report.latency.Percentile(0.99));
  out += "}";

  out += ",\"network\":{\"total_messages\":";
  AppendU64(&out, report.network.total_messages);
  out += ",\"total_bytes\":";
  AppendU64(&out, report.network.total_bytes);
  out += ",\"total_dropped\":";
  AppendU64(&out, report.network.total_dropped);
  out += ",\"per_node\":[";
  for (size_t i = 0; i < report.network.per_node.size(); ++i) {
    const NodeTrafficStats& node = report.network.per_node[i];
    if (i > 0) out += ",";
    out += "{\"messages_sent\":";
    AppendU64(&out, node.messages_sent);
    out += ",\"bytes_sent\":";
    AppendU64(&out, node.bytes_sent);
    out += ",\"messages_received\":";
    AppendU64(&out, node.messages_received);
    out += ",\"bytes_received\":";
    AppendU64(&out, node.bytes_received);
    out += ",\"queue_depth_high_water\":";
    AppendU64(&out, node.queue_depth_high_water);
    out += "}";
  }
  out += "]}";

  out += ",\"membership\":[";
  for (size_t i = 0; i < report.membership.size(); ++i) {
    const MembershipEvent& event = report.membership[i];
    if (i > 0) out += ",";
    out += "{\"node\":";
    AppendU64(&out, event.node);
    out += ",\"rejoined\":";
    out += event.rejoined ? "true" : "false";
    out += ",\"offset_nanos\":";
    AppendI64(&out, event.at_nanos - report.start_wall_nanos);
    out += "}";
  }
  out += "]";

  out += ",\"windows\":[";
  for (size_t i = 0; i < report.windows.size(); ++i) {
    const GlobalWindowRecord& w = report.windows[i];
    if (i > 0) out += ",";
    out += "{\"index\":";
    AppendU64(&out, w.window_index);
    out += ",\"value\":";
    AppendDouble(&out, w.value);
    out += ",\"event_count\":";
    AppendU64(&out, w.event_count);
    out += ",\"end_ts\":";
    AppendI64(&out, w.end_ts);
    out += ",\"mean_latency_nanos\":";
    AppendDouble(&out, w.mean_latency_nanos);
    out += ",\"corrected\":";
    out += w.corrected ? "true" : "false";
    out += "}";
  }
  out += "]";

  out += ",\"consumption\":[";
  for (size_t w = 0; w < report.consumption.num_windows(); ++w) {
    if (w > 0) out += ",";
    out += "[";
    const std::vector<uint64_t>& counts = report.consumption.window(w);
    for (size_t n = 0; n < counts.size(); ++n) {
      if (n > 0) out += ",";
      AppendU64(&out, counts[n]);
    }
    out += "]";
  }
  out += "]";

  // Additive since schema v3; {"enabled":false,...} with empty threads in
  // unprofiled runs, so v2 consumers that ignore unknown keys still parse.
  out += ",\"profile\":";
  out += ProfileReportJson(report.profile);

  // Additive since the provenance layer (DESIGN.md §10); disabled-and-zero
  // when no tracker was installed.
  out += ",\"provenance\":";
  out += ProvenanceSummaryJson(report.provenance);

  // Additive since the serving layer (DESIGN.md §11). Per-query summaries
  // only — the primary's windows are already in "windows", and a 64-query
  // run would multiply the document size; full per-query window arrays
  // stay in the report struct for programmatic consumers.
  out += ",\"queries\":[";
  for (size_t i = 0; i < report.query_results.size(); ++i) {
    const QueryRunResult& q = report.query_results[i];
    if (i > 0) out += ",";
    out += "{\"id\":";
    AppendU64(&out, q.query_id);
    out += ",\"tenant\":\"";
    out += q.tenant;
    out += "\",\"spec\":\"";
    out += q.spec;
    out += "\",\"start_pane\":";
    AppendU64(&out, q.start_pane);
    out += ",\"end_pane\":";
    AppendU64(&out, q.end_pane);
    out += ",\"activated\":";
    out += q.activated ? "true" : "false";
    out += ",\"windows\":";
    AppendU64(&out, q.windows.size());
    out += ",\"last_value\":";
    AppendDouble(&out, q.windows.empty() ? 0.0 : q.windows.back().value);
    out += "}";
  }
  out += "]";

  out += ",\"serving\":";
  out += ServingSummaryJson(report.serving);
  out += "}";
  return out;
}

std::string ServingSummaryJson(const ServingSummary& serving) {
  std::string out;
  out += "{\"enabled\":";
  out += serving.enabled ? "true" : "false";
  out += ",\"pane_length\":";
  AppendU64(&out, serving.pane_length);
  out += ",\"queries\":";
  AppendU64(&out, serving.queries);
  out += ",\"slots\":";
  AppendU64(&out, serving.slots);
  out += ",\"total_query_windows\":";
  AppendU64(&out, serving.total_query_windows);
  out += ",\"tenants\":[";
  for (size_t i = 0; i < serving.tenants.size(); ++i) {
    const TenantUsage& t = serving.tenants[i];
    if (i > 0) out += ",";
    out += "{\"tenant\":\"";
    out += t.tenant;
    out += "\",\"bytes\":";
    AppendU64(&out, t.bytes);
    out += ",\"agg_ops\":";
    AppendU64(&out, t.agg_ops);
    out += ",\"cpu_nanos_est\":";
    AppendU64(&out, t.cpu_nanos_est);
    out += ",\"queries\":";
    AppendU64(&out, t.queries);
    out += "}";
  }
  out += "]}";
  return out;
}

double InterpolateTruth(const std::vector<GlobalWindowRecord>& truth,
                        EventTime ts) {
  const auto at_or_after = std::lower_bound(
      truth.begin(), truth.end(), ts,
      [](const GlobalWindowRecord& w, EventTime t) { return w.end_ts < t; });
  if (at_or_after == truth.begin()) return truth.front().value;
  if (at_or_after == truth.end()) return truth.back().value;
  const GlobalWindowRecord& hi = *at_or_after;
  const GlobalWindowRecord& lo = *(at_or_after - 1);
  if (hi.end_ts == lo.end_ts) return hi.value;
  const double frac = static_cast<double>(ts - lo.end_ts) /
                      static_cast<double>(hi.end_ts - lo.end_ts);
  return lo.value + frac * (hi.value - lo.value);
}

TailError TimeAlignedTailError(const RunReport& truth, const RunReport& probe,
                               double tail_fraction) {
  TailError result;
  if (truth.windows.size() < 2 || probe.windows.empty()) return result;
  const size_t first =
      probe.windows.size() -
      std::max<size_t>(1, static_cast<size_t>(
                              static_cast<double>(probe.windows.size()) *
                              tail_fraction));
  const EventTime truth_max = truth.windows.back().end_ts;
  double abs_err_sum = 0.0;
  double abs_truth_sum = 0.0;
  for (size_t i = first; i < probe.windows.size(); ++i) {
    const GlobalWindowRecord& w = probe.windows[i];
    if (w.end_ts > truth_max) continue;  // truth run ended earlier
    const double expected = InterpolateTruth(truth.windows, w.end_ts);
    abs_err_sum += std::fabs(w.value - expected);
    abs_truth_sum += std::fabs(expected);
    ++result.compared;
  }
  if (result.compared > 0 && abs_truth_sum > 0.0) {
    result.relative = abs_err_sum / abs_truth_sum;
  }
  return result;
}

}  // namespace deco
