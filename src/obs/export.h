#pragma once

#include <string>

#include "common/status.h"
#include "metrics/report.h"
#include "obs/sampler.h"

/// \file export.h
/// \brief Serializes one run's telemetry (sampler time series, window
/// lifecycle spans, final `RunReport`) to machine-readable JSON and CSV.
///
/// JSON document layout (schema_version 7; every version-1..6 field is
/// preserved with unchanged meaning, so older consumers keep working —
/// tests/obs_test.cc's schema-compat case parses the document with a
/// v2-era reader):
/// \code{.json}
/// {
///   "schema_version": 7,
///   "scheme": "deco-async",
///   "report": { "events_processed": n, "wall_seconds": s,
///               "throughput_eps": r, "windows_emitted": n,
///               "correction_steps": n, "total_bytes": n,
///               "total_messages": n, "latency_mean_nanos": x,
///               "latency_p50_nanos": n, "latency_p99_nanos": n },
///   "cpu_breakdown": { "enabled": b, "alloc_counted": b,
///       "threads": [ { "name": s, "cpu_nanos": n, "wall_nanos": n,
///                      "messages_handled": n, "allocations": n,
///                      "allocated_bytes": n,
///                      "handlers": [{"type": s, "count": n,
///                                    "cpu_nanos": n, "wall_nanos": n}] } ] },
///   "samples": [ { "t_ms": x, "events_per_sec": r,
///                  "total_dropped": n,
///                  "counters": {"name": n, ...},
///                  "gauges": {"name": n, ...},
///                  "histograms": [{"name": s, "count": n, "mean": x,
///                                  "p50": n, "p99": n, "max": n}],
///                  "sketches": [{"name": s, "count": n, "sum": x,
///                                "min": x, "max": x, "p50": x, "p90": x,
///                                "p99": x}],
///                  "fleet": { "collapsed": b, "node_count": n,
///                             "detail_nodes": n, "nodes_down": n,
///                             "total_messages_sent": n,
///                             "total_bytes_sent": n,
///                             "total_messages_received": n,
///                             "total_bytes_received": n,
///                             "queue_depth": {"sum": n, "min": x,
///                                 "max": x, "p50": x, "p99": x},
///                             "messages_sent": {...},
///                             "bytes_sent": {...} },
///                  "nodes": [ { "node": id, "name": s, "queue_depth": n,
///                               "messages_sent": n, "bytes_sent": n,
///                               "messages_received": n,
///                               "bytes_received": n,
///                               "sent_by_type": {"partial-result":
///                                   {"messages": n, "bytes": n}, ...},
///                               "bytes_per_sec": r } ] } ],
///   "spans": [ { "t_ms": x, "node": id, "phase": s, "window": n,
///                "value": n, "msg_id": n } ],
///   "spans_dropped": n,
///   "hop_count": n,
///   "hops_dropped": n,
///   "latency_breakdown": { "emit_spans": n, "windows_attributed": n,
///       "unattributed": n, "mean": {components},
///       "windows": [ { "window": n, "root": id, "critical_src": id,
///                      "corrected": b, "exact": b,
///                      "components": {components} } ] },
///   "provenance_summary": { "enabled": b, "windows_tracked": n, ... }
///       (the `RunReport::provenance` POD, metrics/report.h),
///   "provenance": { "windows_tracked": n, "windows_dropped": n,
///       "windows": [ per-window records ], "accuracy": [ per-window
///       error decompositions ] } (obs/provenance.h `ProvenanceJson`),
///   "serving": { multi-query roll-up + per-tenant accounting
///       (metrics/report.h `ServingSummary`) },
///   "queries": [ { "id": n, "tenant": s, "spec": s, "start_pane": n,
///                  "end_pane": n, "activated": b, "windows": n } ],
///   "alerts": { "enabled": b, "fired": n, "active": n,
///       "items": [ { "kind": s, "subject": s, "fired_at_ms": x,
///                    "resolved_at_ms": x|null, "observed": x,
///                    "threshold": x, "message": s } ] },
///   "obs_self": { "enabled": b, "sampler_ticks": n,
///       "sampler_tick_mean_nanos": x, "sampler_tick_p50_nanos": x,
///       "sampler_tick_p99_nanos": x, "sampler_tick_max_nanos": x,
///       "tracker_bytes": n, "scrapes": n, "scrape_nanos_mean": x,
///       "scrape_nanos_p99": x, "exposition_bytes": n, "spans_dropped": n,
///       "hops_dropped": n, "node_detail_limit": n, "top_k": n }
/// }
/// \endcode
/// where `{components}` is `{ "total_nanos": x, "local_compute_nanos": x,
/// "correction_nanos": x, "shaping_nanos": x, "link_nanos": x,
/// "queue_nanos": x, "root_merge_nanos": x }` (see critical_path.h).
///
/// `t_ms` is milliseconds since the first sample; cumulative fabric
/// counters are carried as-is and per-interval rates (`bytes_per_sec`,
/// `events_per_sec`) are derived from consecutive samples at export time.
/// Since v2 the rates of the *first* sample are `null` (CSV: empty) — there
/// is no prior snapshot to rate against, and 0 was misleading. Only
/// message types with nonzero counts appear in `sent_by_type`. Since v3
/// the document carries `cpu_breakdown`, the run's per-thread CPU/alloc
/// profile (`{"enabled": false, ..., "threads": []}` when the run was not
/// profiled — null-safe defaults, never absent). Since v4 it carries
/// `provenance_summary` and `provenance` (DESIGN.md §10) — again always
/// present, with empty arrays and a disabled summary when no provenance
/// was collected. Since v5 it carries the multi-query serving roll-up
/// (`serving` + `queries`, DESIGN.md §11; disabled-and-empty for
/// single-query runs). Since v6 it carries `alerts`, the watchdog's
/// fired-alert log (DESIGN.md §12; `{"enabled": false, "fired": 0,
/// "active": 0, "items": []}` when no watchdog ran). Since v7 each sample
/// carries `sketches` (registered quantile sketches) and `fleet`
/// (bounded fleet aggregates — the authoritative totals when cardinality
/// governance records only a strided node subset, DESIGN.md §13), and the
/// document carries `obs_self`, the plane's self-metering (zeroed when no
/// sampler ran; its wall-clock nanos fields are the one part of the
/// document that does not replay byte-identically under --sim).

namespace deco {

/// \brief Renders the full telemetry document as a JSON string.
std::string TelemetryToJson(const RunReport& report, const TelemetryLog& log);

/// \brief Writes `TelemetryToJson` to `path`; IOError on filesystem
/// failure.
Status WriteTelemetryJson(const std::string& path, const RunReport& report,
                          const TelemetryLog& log);

/// \brief Writes the per-node time series as CSV (one row per sample x
/// node): t_ms,node,name,queue_depth,messages_sent,bytes_sent,
/// messages_received,bytes_received,bytes_per_sec. Fields containing
/// commas, quotes or newlines are RFC-4180 quoted; the first sample's rate
/// field is empty (no prior snapshot).
Status WriteSamplesCsv(const std::string& path, const TelemetryLog& log);

/// \brief Writes the span list as CSV: t_ms,node,phase,window,value,msg_id.
Status WriteSpansCsv(const std::string& path, const TelemetryLog& log);

/// \brief `TelemetryToJson` output with its wall-clock carriers blanked:
/// the `obs.self.sampler_tick_nanos` sketch snapshots inside samples and
/// the flat `obs_self` section. What remains replays byte-identically
/// under `--sim`, so replays compare on it.
std::string ScrubTelemetryJson(std::string json);

/// \brief A `/metrics` exposition minus every `deco_obs_self_*` line
/// (scrape counts and wall-clock self-metering differ per run even under
/// `--sim`).
std::string ScrubExposition(const std::string& text);

}  // namespace deco
