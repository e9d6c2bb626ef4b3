#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "event/event.h"
#include "metrics/correctness.h"
#include "metrics/histogram.h"
#include "net/fabric.h"

/// \file report.h
/// \brief The measurement record one experiment run produces; every
/// benchmark, example and integration test consumes this.

namespace deco {

/// \brief One emitted global window result, as reported by a scheme's root.
struct GlobalWindowRecord {
  uint64_t window_index = 0;
  double value = 0.0;          ///< finalized aggregate
  uint64_t event_count = 0;    ///< always l_global for complete windows
  double mean_latency_nanos = 0.0;  ///< mean event processing-time latency
  bool corrected = false;      ///< window needed a correction step

  /// Event-time of the window's last event (its watermark timestamp).
  /// Chaos benchmarking aligns windows of different runs on this axis:
  /// after a node removal the runs' window *indices* shift (the removed
  /// node's unconsumed events are lost), but event-time still lines up.
  EventTime end_ts = 0;
};

/// \brief One membership change observed by the root: a local node removed
/// after a silence timeout, or re-admitted after a rejoin announcement
/// (paper §4.3.4 + the rejoin extension, DESIGN.md §6).
struct MembershipEvent {
  TimeNanos at_nanos = 0;  ///< root wall-clock when the change was applied
  size_t node = 0;         ///< local node ordinal
  bool rejoined = false;   ///< false = removed (timeout), true = re-admitted
};

/// \brief CPU/wall cost of one message-handler class on one actor thread.
///
/// The profiler attributes the interval from a message's dequeue to the
/// actor's next receive call to that message's `MessageType`; actors that
/// interleave non-message work between receives (the ingest loop of a
/// local node) fold that work into the preceding handler's cost, so the
/// per-type split is exact for purely message-driven actors (the root) and
/// an upper bound elsewhere.
struct HandlerProfile {
  MessageType type = MessageType::kEventBatch;
  uint64_t count = 0;        ///< messages of this type dispatched
  uint64_t cpu_nanos = 0;    ///< thread CPU time spent in the handler
  uint64_t wall_nanos = 0;   ///< wall-clock time spent in the handler
};

/// \brief One actor thread's profile: total CPU, handler split, allocation
/// counters (all zero unless the run enabled the profiler).
struct ThreadProfile {
  std::string name;          ///< fabric node name ("root", "local-0", ...)
  uint64_t cpu_nanos = 0;    ///< CLOCK_THREAD_CPUTIME_ID over the actor body
  uint64_t wall_nanos = 0;   ///< wall-clock duration of the actor body
  uint64_t messages_handled = 0;
  uint64_t allocations = 0;      ///< operator-new calls on this thread
  uint64_t allocated_bytes = 0;  ///< bytes requested by those calls
  /// Per-`MessageType` handler attribution; only types with nonzero counts
  /// appear, in enum order.
  std::vector<HandlerProfile> handlers;
};

/// \brief Whole-run CPU/allocation profile (DESIGN.md §9). Default state is
/// "disabled, empty", so every consumer can read the fields without
/// checking `enabled` first.
struct ProfileReport {
  bool enabled = false;        ///< this run was profiled
  bool alloc_counted = false;  ///< counting allocator hook was active
  std::vector<ThreadProfile> threads;  ///< actor threads, registration order

  /// \brief Sum of per-thread CPU across all actor threads.
  uint64_t TotalCpuNanos() const {
    uint64_t total = 0;
    for (const ThreadProfile& t : threads) total += t.cpu_nanos;
    return total;
  }
  /// \brief Sum of per-thread allocation counts.
  uint64_t TotalAllocations() const {
    uint64_t total = 0;
    for (const ThreadProfile& t : threads) total += t.allocations;
    return total;
  }
  /// \brief Sum of per-thread allocated bytes.
  uint64_t TotalAllocatedBytes() const {
    uint64_t total = 0;
    for (const ThreadProfile& t : threads) total += t.allocated_bytes;
    return total;
  }
};

/// \brief Whole-run roll-up of the per-window provenance records
/// (src/obs/provenance.h, DESIGN.md §10). Plain summary POD so the metrics
/// layer stays independent of the observability library; default state is
/// "disabled, all zero", so consumers never need an existence check.
struct ProvenanceSummary {
  bool enabled = false;          ///< a tracker was installed for this run
  uint64_t windows_tracked = 0;  ///< provenance records retained
  uint64_t windows_corrected = 0;
  uint64_t correction_rounds = 0;  ///< solicit rounds across all windows
  uint64_t partials_expected = 0;
  uint64_t partials_received = 0;
  uint64_t partials_missing = 0;   ///< expected - received, summed
  uint64_t partials_duplicate = 0;
  /// Mean staleness (partial arrival minus mean event creation) across all
  /// accepted partials that carried creation metadata, nanoseconds.
  double mean_staleness_nanos = 0.0;

  // Accuracy attribution (zero unless the oracle estimator ran).
  uint64_t windows_estimated = 0;
  double mean_abs_error = 0.0;   ///< mean |emitted - oracle| per window
  double max_abs_error = 0.0;
  double mean_abs_drop_error = 0.0;
  double mean_abs_staleness_error = 0.0;
  double mean_abs_approx_error = 0.0;
};

/// \brief One registered query's results in a multi-query run
/// (serving layer, DESIGN.md §11). The primary query (id 0) duplicates
/// its windows into `RunReport::windows` for legacy consumers.
struct QueryRunResult {
  uint32_t query_id = 0;
  std::string tenant;
  std::string spec;  ///< canonical key=value spec string

  /// Effective activation pane (0 for whole-run queries; for runtime adds,
  /// the pane the root actually activated at — at or after the requested
  /// one, recorded so oracles can replay the run exactly).
  uint64_t start_pane = 0;

  /// Effective retirement pane, exclusive (`UINT64_MAX` = run end).
  uint64_t end_pane = UINT64_MAX;

  /// False only for a scheduled add whose trigger never fired (stream
  /// ended first).
  bool activated = false;

  /// This query's emitted windows, in order.
  std::vector<GlobalWindowRecord> windows;
};

/// \brief Resource usage attributed to one tenant (serving layer
/// accounting; bytes and aggregate ops come from the `serve.tenant.*`
/// counters, CPU is estimated by scaling the profiler's measured local
/// CPU by the tenant's share of aggregate ops).
struct TenantUsage {
  std::string tenant;
  uint64_t bytes = 0;          ///< attributed wire bytes
  uint64_t agg_ops = 0;        ///< attributed aggregate accumulations
  uint64_t cpu_nanos_est = 0;  ///< 0 unless the profiler ran
  uint64_t queries = 0;        ///< registered queries owned by the tenant
};

/// \brief Serving-layer roll-up for one run. Default state is "disabled,
/// empty" (single legacy query, no accounting), so consumers never need an
/// existence check.
struct ServingSummary {
  bool enabled = false;       ///< a query registry was installed
  uint64_t pane_length = 0;   ///< shared protocol pane (gcd across queries)
  uint64_t queries = 0;       ///< registered queries
  uint64_t slots = 0;         ///< distinct aggregate slots
  uint64_t total_query_windows = 0;  ///< windows summed over all queries
  std::vector<TenantUsage> tenants;
};

/// \brief Full measurement record of one run.
struct RunReport {
  std::string scheme;

  /// Run clock (virtual under the simulator) just before the actors start;
  /// membership event times are offsets against this, and chaos fault
  /// offsets count from just after it.
  TimeNanos start_wall_nanos = 0;

  /// Node removals / re-admissions, in root order.
  std::vector<MembershipEvent> membership;

  /// Events the emitted windows cover.
  uint64_t events_processed = 0;

  /// Wall-clock duration of the measured phase, seconds.
  double wall_seconds = 0.0;

  /// `events_processed / wall_seconds`.
  double throughput_eps = 0.0;

  /// Per-window mean event latency samples, nanoseconds.
  Histogram latency;

  /// Fabric counters at the end of the run.
  NetworkStats network;

  /// Number of emitted global windows.
  uint64_t windows_emitted = 0;

  /// Correction steps executed (Deco schemes; 0 for baselines).
  uint64_t correction_steps = 0;

  /// Of `correction_steps`, those repaired in place: the root asked only
  /// the locals whose check failed (DESIGN.md §4.1).
  uint64_t corrections_repaired = 0;

  /// Final values, in window order (for exact-equality checks vs Central).
  std::vector<GlobalWindowRecord> windows;

  /// Per-window, per-node consumed counts (for the correctness metric).
  ConsumptionLog consumption;

  /// Order-sensitive digest of every fabric delivery (sim mode only;
  /// 0 outside it). Two sim runs delivered the same messages in the same
  /// virtual order iff the hashes match — the determinism regression
  /// test's message-order witness.
  uint64_t delivery_hash = 0;

  /// Per-thread CPU/allocation profile; disabled-and-empty unless the run
  /// enabled the profiler (`ExperimentConfig::profile`, deco_run
  /// `--profile`).
  ProfileReport profile;

  /// Roll-up of the run's per-window provenance records and accuracy
  /// attribution; disabled-and-zero unless provenance collection was on
  /// (`ExperimentConfig::provenance`, deco_run `--provenance_out`).
  ProvenanceSummary provenance;

  /// Per-query results of the multi-query serving layer, registry order.
  /// Entry 0 is the primary query, whose windows also populate `windows`.
  std::vector<QueryRunResult> query_results;

  /// Serving-layer summary + per-tenant accounting (filled by the
  /// harness; disabled-and-empty for direct node runs).
  ServingSummary serving;

  /// \brief Network bytes sent per processed event.
  double BytesPerEvent() const {
    return events_processed == 0
               ? 0.0
               : static_cast<double>(network.total_bytes) /
                     static_cast<double>(events_processed);
  }

  /// \brief One-line human-readable summary.
  std::string Summary() const;
};

/// \brief Canonical JSON rendering of a full report. Deterministic: fixed
/// key order, integers as-is, doubles printed with %.17g (round-trip
/// exact), no timestamps beyond what the report itself carries. In sim
/// mode two runs of the same `(config, seed)` must produce byte-identical
/// output — the determinism regression test diffs these strings.
std::string RunReportJson(const RunReport& report);

/// \brief Canonical JSON rendering of a profile (same determinism rules);
/// the `profile` section of `RunReportJson` and the `cpu_breakdown`
/// section of the bench JSON.
std::string ProfileReportJson(const ProfileReport& profile);

/// \brief Canonical JSON rendering of a provenance summary (same
/// determinism rules); the `provenance` section of `RunReportJson` and the
/// `summary` part of the telemetry document's provenance section.
std::string ProvenanceSummaryJson(const ProvenanceSummary& summary);

/// \brief Canonical JSON rendering of a serving summary (same determinism
/// rules); the `serving` section of `RunReportJson` and of the telemetry
/// document (schema v5).
std::string ServingSummaryJson(const ServingSummary& serving);

/// \brief Result of `TimeAlignedTailError`.
struct TailError {
  double relative = 0.0;  ///< mean |probe - truth| / mean |truth|
  size_t compared = 0;    ///< windows entering the metric
};

/// \brief Linear interpolation of a (fault-free) run's value trajectory at
/// event-time `ts`. `truth` must be non-empty and sorted by `end_ts` (the
/// natural window order).
double InterpolateTruth(const std::vector<GlobalWindowRecord>& truth,
                        EventTime ts);

/// \brief Time-aligned relative error of `probe`'s last `tail_fraction` of
/// windows against the `truth` run's interpolated trajectory. Used by
/// bench/chaos_recovery and the chaos-fuzz test for the <1% post-recovery
/// error invariant: after a crash/restart the two runs' window *indices*
/// diverge, but event time still lines up.
TailError TimeAlignedTailError(const RunReport& truth, const RunReport& probe,
                               double tail_fraction);

}  // namespace deco
