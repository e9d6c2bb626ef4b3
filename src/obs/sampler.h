#pragma once

#include <array>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "net/fabric.h"
#include "obs/alert.h"
#include "obs/governance.h"
#include "obs/metric_registry.h"
#include "obs/provenance.h"
#include "obs/quantile_sketch.h"
#include "obs/trace.h"

/// \file sampler.h
/// \brief Background time-series sampler: snapshots the metric registry,
/// the fabric's per-node traffic counters and every mailbox's queue depth
/// at a fixed interval, building the in-memory trajectory that the
/// exporters serialize. One guaranteed snapshot is taken at `Start` and one
/// at `Stop`, so even runs shorter than the interval yield a two-point
/// series (enough to derive rates).
///
/// Every read of per-node fabric state goes through `CaptureFleet`
/// (DESIGN.md §13): one governed capture reads each node once, builds the
/// fleet totals and sketches, and makes every cardinality-governance
/// choice. The sampler tick, `/metrics`, `/statusz` and `/healthz` only
/// format a capture. Above `ObsGovernance::node_detail_limit` a sample
/// details only a strided subset — each node is visited once every
/// `Stride` ticks — plus the current top-k offenders (deepest queues, most
/// bytes sent, stalest egress), so per-tick detail is bounded by the
/// limit, not the fleet size. At or below the limit the sample is
/// byte-identical to the ungoverned output.

namespace deco {

/// \brief Per-node slice of one sampler snapshot.
struct NodeSample {
  NodeId node = 0;
  std::string name;
  uint64_t queue_depth = 0;     ///< mailbox backlog (backpressure signal)
  uint64_t messages_sent = 0;   ///< cumulative fabric counters
  uint64_t bytes_sent = 0;
  uint64_t messages_received = 0;
  uint64_t bytes_received = 0;
  /// Cumulative egress split by `MessageType` (indexed by enum value).
  std::array<uint64_t, kNumMessageTypes> messages_sent_by_type{};
  std::array<uint64_t, kNumMessageTypes> bytes_sent_by_type{};
};

/// \brief Fleet-wide aggregate of one per-node scalar at one tick,
/// distilled from a quantile sketch over the live fleet.
struct FleetMetricSummary {
  uint64_t sum = 0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

/// \brief Bounded-size fleet aggregates recorded with every sample; the
/// authoritative totals when `nodes` holds only a governed subset.
struct FleetSample {
  bool collapsed = false;      ///< per-node detail was governed this tick
  uint64_t node_count = 0;     ///< fleet size (nodes.size() when detailed)
  uint64_t detail_nodes = 0;   ///< entries recorded in `nodes`
  uint64_t nodes_down = 0;
  uint64_t total_messages_sent = 0;
  uint64_t total_bytes_sent = 0;
  uint64_t total_messages_received = 0;
  uint64_t total_bytes_received = 0;
  FleetMetricSummary queue_depth;
  FleetMetricSummary messages_sent;
  FleetMetricSummary bytes_sent;
};

/// \brief One node's fabric state as a capture read it.
struct NodeState {
  uint64_t queue_depth = 0;  ///< mailbox backlog
  NodeTrafficStats traffic;  ///< cumulative fabric counters
  bool down = false;
  uint64_t incarnation = 0;
};

/// \brief When each node's egress counter last moved, as the sampler's
/// ticks saw it.
struct NodeWatch {
  uint64_t last_sent = 0;
  TimeNanos last_change_nanos = 0;
};

/// \brief One governed read of the fleet: the state every observability
/// surface formats.
struct FleetCapture {
  TimeNanos t_nanos = 0;
  ObsGovernance governance;      ///< the policy the choices below follow
  std::vector<NodeState> nodes;  ///< every node, indexed by id
  FleetSample fleet;             ///< totals and per-node summaries
  /// Per-node distributions behind `fleet` (the /metrics fleet summaries
  /// also render their p90 and counts).
  QuantileSketch queue_depth, messages_sent, bytes_sent, messages_received;
  uint64_t total_dropped = 0;    ///< fabric-wide dropped messages
  /// Nanoseconds since each node's egress last advanced; empty without a
  /// staleness watch or before the sampler's first tick.
  std::vector<TimeNanos> silent_for;
  /// Top-k offenders, worst first; empty unless `fleet.collapsed`.
  std::vector<NodeId> deepest, heaviest, stalest;
  /// The offenders' id-sorted union: a collapsed `/statusz` node table.
  std::vector<NodeId> offenders;
  /// The nodes a sample details, id-sorted: every node, or when collapsed
  /// the tick's stride subset plus the offenders.
  std::vector<NodeId> detail;
};

/// \brief Takes one governed capture of `fabric` at `now`: reads each
/// node's state once, builds the fleet totals and sketches and makes every
/// governance choice (collapse, the stride subset at phase `tick`, the
/// top-k deepest, heaviest and stalest nodes).
///
/// `watch` is the sampler's egress-staleness watch; null means none (no
/// stalest list). With `advance` — the sampler tick — the watch first
/// records this capture's sent counters; without it the watch is only
/// read, so a capture between ticks changes nothing.
FleetCapture CaptureFleet(const NetworkFabric& fabric,
                          const ObsGovernance& governance, TimeNanos now,
                          uint64_t tick, std::vector<NodeWatch>* watch,
                          bool advance);

/// \brief One point of the telemetry time series.
struct TelemetrySample {
  TimeNanos t_nanos = 0;
  uint64_t total_dropped = 0;   ///< fabric-wide dropped messages so far
  std::vector<NodeSample> nodes;
  FleetSample fleet;
  MetricsSnapshot metrics;
};

/// \brief The sampler's own cost, measured on the wall clock even under
/// `--sim` (virtual time stands still inside a tick, so the sim clock
/// cannot see the plane's cost — which is exactly what we must meter).
struct SamplerSelfStats {
  uint64_t ticks = 0;
  double tick_nanos_mean = 0.0;
  double tick_nanos_p50 = 0.0;
  double tick_nanos_p99 = 0.0;
  double tick_nanos_max = 0.0;
  uint64_t tracker_bytes = 0;  ///< estimated retained-series footprint
};

/// \brief Everything one telemetry run collects (samples + spans + message
/// hops), the exporters' input.
struct TelemetryLog {
  std::vector<TelemetrySample> samples;
  std::vector<TraceEvent> spans;
  uint64_t spans_dropped = 0;
  std::vector<HopRecord> hops;
  uint64_t hops_dropped = 0;
  /// Per-window provenance records and accuracy estimates (schema v4);
  /// empty when the run collected no provenance.
  ProvenanceLog provenance;
  /// Watchdog alert history (schema v6); always-present section, empty
  /// and disabled when no watchdog ran.
  std::vector<Alert> alerts;
  bool alerts_enabled = false;
  /// Self-metering of the observability plane itself (schema v7);
  /// always-present section, zeroed when no sampler ran.
  struct ObsSelf {
    bool enabled = false;
    SamplerSelfStats sampler;
    uint64_t scrapes = 0;             ///< ops-server requests served
    double scrape_nanos_mean = 0.0;   ///< render+write wall time
    double scrape_nanos_p99 = 0.0;
    uint64_t exposition_bytes = 0;    ///< last /metrics render size
    uint64_t node_detail_limit = 0;   ///< governance in force (0 = off)
    uint64_t top_k = 0;
  } obs_self;
};

/// \brief Periodic snapshot thread over a fabric and a registry.
class Sampler {
 public:
  /// \param clock time source; not owned
  /// \param fabric fabric whose counters and mailboxes are sampled; may be
  ///        null (registry-only sampling); not owned
  /// \param registry metric registry to snapshot; may be null; not owned
  /// \param interval_nanos sampling period (clamped to >= 1 ms)
  /// \param sim when non-null, `Start` registers a self-rescheduling timer
  ///        event on this scheduler instead of spawning the background
  ///        thread: snapshots land at exact virtual-interval points, fully
  ///        deterministic (DESIGN.md §8)
  Sampler(Clock* clock, NetworkFabric* fabric, MetricRegistry* registry,
          TimeNanos interval_nanos, SimScheduler* sim = nullptr);
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// \brief Takes an immediate snapshot and starts the background thread.
  void Start();

  /// \brief Stops the thread and takes the final snapshot. Idempotent.
  void Stop();

  /// \brief One on-demand snapshot, appended to the series (thread-safe).
  TelemetrySample SampleNow();

  /// \brief Registers a callback invoked with every snapshot right after
  /// it is appended, on the sampling thread (or sim event). Set before
  /// `Start`; the watchdog's detector tick rides here, which keeps alert
  /// evaluation as deterministic as the sample series itself.
  void SetObserver(std::function<void(const TelemetrySample&)> observer) {
    observer_ = std::move(observer);
  }

  /// \brief Copy of the series collected so far.
  std::vector<TelemetrySample> Samples() const;

  size_t sample_count() const;

  /// \brief Sets the cardinality-governance policy. Call before `Start`.
  void SetGovernance(const ObsGovernance& governance) {
    governance_ = governance;
  }
  const ObsGovernance& governance() const { return governance_; }

  /// \brief A fresh capture of `fabric` between ticks, at this sampler's
  /// clock reading, under its policy and staleness watch; the watch is read
  /// without advancing (thread-safe).
  FleetCapture Capture(const NetworkFabric& fabric) const;

  /// \brief Persistent offender sets accumulated by space-saving trackers
  /// across governed ticks: how often each node ranked among the per-tick
  /// top-k, by dimension. Empty when governance never collapsed.
  struct Offenders {
    std::vector<SpaceSavingTopK::Entry> queue_depth;
    std::vector<SpaceSavingTopK::Entry> bytes_sent;
    std::vector<SpaceSavingTopK::Entry> stale;
  };
  Offenders PersistentOffenders(size_t k) const;

  /// \brief Wall-clock cost of the sampler itself (thread-safe).
  SamplerSelfStats SelfStats() const;

 private:
  void Loop();

  void ScheduleSimTick();

  Clock* clock_;
  NetworkFabric* fabric_;
  MetricRegistry* registry_;
  TimeNanos interval_nanos_;
  SimScheduler* sim_;
  ObsGovernance governance_;

  std::function<void(const TelemetrySample&)> observer_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<TelemetrySample> samples_;
  std::vector<NodeWatch> watch_;
  SpaceSavingTopK queue_offenders_{32};
  SpaceSavingTopK bytes_offenders_{32};
  SpaceSavingTopK stale_offenders_{32};
  QuantileSketch tick_wall_nanos_;
  uint64_t tick_count_ = 0;
  uint64_t tracker_bytes_ = 0;
  std::thread thread_;
  bool running_ = false;
  bool stop_ = false;
};

}  // namespace deco
