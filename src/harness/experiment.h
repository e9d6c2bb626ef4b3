#pragma once

#include <atomic>
#include <string>

#include "chaos/controller.h"
#include "chaos/schedule.h"
#include "common/result.h"
#include "deco/local_node.h"
#include "deco/root_node.h"
#include "metrics/report.h"
#include "node/query.h"
#include "obs/flight_recorder.h"
#include "obs/governance.h"
#include "obs/sampler.h"
#include "obs/watchdog.h"
#include "serve/registry.h"

/// \file experiment.h
/// \brief One-call experiment driver used by every benchmark, example and
/// integration test: builds a star topology over the in-process fabric,
/// runs one scheme on one workload, and returns the full `RunReport`.

namespace deco {

/// \brief Every approach evaluated in the paper (§5, "Evaluated
/// Approaches") plus the Deco_monlocal microbenchmark variant.
enum class Scheme : uint8_t {
  kCentral = 0,
  kScotty = 1,
  kDisco = 2,
  kApprox = 3,
  kDecoMon = 4,
  kDecoSync = 5,
  kDecoAsync = 6,
  kDecoMonLocal = 7,
};

const char* SchemeToString(Scheme scheme);
Result<Scheme> SchemeFromString(const std::string& name);

/// \brief True for the schemes that aggregate on local nodes.
bool IsDecentralized(Scheme scheme);

/// \brief Live-telemetry options of one experiment run.
///
/// When enabled, the run's context gets a trace sink and a background
/// sampler snapshots the fabric and the run's own metric registry for the
/// duration of the run; the collected time series and spans are exported
/// to the configured paths and/or copied into `sink`.
struct TelemetryOptions {
  /// Master switch; off by default so benchmarks measure the undisturbed
  /// system. Setting any output path below implies interest, but `enabled`
  /// still gates collection (the harness enables it when an output is set
  /// via the CLI flags).
  bool enabled = false;

  /// Sampler period (first and last snapshots are always taken).
  TimeNanos sample_interval_nanos = 50 * kNanosPerMilli;

  /// JSON document output path; empty = no file.
  std::string json_out;

  /// CSV output prefix; writes `<prefix>.samples.csv` and
  /// `<prefix>.spans.csv`. Empty = no files.
  std::string csv_prefix;

  /// Chrome-trace-event/Perfetto JSON output path (deco_run
  /// `--trace_out`); empty = no file. Load the result in
  /// https://ui.perfetto.dev.
  std::string perfetto_out;

  /// `TraceSink` retained-event cap, applied separately to spans and hop
  /// records (deco_run `--trace_capacity`); 0 = unbounded. Long runs that
  /// log a truncation warning should raise this.
  size_t trace_capacity = 1 << 20;

  /// If non-null, receives the collected samples, spans and hops
  /// (caller-owned; useful for tests and embedding without file I/O).
  TelemetryLog* sink = nullptr;
};

/// \brief In-run profiler options (DESIGN.md §9, deco_run `--profile`).
///
/// When enabled, the run's context gets a `Profiler`; every actor thread
/// of the run registers with it, and the collected per-thread CPU/alloc
/// profile lands in `RunReport::profile` (and from there in telemetry and
/// bench JSON).
struct ProfilerOptions {
  /// Master switch; off by default so benchmarks measure the undisturbed
  /// system (measured overhead is within ~2% on fig7 either way).
  bool enabled = false;

  /// Also count per-thread allocations via the counting operator-new hook
  /// (no-op if CMake option `DECO_PROFILE_ALLOC` is OFF).
  bool count_allocs = true;
};

/// \brief Window-provenance and accuracy-attribution options (DESIGN.md
/// §10, deco_run `--provenance_out`).
///
/// When active, the harness installs a `ProvenanceTracker` on the root for
/// the duration of the run; every emitted window gets a provenance record
/// (contributing locals with incarnations, expected/received/missing
/// partials, correction rounds, per-partial staleness, state transitions),
/// and — for tumbling queries — the post-run oracle tap attaches a
/// per-window error estimate decomposed into drop / staleness /
/// approximation components that sum to the observed error.
struct ProvenanceOptions {
  /// Master switch. Setting `json_out` or `sink` below also activates
  /// collection, as does enabled telemetry (schema v4 always carries the
  /// provenance section).
  bool enabled = false;

  /// Run the accuracy estimator after the run (tumbling queries only;
  /// silently skipped for sliding queries, which get provenance records
  /// per pane without truth alignment).
  bool estimate = true;

  /// Wall-clock runs estimate only this many reservoir-sampled windows
  /// (the estimator replays the full streams, which is fine in virtual
  /// time but measurable in wall time); sim runs estimate every window.
  /// 0 = every window regardless.
  size_t accuracy_reservoir = 256;

  /// Retained per-window record cap (`ProvenanceLog::windows_dropped`
  /// counts the excess); 0 = unbounded.
  size_t max_windows = 0;

  /// Standalone provenance JSON output path (deco_run
  /// `--provenance_out`); empty = no file.
  std::string json_out;

  /// If non-null, receives the collected log (caller-owned; for tests and
  /// embedding without file I/O).
  ProvenanceLog* sink = nullptr;
};

/// \brief Multi-query serving options (DESIGN.md §11, deco_run
/// `--queries=`).
///
/// A non-empty `queries` list replaces the single `ExperimentConfig::query`
/// with a registry of served queries over the same streams: entry 0 is the
/// primary (it also populates the legacy `RunReport` surfaces), the rest
/// share the primary's protocol via per-pane slot partials. Deco schemes
/// serve the whole set in one pass; the centralized baselines fall back to
/// one sub-run per query (whole-run queries only) so every scheme stays
/// comparable.
struct ServeOptions {
  /// Served queries in admission order; empty = legacy single-query run
  /// (no registry is installed). When non-empty, entry 0 *overrides*
  /// `ExperimentConfig::query` as the primary.
  std::vector<ServedQuery> queries;

  /// Admission budget. `num_locals` is filled from the experiment config;
  /// the other limits reject over-budget registries loudly
  /// (`ResourceExhausted`) before any actor starts.
  ServeAdmission admission;
};

/// \brief Chaos-injection options of one experiment run (DESIGN.md §6).
///
/// A non-empty schedule makes the harness attach a `ChaosController` to the
/// fabric for the duration of the run: per-local ingest-rate handles are
/// registered (so `surge` events work out of the box), the controller
/// starts with the actors, and stops once the root finishes.
struct ChaosOptions {
  /// Fault timeline; empty = no chaos (no controller is created).
  ChaosSchedule schedule;

  /// If non-null, receives the fired-action audit log after the run.
  std::vector<ChaosAuditEntry>* audit = nullptr;
};

/// \brief Live ops plane options (DESIGN.md §12, deco_run `--ops_port`).
///
/// Three independently toggleable pieces share one substrate: the embedded
/// HTTP server (`/metrics`, `/healthz`, `/statusz`), the anomaly watchdog
/// (evaluated on the sampler tick) and the flight recorder (bounded
/// black-box ring dumped on watchdog trip, fatal signal, interrupt or on
/// demand). Any of them being on makes the harness run a sampler even when
/// telemetry is otherwise disabled.
struct OpsOptions {
  /// HTTP server port on 127.0.0.1: -1 = off, 0 = ephemeral (the bound
  /// port is logged and written to `bound_port`).
  int ops_port = -1;

  /// If non-null, receives the actually bound port once the server is up.
  int* bound_port = nullptr;

  /// One-line stderr progress heartbeat interval; 0 = off.
  TimeNanos status_interval_nanos = 0;

  /// Anomaly watchdog master switch (also turned on by `ops_port >= 0`).
  bool watchdog = false;
  WatchdogOptions watchdog_options;

  /// Flight recorder master switch (also turned on by `watchdog` — alert
  /// trips want a black box to dump).
  bool flight_recorder = false;
  FlightRecorder::Options flight_recorder_options;

  /// Dump path for the flight recorder; empty = `deco_flight_recorder.json`
  /// in the working directory when a dump triggers (deco_run passes its
  /// own timestamped name).
  std::string flight_recorder_out;

  /// Always dump the flight recorder at the end of the run (deco_run
  /// `--dump_flight_recorder`), not only on a trip/crash/interrupt.
  bool dump_flight_recorder = false;

  /// Install SIGSEGV/SIGABRT handlers that dump the flight recorder
  /// before re-raising (deco_run turns this on with the recorder). The
  /// handlers are process-wide: the latest run to ask for them is the one
  /// a crash dumps.
  bool crash_handler = false;

  /// Cooperative-interrupt flag (deco_run's SIGINT/SIGTERM handlers set
  /// it): when it flips to true mid-run, the harness stops the actors,
  /// dumps the flight recorder, and still flushes every exporter —
  /// the report notes `interrupted`. Null = not interruptible.
  std::atomic<bool>* interrupt = nullptr;

  /// If non-null, receives the fired-alert history after the run (also
  /// exported in telemetry JSON schema v6).
  std::vector<Alert>* alerts = nullptr;

  /// Final `/metrics` Prometheus exposition output path (deco_run
  /// `--metrics_out`), rendered once after the run; empty = no file. Works
  /// without an HTTP port — the renderer needs no socket.
  std::string metrics_out;

  /// If non-null, receives the final `/metrics` exposition text
  /// (caller-owned; for tests and benches without file I/O).
  std::string* metrics_sink = nullptr;

  /// True when any live-ops piece is requested.
  bool Any() const {
    return ops_port >= 0 || status_interval_nanos > 0 || watchdog ||
           flight_recorder || dump_flight_recorder ||
           interrupt != nullptr || !metrics_out.empty() ||
           metrics_sink != nullptr;
  }
};

/// \brief Full description of one experiment run.
struct ExperimentConfig {
  Scheme scheme = Scheme::kDecoAsync;

  /// The streamed query (window + aggregate). Deco schemes support
  /// count-based tumbling windows with decomposable aggregates; Central /
  /// Scotty / Disco additionally run sliding count windows; holistic
  /// aggregates require Central (paper footnote 2).
  QueryConfig query;

  /// Topology: `num_locals` local nodes, each ingesting
  /// `streams_per_local` sensor streams.
  size_t num_locals = 2;
  size_t streams_per_local = 4;

  /// Events each local node produces before end-of-stream.
  uint64_t events_per_local = 1'000'000;

  /// Nominal per-local-node event rate (events/second of event time),
  /// split evenly across its streams.
  double base_rate = 1'000'000.0;

  /// Per-local-node rate multiplier spread: local node `i` runs at
  /// `base_rate * (1 + rate_skew * i)`. 0 = homogeneous.
  double rate_skew = 0.0;

  /// The paper's event-rate-change parameter (e.g. 0.01 for "1%").
  double rate_change = 0.01;

  /// Events between instantaneous-rate redraws; 0 = derive from the
  /// window size (a few redraws per local window).
  uint64_t rate_epoch_events = 0;

  /// Ingestion batch granularity (events per data-plane message).
  size_t batch_size = 4096;

  /// IoT emulation (paper §5.3): per-local-node CPU cap in events/sec and
  /// egress bandwidth cap in bytes/sec; 0 = unconstrained.
  uint64_t cpu_events_per_sec = 0;
  uint64_t egress_bytes_per_sec = 0;

  /// One-way link latency between root and locals, nanoseconds.
  TimeNanos link_latency_nanos = 0;

  /// Probability of dropping any message (unreliable-network injection).
  double drop_probability = 0.0;

  /// Base PRNG seed; all stream seeds derive from it deterministically.
  uint64_t seed = 42;

  /// Deterministic simulation mode (DESIGN.md §8, deco_run `--sim`). The
  /// run executes under a single-runnable-thread virtual-time scheduler
  /// seeded with `seed`: link latency, shaping, mailbox wakeups, chaos
  /// actions and telemetry ticks all become events on one priority queue,
  /// so the whole run — message order, reports, byte counters — replays
  /// byte-identically from `(config, seed)` and sleeps cost no wall time.
  /// Note: virtual time only advances through waits, so chaos offsets only
  /// land mid-stream if the run is paced (set `cpu_events_per_sec`).
  bool sim = false;

  /// Sim mode only: abort with an error once virtual time would exceed
  /// this (0 = unlimited). Guards fuzz tests against virtual livelock.
  TimeNanos sim_time_limit_nanos = 0;

  /// Deco tuning knobs.
  DecoRootOptions root_options;
  DecoLocalOptions local_options;

  /// Live telemetry (sampler + tracing + export).
  TelemetryOptions telemetry;

  /// Per-thread CPU/allocation profiling.
  ProfilerOptions profile;

  /// Window provenance records + live accuracy attribution.
  ProvenanceOptions provenance;

  /// Scheduled fault injection (crash/restart/drop/lag/partition/surge).
  ChaosOptions chaos;

  /// Multi-query serving layer (registry + admission budget).
  ServeOptions serve;

  /// Live ops plane (HTTP endpoints + watchdog + flight recorder).
  OpsOptions ops;

  /// Cardinality governance of every observability surface (DESIGN.md
  /// §13, deco_run `--obs_node_detail_limit`): above
  /// `node_detail_limit` locals, per-node telemetry/metrics/provenance
  /// detail collapses into fleet aggregates plus top-k offenders.
  /// `node_detail_limit = 0` disables governance (unlimited detail);
  /// at or below the limit every surface is byte-identical to the
  /// ungoverned output.
  ObsGovernance obs_governance;

  Status Validate() const;
};

/// \brief Runs one experiment to completion and returns its measurements.
Result<RunReport> RunExperiment(const ExperimentConfig& config);

/// \brief Builds the ingest configuration of local node `ordinal` under
/// `config` (exposed for tests).
IngestConfig MakeIngestConfig(const ExperimentConfig& config,
                              size_t ordinal);

}  // namespace deco
