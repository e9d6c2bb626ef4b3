// Command-line experiment runner: every knob of the harness as a flag.
//
//   deco_run --scheme=deco-async --window=1000000 --locals=8
//   deco_run ... --events=10000000 --change=0.01 --agg=sum
//
// Prints the one-line run summary and, with --verbose, every emitted
// window. With --compare, the run is repeated with the Central ground
// truth and the correctness overlap is reported (paper Fig. 10d metric).

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <ctime>

#include "common/flags.h"
#include "common/logging.h"
#include "harness/experiment.h"

using namespace deco;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// SIGINT/SIGTERM flip this flag; the harness's interrupt watcher sees it,
// stops the actors cleanly and still flushes telemetry/provenance/bench
// output on the way out. A second signal falls back to the default
// disposition (hard kill) so a wedged run stays killable.
std::atomic<bool> g_interrupted{false};

void HandleInterrupt(int signo) {
  g_interrupted.store(true, std::memory_order_release);
  std::signal(signo, SIG_DFL);
}

void InstallInterruptHandlers() {
  struct sigaction action = {};
  action.sa_handler = &HandleInterrupt;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

// Default flight-recorder dump path, timestamped so repeated runs in one
// directory never clobber each other's post-mortems.
std::string DefaultFlightRecorderPath() {
  char buf[64];
  const std::time_t now = std::time(nullptr);
  std::tm tm_buf = {};
  localtime_r(&now, &tm_buf);
  std::strftime(buf, sizeof(buf), "deco_flight_%Y%m%d_%H%M%S.json", &tm_buf);
  return buf;
}

void PrintUsage() {
  std::printf(
      "deco_run — run one decentralized-aggregation experiment\n\n"
      "  --scheme=<name>     central|scotty|disco|approx|deco-mon|"
      "deco-sync|deco-async|deco-monlocal (default deco-sync)\n"
      "  --window=<n>        global count window length (default 100000)\n"
      "  --slide=<n>         slide for sliding count windows (default: "
      "tumbling)\n"
      "  --agg=<name>        sum|count|min|max|avg|median (default sum)\n"
      "  --locals=<n>        local node count (default 2)\n"
      "  --streams=<n>       sensor streams per local node (default 4)\n"
      "  --events=<n>        events per local node (default 1000000)\n"
      "  --batch=<n>         events per data-plane message (default 4096)\n"
      "  --rate=<f>          per-node event rate, events/s (default 1e6)\n"
      "  --change=<f>        rate-change fraction, e.g. 0.01 (default)\n"
      "  --skew=<f>          per-node rate skew (default 0)\n"
      "  --cpu=<n>           per-node CPU cap, events/s (0 = off)\n"
      "  --nic=<n>           per-node egress cap, bytes/s (0 = off)\n"
      "  --latency=<ms>      one-way link latency (default 0)\n"
      "  --drop=<p>          per-message drop probability on every\n"
      "                      root<->local link (default 0)\n"
      "  --chaos=<spec>      scheduled fault injection, e.g.\n"
      "                      crash:local-1@300ms,restart:local-1@800ms\n"
      "                      kinds: crash|restart|drop|lag|part|surge,\n"
      "                      optional +<duration> and =<value>\n"
      "  --timeout=<ms>      root failure-detection timeout; required for\n"
      "                      crash chaos against a Deco scheme (default 0)\n"
      "  --queries=<list>    serve a ;-separated query set over the same\n"
      "                      streams (DESIGN.md §11). Specs: positional\n"
      "                      agg:window[:slide] or key=value\n"
      "                      (tenant=,agg=,window=,slide=,q=,add=,rm=);\n"
      "                      add/rm schedule runtime add/remove at that\n"
      "                      protocol pane. Entry 0 is the primary and\n"
      "                      overrides --window/--agg. Example:\n"
      "                      --queries='sum:100000;tenant=b,agg=max,"
      "window=50000;tenant=b,agg=avg,window=100000,add=4,rm=12'\n"
      "  --max_queries=<n>   admission cap on registered queries "
      "(default 64)\n"
      "  --query_budget=<f>  admission cap on estimated extra slice bytes\n"
      "                      per event from the non-primary slots\n"
      "                      (0 = unlimited); over-budget sets are rejected\n"
      "                      before the run starts\n"
      "  --seed=<n>          PRNG seed (default 42)\n"
      "  --sim               deterministic simulation mode (DESIGN.md §8):\n"
      "                      virtual-time scheduler seeded with --seed; the\n"
      "                      whole run (message order, report, counters)\n"
      "                      replays byte-identically from (config, seed).\n"
      "                      Composes with --chaos and --trace_out; note\n"
      "                      that chaos offsets only land mid-stream when\n"
      "                      the run is paced with --cpu\n"
      "  --sim_limit_ms=<n>  abort a sim run once virtual time exceeds\n"
      "                      this (0 = unlimited; livelock guard)\n"
      "  --telemetry_out=<f>      write run telemetry (sampler time series +\n"
      "                           window-lifecycle spans) as JSON to <f>\n"
      "  --trace_out=<f>          write a Chrome-trace-event/Perfetto JSON\n"
      "                           trace (one track per node; open it in\n"
      "                           https://ui.perfetto.dev) to <f>\n"
      "  --trace_capacity=<n>     TraceSink cap on retained spans and hop\n"
      "                           records (default 1048576; 0 = unbounded);\n"
      "                           raise it when a run warns about truncation\n"
      "  --sample_interval_ms=<n> telemetry sampling period (default 50)\n"
      "  --profile           per-thread CPU/alloc profiling (DESIGN.md §9):\n"
      "                      prints a per-actor CPU table with handler-level\n"
      "                      attribution and embeds the profile in the\n"
      "                      telemetry JSON\n"
      "  --profile_allocs=<b>     count per-thread allocations while\n"
      "                           profiling (default true)\n"
      "  --provenance        window provenance + live accuracy attribution\n"
      "                      (DESIGN.md §10): per-window records of who\n"
      "                      contributed what, plus a drop/staleness/approx\n"
      "                      error decomposition; prints the summary line\n"
      "  --provenance_out=<f>     write the full provenance log (records +\n"
      "                           per-window accuracy) as JSON to <f>;\n"
      "                           implies --provenance\n"
      "  --provenance_reservoir=<n>  wall-clock runs estimate accuracy on\n"
      "                           this many sampled windows (default 256;\n"
      "                           0 = all; sim runs always estimate all)\n"
      "  --ops_port=<n>      serve live ops HTTP endpoints on\n"
      "                      127.0.0.1:<n> for the duration of the run\n"
      "                      (DESIGN.md §12): /metrics (Prometheus text\n"
      "                      exposition), /healthz (RFC health JSON),\n"
      "                      /statusz (per-node + query JSON). 0 picks an\n"
      "                      ephemeral port (printed at startup). Implies\n"
      "                      the watchdog and the flight recorder\n"
      "  --metrics_out=<f>   write the final /metrics Prometheus exposition\n"
      "                      to <f> after the run (no HTTP port needed)\n"
      "  --obs_node_detail_limit=<n> cardinality governance (DESIGN.md §13):\n"
      "                      above <n> locals, per-node observability detail\n"
      "                      (telemetry samples, /metrics, /statusz,\n"
      "                      provenance parts, CLI summaries) collapses into\n"
      "                      fleet aggregates + top-k offenders\n"
      "                      (default 64; 0 = unlimited detail)\n"
      "  --obs_top_k=<n>     offender series kept per governed surface\n"
      "                      (default 8)\n"
      "  --status_interval_ms=<n> print a one-line live progress heartbeat\n"
      "                      (events in, panes, windows, alerts) to stderr\n"
      "                      every <n> ms (0 = off)\n"
      "  --watchdog          run the anomaly watchdog on the sampler tick:\n"
      "                      window-stall, queue-growth, node-silence,\n"
      "                      correction-storm and tenant byte-burn\n"
      "                      detectors; alerts land in the log, /healthz\n"
      "                      and telemetry JSON (schema v6)\n"
      "  --watchdog_stall_ms=<n>    stall threshold (default 2000)\n"
      "  --watchdog_queue_limit=<n> mailbox depth limit (default 100000)\n"
      "  --watchdog_silence_ms=<n>  node-silence threshold (default 2000)\n"
      "  --watchdog_corrections_per_sec=<f> correction-storm rate limit\n"
      "                      (default 100)\n"
      "  --watchdog_tenant_bytes_per_sec=<f> per-tenant byte-budget burn\n"
      "                      rate limit (default 0 = off)\n"
      "  --flight_recorder   keep a bounded in-memory ring of recent\n"
      "                      message hops, span events and alert\n"
      "                      transitions; dumped to JSON on a watchdog\n"
      "                      trip, a fatal signal (SIGSEGV/SIGABRT) or\n"
      "                      --dump_flight_recorder\n"
      "  --flight_recorder_out=<f>  dump path (default\n"
      "                      deco_flight_<timestamp>.json)\n"
      "  --dump_flight_recorder     always dump the flight recorder at the\n"
      "                      end of the run; implies --flight_recorder\n"
      "  --log_level=<name>  debug|info|warning|error|fatal (default info)\n"
      "  --compare           also run Central and report correctness\n"
      "  --verbose           print every emitted window\n"
      "  --debug             enable debug logging (same as --log_level=debug)\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  if (flags.Has("help")) {
    PrintUsage();
    return 0;
  }
  if (flags.GetBool("debug", false)) SetLogLevel(LogLevel::kDebug);
  if (flags.Has("log_level")) {
    auto level = LogLevelFromString(flags.GetString("log_level", "info"));
    if (!level.ok()) return Fail(level.status());
    SetLogLevel(*level);
  }

  ExperimentConfig config;
  auto scheme = SchemeFromString(flags.GetString("scheme", "deco-sync"));
  if (!scheme.ok()) return Fail(scheme.status());
  config.scheme = *scheme;

  const uint64_t window =
      static_cast<uint64_t>(flags.GetInt("window", 100'000));
  const uint64_t slide = static_cast<uint64_t>(flags.GetInt("slide", 0));
  config.query.window = slide > 0 ? WindowSpec::CountSliding(window, slide)
                                  : WindowSpec::CountTumbling(window);
  auto agg = AggregateKindFromString(flags.GetString("agg", "sum"));
  if (!agg.ok()) return Fail(agg.status());
  config.query.aggregate = *agg;

  config.num_locals = static_cast<size_t>(flags.GetInt("locals", 2));
  config.streams_per_local =
      static_cast<size_t>(flags.GetInt("streams", 4));
  config.events_per_local =
      static_cast<uint64_t>(flags.GetInt("events", 1'000'000));
  config.batch_size = static_cast<size_t>(flags.GetInt("batch", 4096));
  config.base_rate = flags.GetDouble("rate", 1e6);
  config.rate_change = flags.GetDouble("change", 0.01);
  config.rate_skew = flags.GetDouble("skew", 0.0);
  config.cpu_events_per_sec =
      static_cast<uint64_t>(flags.GetInt("cpu", 0));
  config.egress_bytes_per_sec =
      static_cast<uint64_t>(flags.GetInt("nic", 0));
  config.link_latency_nanos = static_cast<TimeNanos>(
      flags.GetDouble("latency", 0.0) * kNanosPerMilli);
  config.drop_probability = flags.GetDouble("drop", 0.0);
  config.root_options.node_timeout_nanos = static_cast<TimeNanos>(
      flags.GetDouble("timeout", 0.0) * kNanosPerMilli);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  config.sim = flags.GetBool("sim", false);
  config.sim_time_limit_nanos = static_cast<TimeNanos>(
      flags.GetDouble("sim_limit_ms", 0.0) * kNanosPerMilli);

  if (flags.Has("queries")) {
    auto queries = ParseQueryList(flags.GetString("queries", ""));
    if (!queries.ok()) return Fail(queries.status());
    config.serve.queries = std::move(*queries);
  }
  config.serve.admission.max_queries =
      static_cast<size_t>(flags.GetInt("max_queries", 64));
  config.serve.admission.max_extra_bytes_per_event =
      flags.GetDouble("query_budget", 0.0);

  std::vector<ChaosAuditEntry> audit;
  if (flags.Has("chaos")) {
    auto schedule = ChaosSchedule::Parse(flags.GetString("chaos", ""));
    if (!schedule.ok()) return Fail(schedule.status());
    config.chaos.schedule = *schedule;
    config.chaos.audit = &audit;
  }

  config.telemetry.json_out = flags.GetString("telemetry_out", "");
  config.telemetry.perfetto_out = flags.GetString("trace_out", "");
  config.telemetry.trace_capacity = static_cast<size_t>(
      flags.GetInt("trace_capacity", 1 << 20));
  config.telemetry.sample_interval_nanos = static_cast<TimeNanos>(
      flags.GetInt("sample_interval_ms", 50) * kNanosPerMilli);
  config.telemetry.enabled = !config.telemetry.json_out.empty() ||
                             !config.telemetry.perfetto_out.empty();
  config.profile.enabled = flags.GetBool("profile", false);
  config.profile.count_allocs = flags.GetBool("profile_allocs", true);
  config.provenance.json_out = flags.GetString("provenance_out", "");
  config.provenance.enabled = flags.GetBool("provenance", false) ||
                              !config.provenance.json_out.empty();
  config.provenance.accuracy_reservoir = static_cast<size_t>(
      flags.GetInt("provenance_reservoir", 256));

  int bound_port = -1;
  std::vector<Alert> alerts;
  config.ops.ops_port =
      flags.Has("ops_port") ? static_cast<int>(flags.GetInt("ops_port", 0))
                            : -1;
  config.ops.bound_port = &bound_port;
  config.ops.status_interval_nanos = static_cast<TimeNanos>(
      flags.GetInt("status_interval_ms", 0) * kNanosPerMilli);
  config.ops.watchdog = flags.GetBool("watchdog", false);
  config.ops.watchdog_options.stall_nanos = static_cast<TimeNanos>(
      flags.GetInt("watchdog_stall_ms", 2000) * kNanosPerMilli);
  config.ops.watchdog_options.queue_depth_limit =
      flags.GetInt("watchdog_queue_limit", 100000);
  config.ops.watchdog_options.silence_nanos = static_cast<TimeNanos>(
      flags.GetInt("watchdog_silence_ms", 2000) * kNanosPerMilli);
  config.ops.watchdog_options.corrections_per_sec =
      flags.GetDouble("watchdog_corrections_per_sec", 100.0);
  config.ops.watchdog_options.tenant_bytes_per_sec =
      flags.GetDouble("watchdog_tenant_bytes_per_sec", 0.0);
  config.ops.dump_flight_recorder =
      flags.GetBool("dump_flight_recorder", false);
  config.ops.flight_recorder = flags.GetBool("flight_recorder", false) ||
                               flags.Has("flight_recorder_out") ||
                               config.ops.dump_flight_recorder;
  config.ops.flight_recorder_out = flags.GetString(
      "flight_recorder_out",
      config.ops.flight_recorder || config.ops.watchdog ||
              config.ops.ops_port >= 0
          ? DefaultFlightRecorderPath()
          : "");
  config.ops.crash_handler =
      config.ops.flight_recorder || config.ops.ops_port >= 0;
  config.ops.interrupt = &g_interrupted;
  config.ops.alerts = &alerts;
  config.ops.metrics_out = flags.GetString("metrics_out", "");
  config.obs_governance.node_detail_limit =
      static_cast<size_t>(flags.GetInt("obs_node_detail_limit", 64));
  config.obs_governance.top_k =
      static_cast<size_t>(flags.GetInt("obs_top_k", 8));
  InstallInterruptHandlers();

  auto result = RunExperiment(config);
  if (!result.ok()) return Fail(result.status());
  const RunReport& report = *result;
  std::printf("%s\n", report.Summary().c_str());

  if (report.serving.enabled) {
    std::printf(
        "serving: %llu queries in %llu slots, pane=%llu, "
        "%llu query windows\n",
        (unsigned long long)report.serving.queries,
        (unsigned long long)report.serving.slots,
        (unsigned long long)report.serving.pane_length,
        (unsigned long long)report.serving.total_query_windows);
    for (const QueryRunResult& q : report.query_results) {
      char end_pane[32];
      if (q.end_pane == UINT64_MAX) {
        std::snprintf(end_pane, sizeof(end_pane), "end");
      } else {
        std::snprintf(end_pane, sizeof(end_pane), "%llu",
                      (unsigned long long)q.end_pane);
      }
      std::printf("  query %u [%s] %s: %zu windows, panes [%llu, %s)%s\n",
                  q.query_id, q.tenant.c_str(), q.spec.c_str(),
                  q.windows.size(), (unsigned long long)q.start_pane,
                  end_pane, q.activated ? "" : " (never activated)");
    }
    for (const TenantUsage& t : report.serving.tenants) {
      std::printf(
          "  tenant %-10s bytes=%llu agg_ops=%llu cpu_est=%.2fms "
          "queries=%llu\n",
          t.tenant.c_str(), (unsigned long long)t.bytes,
          (unsigned long long)t.agg_ops,
          static_cast<double>(t.cpu_nanos_est) / 1e6,
          (unsigned long long)t.queries);
    }
  }

  if (report.provenance.enabled) {
    const ProvenanceSummary& prov = report.provenance;
    std::printf(
        "provenance: %llu windows (%llu corrected, %llu correction rounds), "
        "partials %llu/%llu received (%llu missing, %llu duplicate), "
        "mean staleness %.3fms\n",
        (unsigned long long)prov.windows_tracked,
        (unsigned long long)prov.windows_corrected,
        (unsigned long long)prov.correction_rounds,
        (unsigned long long)prov.partials_received,
        (unsigned long long)prov.partials_expected,
        (unsigned long long)prov.partials_missing,
        (unsigned long long)prov.partials_duplicate,
        prov.mean_staleness_nanos / 1e6);
    if (prov.windows_estimated > 0) {
      std::printf(
          "accuracy: %llu windows estimated, mean |err|=%.6g max=%.6g "
          "(drop %.6g + staleness %.6g + approx %.6g)\n",
          (unsigned long long)prov.windows_estimated, prov.mean_abs_error,
          prov.max_abs_error, prov.mean_abs_drop_error,
          prov.mean_abs_staleness_error, prov.mean_abs_approx_error);
    }
  }

  if (!audit.empty()) {
    std::printf("chaos audit (%zu actions fired):\n", audit.size());
    for (const ChaosAuditEntry& entry : audit) {
      std::printf("  %s\n", entry.Describe().c_str());
    }
  }

  // Governed runs cap the per-entry CLI blocks the same way /statusz caps
  // its node table: top-k entries plus a count of the rest, so a 1000-node
  // incident never floods the terminal.
  const bool governed =
      config.obs_governance.Collapsed(config.num_locals);
  const size_t print_cap =
      governed ? config.obs_governance.top_k : SIZE_MAX;
  if (!alerts.empty()) {
    std::printf("alerts (%zu fired):\n", alerts.size());
    size_t printed = 0;
    for (const Alert& alert : alerts) {
      if (printed++ >= print_cap) break;
      std::printf("  %s [%s] observed=%.6g threshold=%.6g%s: %s\n",
                  std::string(AlertKindToString(alert.kind)).c_str(),
                  alert.subject.c_str(), alert.observed, alert.threshold,
                  alert.resolved_at_nanos > 0 ? " (resolved)" : " (active)",
                  alert.message.c_str());
    }
    if (alerts.size() > print_cap) {
      std::printf("  ... and %zu more (see /statusz or --telemetry_out)\n",
                  alerts.size() - print_cap);
    }
  }
  if (report.profile.enabled) {
    std::printf("cpu profile%s:\n", report.profile.alloc_counted
                                        ? " (with alloc counters)"
                                        : "");
    for (const ThreadProfile& t : report.profile.threads) {
      std::printf("  %-12s cpu=%9.2fms wall=%9.2fms msgs=%llu", t.name.c_str(),
                  static_cast<double>(t.cpu_nanos) / 1e6,
                  static_cast<double>(t.wall_nanos) / 1e6,
                  (unsigned long long)t.messages_handled);
      if (report.profile.alloc_counted) {
        std::printf(" allocs=%llu (%.2f MB)", (unsigned long long)t.allocations,
                    static_cast<double>(t.allocated_bytes) / 1e6);
      }
      std::printf("\n");
      for (const HandlerProfile& h : t.handlers) {
        std::printf("    %-16s n=%-8llu cpu=%9.2fms wall=%9.2fms\n",
                    MessageTypeToString(h.type), (unsigned long long)h.count,
                    static_cast<double>(h.cpu_nanos) / 1e6,
                    static_cast<double>(h.wall_nanos) / 1e6);
      }
    }
  }

  {
    size_t printed = 0;
    for (const MembershipEvent& event : report.membership) {
      if (printed++ >= print_cap) break;
      std::printf("membership: local-%zu %s at +%.1fms\n", event.node,
                  event.rejoined ? "rejoined" : "removed",
                  static_cast<double>(event.at_nanos -
                                      report.start_wall_nanos) /
                      1e6);
    }
    if (report.membership.size() > print_cap) {
      std::printf("membership: ... and %zu more events\n",
                  report.membership.size() - print_cap);
    }
  }

  if (flags.GetBool("verbose", false)) {
    for (const GlobalWindowRecord& w : report.windows) {
      std::printf("  window %llu: value=%.6f events=%llu latency=%.3fms%s\n",
                  (unsigned long long)w.window_index, w.value,
                  (unsigned long long)w.event_count,
                  w.mean_latency_nanos / 1e6,
                  w.corrected ? " (corrected)" : "");
    }
  }

  if (flags.GetBool("compare", false) &&
      config.scheme != Scheme::kCentral) {
    ExperimentConfig truth_config = config;
    truth_config.scheme = Scheme::kCentral;
    auto truth = RunExperiment(truth_config);
    if (!truth.ok()) return Fail(truth.status());
    std::printf("%s\n", truth->Summary().c_str());
    if (config.query.window.type == WindowType::kTumbling) {
      const CorrectnessReport correctness =
          CompareConsumption(truth->consumption, report.consumption);
      std::printf("correctness vs central: %.4f (%llu/%llu events in the "
                  "same windows)\n",
                  correctness.correctness,
                  (unsigned long long)correctness.overlapping_events,
                  (unsigned long long)correctness.truth_events);
    }
    const double saving =
        truth->network.total_bytes == 0
            ? 0.0
            : 100.0 * (1.0 - static_cast<double>(
                                 report.network.total_bytes) /
                                 static_cast<double>(
                                     truth->network.total_bytes));
    std::printf("network saving vs central: %.1f%%\n", saving);
  }
  if (g_interrupted.load(std::memory_order_acquire)) {
    std::fprintf(stderr, "deco_run: interrupted — partial results above\n");
    return 130;
  }
  return 0;
}
