#include "harness/experiment.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "baseline/approx.h"
#include "baseline/centralized_root.h"
#include "baseline/forwarding_local.h"
#include "common/file.h"
#include "common/json.h"
#include "common/logging.h"
#include "harness/oracle.h"
#include "node/runtime.h"
#include "obs/export.h"
#include "obs/ops_server.h"
#include "obs/perfetto_export.h"
#include "obs/provenance.h"
#include "obs/run_context.h"

namespace deco {

const char* SchemeToString(Scheme scheme) {
  switch (scheme) {
    case Scheme::kCentral:
      return "central";
    case Scheme::kScotty:
      return "scotty";
    case Scheme::kDisco:
      return "disco";
    case Scheme::kApprox:
      return "approx";
    case Scheme::kDecoMon:
      return "deco-mon";
    case Scheme::kDecoSync:
      return "deco-sync";
    case Scheme::kDecoAsync:
      return "deco-async";
    case Scheme::kDecoMonLocal:
      return "deco-monlocal";
  }
  return "unknown";
}

Result<Scheme> SchemeFromString(const std::string& name) {
  std::string canonical = name;  // accept deco_async for deco-async etc.
  std::replace(canonical.begin(), canonical.end(), '_', '-');
  for (int i = 0; i <= static_cast<int>(Scheme::kDecoMonLocal); ++i) {
    const Scheme scheme = static_cast<Scheme>(i);
    if (canonical == SchemeToString(scheme)) return scheme;
  }
  return Status::InvalidArgument("unknown scheme: " + name);
}

bool IsDecentralized(Scheme scheme) {
  switch (scheme) {
    case Scheme::kCentral:
    case Scheme::kScotty:
    case Scheme::kDisco:
      return false;
    default:
      return true;
  }
}

namespace {

/// Per-query restrictions shared by the single-query path and every entry
/// of a served set (scheme limits apply to each query a scheme will
/// actually execute).
Status ValidateServedQuery(Scheme scheme, const QueryConfig& query) {
  DECO_RETURN_NOT_OK(query.Validate());
  if (scheme == Scheme::kApprox &&
      query.window.type == WindowType::kSliding) {
    return Status::NotSupported(
        "the approx baseline estimates tumbling window boundaries only; a "
        "sliding spec would silently degrade to tumbling (found by "
        "tests/differential_test.cc)");
  }
  const auto agg = MakeAggregate(query.aggregate, query.quantile_q);
  DECO_RETURN_NOT_OK(agg.status());
  if (IsDecentralized(scheme) && !(*agg)->IsDecomposable()) {
    return Status::NotSupported(
        "holistic aggregates are processed centrally (paper footnote 2); "
        "use the central scheme");
  }
  return Status::OK();
}

/// True for the schemes whose root/local nodes execute the serving layer
/// natively (shared slice store + runtime add/remove protocol). The other
/// schemes serve query sets via the loop-per-query fallback.
bool ServesNatively(Scheme scheme) {
  switch (scheme) {
    case Scheme::kDecoMon:
    case Scheme::kDecoSync:
    case Scheme::kDecoAsync:
    case Scheme::kDecoMonLocal:
      return true;
    default:
      return false;
  }
}

}  // namespace

Status ExperimentConfig::Validate() const {
  DECO_RETURN_NOT_OK(ValidateServedQuery(
      scheme, serve.queries.empty() ? query : serve.queries[0].query));
  if (!serve.queries.empty()) {
    bool runtime_schedule = false;
    for (const ServedQuery& q : serve.queries) {
      DECO_RETURN_NOT_OK(ValidateServedQuery(scheme, q.query));
      if (q.add_pane != 0 || q.remove_pane != kServePaneNever) {
        runtime_schedule = true;
      }
    }
    if (runtime_schedule && !(scheme == Scheme::kDecoMon ||
                              scheme == Scheme::kDecoSync ||
                              scheme == Scheme::kDecoAsync)) {
      return Status::NotSupported(
          "runtime query add/remove rides the root's assignment protocol; "
          "it needs a root-coordinated Deco scheme (deco-mon, deco-sync or "
          "deco-async)");
    }
    if (serve.queries.size() > 1 && !ServesNatively(scheme) &&
        !chaos.schedule.empty()) {
      return Status::NotSupported(
          "baseline schemes serve query sets as one sub-run per query; a "
          "chaos schedule would be replayed per sub-run and the summed "
          "costs would be meaningless — use a Deco scheme");
    }
  }
  if (num_locals == 0) {
    return Status::InvalidArgument("need at least one local node");
  }
  if (streams_per_local == 0) {
    return Status::InvalidArgument("need at least one stream per local");
  }
  if (events_per_local == 0) {
    return Status::InvalidArgument("events_per_local must be positive");
  }
  if (batch_size == 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  if (!(base_rate > 0.0)) {
    return Status::InvalidArgument("base_rate must be positive");
  }
  if (rate_change < 0.0) {
    return Status::InvalidArgument("rate_change must be non-negative");
  }
  if (!chaos.schedule.empty()) {
    DECO_RETURN_NOT_OK(chaos.schedule.Validate());
    size_t crashes = 0;
    size_t restarts = 0;
    for (const FaultEvent& event : chaos.schedule.events()) {
      if (event.kind == FaultKind::kCrash) ++crashes;
      if (event.kind == FaultKind::kRestart) ++restarts;
    }
    if (crashes > 0) {
      if (scheme == Scheme::kDecoMonLocal) {
        return Status::NotSupported(
            "deco-monlocal peers deadlock on a crashed peer's rate "
            "broadcast; crash chaos needs a root-coordinated scheme");
      }
      const bool deco = scheme == Scheme::kDecoMon ||
                        scheme == Scheme::kDecoSync ||
                        scheme == Scheme::kDecoAsync;
      if (deco && root_options.node_timeout_nanos <= 0) {
        return Status::InvalidArgument(
            "crash chaos against a Deco scheme requires failure detection: "
            "set root_options.node_timeout_nanos (paper 4.3.4)");
      }
      if (!deco && restarts < crashes) {
        return Status::InvalidArgument(
            "baseline locals have no removal path: every crash needs a "
            "matching restart or the run never finishes");
      }
    }
  }
  return Status::OK();
}

namespace {

/// Events between rate redraws: `config.rate_epoch_events`, or when unset
/// a derivation from the query window. The paper's rates "change mildly
/// but frequently": many redraws per local window, so consecutive windows
/// see comparable drift and the delta predictor has a meaningful signal
/// (long flat stretches would collapse the delta and turn every step into
/// a correction).
uint64_t RateEpochEvents(const ExperimentConfig& config) {
  if (config.rate_epoch_events != 0) return config.rate_epoch_events;
  return std::max<uint64_t>(
      64, config.query.window.length /
              std::max<size_t>(1, config.num_locals) / 16);
}

}  // namespace

IngestConfig MakeIngestConfig(const ExperimentConfig& config,
                              size_t ordinal) {
  IngestConfig ingest;
  ingest.events_to_produce = config.events_per_local;
  ingest.batch_size = config.batch_size;
  ingest.cpu_events_per_sec = config.cpu_events_per_sec;

  const uint64_t rate_epoch = RateEpochEvents(config);
  const double node_rate =
      config.base_rate * (1.0 + config.rate_skew * static_cast<double>(
                                    ordinal));
  for (size_t s = 0; s < config.streams_per_local; ++s) {
    StreamConfig stream;
    stream.stream_id = static_cast<StreamId>(
        ordinal * config.streams_per_local + s);
    stream.rate.base_rate =
        node_rate / static_cast<double>(config.streams_per_local);
    stream.rate.change_fraction = config.rate_change;
    stream.rate.epoch_events =
        std::max<uint64_t>(1, rate_epoch / config.streams_per_local);
    stream.value.phase =
        0.37 * static_cast<double>(stream.stream_id);  // replay offsets
    stream.start_time = 0;
    stream.seed = config.seed * 1'000'003 + stream.stream_id * 7919 + 13;
    ingest.streams.push_back(stream);
  }
  return ingest;
}

namespace {

/// Baseline fallback for served query sets: one full sub-run per query
/// (declared below RunExperiment, which it recurses into).
Result<RunReport> RunServeFallback(const ExperimentConfig& input,
                                   const QueryRegistry& registry);

}  // namespace

Result<RunReport> RunExperiment(const ExperimentConfig& input) {
  DECO_RETURN_NOT_OK(input.Validate());

  // Multi-query serving (DESIGN.md §11): build the registry (admission
  // control rejects over-budget sets loudly, before any actor exists).
  // Entry 0 overrides `input.query` as the primary for the whole run. A
  // run given no query set serves `input.query` alone, through a
  // one-entry registry outside the admission budget.
  const bool serving = !input.serve.queries.empty();
  ServeAdmission admission = input.serve.admission;
  admission.num_locals = input.num_locals;
  QueryRegistry registry(serving ? admission : ServeAdmission{});
  if (serving) {
    for (const ServedQuery& q : input.serve.queries) {
      DECO_RETURN_NOT_OK(registry.Add(q));
    }
    if (!ServesNatively(input.scheme) && registry.queries().size() > 1) {
      // Baselines have no shared slice store: loop-per-query fallback.
      return RunServeFallback(input, registry);
    }
  } else {
    ServedQuery primary;
    primary.query = input.query;
    DECO_RETURN_NOT_OK(registry.Add(std::move(primary)));
  }
  ExperimentConfig config = input;
  config.query = registry.queries()[0].query;

  // Everything the run counts and records (DESIGN.md §5). Declared first
  // so it outlives every actor, controller and ops-plane object that
  // holds a pointer into it.
  RunContext run;

  // Sim mode: one scheduler owns the virtual clock and every scheduling
  // decision. Declared before the fabric so it outlives it (the fabric may
  // hold queued delivery events referencing fabric state).
  std::unique_ptr<SimScheduler> sim;
  Clock* clock = SystemClock::Default();
  if (config.sim) {
    sim = std::make_unique<SimScheduler>(config.seed);
    if (config.sim_time_limit_nanos > 0) {
      sim->SetVirtualTimeLimit(config.sim_time_limit_nanos);
    }
    clock = sim->clock();
  }
  NetworkFabric fabric(clock, config.seed);
  if (sim != nullptr) fabric.SetSimScheduler(sim.get());

  Topology topology;
  topology.root = fabric.RegisterNode("root");
  for (size_t i = 0; i < config.num_locals; ++i) {
    topology.locals.push_back(
        fabric.RegisterNode("local-" + std::to_string(i)));
  }

  // Link shaping.
  for (NodeId local : topology.locals) {
    if (config.link_latency_nanos > 0 || config.drop_probability > 0.0) {
      LinkConfig link;
      link.latency_nanos = config.link_latency_nanos;
      link.drop_probability = config.drop_probability;
      DECO_RETURN_NOT_OK(fabric.SetLinkConfig(local, topology.root, link));
      DECO_RETURN_NOT_OK(fabric.SetLinkConfig(topology.root, local, link));
    }
    if (config.egress_bytes_per_sec > 0) {
      NodeNetConfig net;
      net.egress_bytes_per_sec = config.egress_bytes_per_sec;
      DECO_RETURN_NOT_OK(fabric.SetNodeNetConfig(local, net));
    }
  }

  // Chaos: compile the fault timeline against the registered node names and
  // hand every local an ingest-rate handle so `surge` events can scale its
  // input at runtime. The controller thread starts with the actors below.
  std::unique_ptr<ChaosController> chaos;
  std::vector<std::shared_ptr<std::atomic<double>>> rate_handles;
  if (!config.chaos.schedule.empty()) {
    chaos = std::make_unique<ChaosController>(&fabric, clock, &run.metrics);
    if (sim != nullptr) chaos->SetSimScheduler(sim.get());
    for (size_t i = 0; i < config.num_locals; ++i) {
      rate_handles.push_back(std::make_shared<std::atomic<double>>(1.0));
      chaos->AddRateHandle("local-" + std::to_string(i), rate_handles[i]);
    }
    DECO_RETURN_NOT_OK(chaos->Prepare(config.chaos.schedule));
  }
  auto ingest_for = [&](size_t ordinal) {
    IngestConfig ingest = MakeIngestConfig(config, ordinal);
    if (ordinal < rate_handles.size()) {
      ingest.rate_multiplier = rate_handles[ordinal];
    }
    return ingest;
  };

  RunReport report;
  report.scheme = SchemeToString(config.scheme);

  // Provenance collection (DESIGN.md §10). Enabled telemetry implies it:
  // schema v4 always carries the provenance section. The tracker lives on
  // the harness but is driven exclusively from the root actor thread; it
  // is read back only after the joins below.
  std::unique_ptr<ProvenanceTracker> provenance_tracker;
  const bool provenance_on =
      config.provenance.enabled || config.provenance.sink != nullptr ||
      !config.provenance.json_out.empty() || config.telemetry.enabled;
  if (provenance_on) {
    const uint64_t regions_per_window =
        config.scheme == Scheme::kDecoAsync ? 3
        : config.scheme == Scheme::kDecoMon ||
                config.scheme == Scheme::kDecoSync ||
                config.scheme == Scheme::kDecoMonLocal
            ? 2
            : 1;
    provenance_tracker = std::make_unique<ProvenanceTracker>(
        config.num_locals, regions_per_window);
    provenance_tracker->SetGovernance(config.obs_governance);
    provenance_tracker->SetFabric(&fabric, topology.locals);
    if (config.provenance.max_windows > 0) {
      provenance_tracker->set_max_windows(config.provenance.max_windows);
    }
  }

  Runtime runtime(&fabric);
  Actor* root_actor = nullptr;

  auto add_root = [&](std::unique_ptr<Actor> actor) {
    root_actor = actor.get();
    runtime.AddActor(std::move(actor));
  };

  switch (config.scheme) {
    case Scheme::kCentral:
    case Scheme::kScotty:
    case Scheme::kDisco: {
      const CentralizedMode mode =
          config.scheme == Scheme::kCentral  ? CentralizedMode::kCentral
          : config.scheme == Scheme::kScotty ? CentralizedMode::kScotty
                                             : CentralizedMode::kDisco;
      const WireFormat format = config.scheme == Scheme::kDisco
                                    ? WireFormat::kText
                                    : WireFormat::kBinary;
      auto central = std::make_unique<CentralizedRoot>(
          &fabric, topology.root, clock, &run, topology, config.query, mode,
          &report);
      central->set_provenance(provenance_tracker.get());
      add_root(std::move(central));
      for (size_t i = 0; i < config.num_locals; ++i) {
        runtime.AddActor(std::make_unique<ForwardingLocalNode>(
            &fabric, topology.locals[i], clock, &run, topology,
            ingest_for(i), format));
      }
      break;
    }
    case Scheme::kApprox: {
      auto approx = std::make_unique<ApproxRoot>(
          &fabric, topology.root, clock, &run, topology, config.query,
          &report);
      approx->set_provenance(provenance_tracker.get());
      add_root(std::move(approx));
      for (size_t i = 0; i < config.num_locals; ++i) {
        runtime.AddActor(std::make_unique<ApproxLocalNode>(
            &fabric, topology.locals[i], clock, &run, topology,
            ingest_for(i), config.query));
      }
      break;
    }
    case Scheme::kDecoMon:
    case Scheme::kDecoSync:
    case Scheme::kDecoAsync:
    case Scheme::kDecoMonLocal: {
      DecoScheme scheme = DecoScheme::kSync;
      if (config.scheme == Scheme::kDecoMon) {
        scheme = DecoScheme::kMon;
      } else if (config.scheme == Scheme::kDecoAsync) {
        scheme = DecoScheme::kAsync;
      } else if (config.scheme == Scheme::kDecoMonLocal) {
        scheme = DecoScheme::kMonLocal;
      }
      auto deco_root = std::make_unique<DecoRootNode>(
          &fabric, topology.root, clock, &run, topology, &registry, scheme,
          &report, config.root_options);
      deco_root->set_provenance(provenance_tracker.get());
      add_root(std::move(deco_root));
      for (size_t i = 0; i < config.num_locals; ++i) {
        // Tenants are charged only in runs given a query set, so a
        // single-query run grows no `serve.tenant.*` counters.
        runtime.AddActor(std::make_unique<DecoLocalNode>(
            &fabric, topology.locals[i], clock, &run, topology,
            ingest_for(i), &registry, scheme, config.local_options,
            /*account_tenants=*/serving));
      }
      break;
    }
  }

  // Live telemetry (DESIGN.md §5) and the live ops plane (§12) share one
  // substrate: either being on runs a sampler over the fabric and the
  // run's registry, so the watchdog has a tick and the endpoints fresh
  // state. Spans need a trace sink; alert trips and crash dumps want a
  // flight recorder; the fabric stamps hops while either records them.
  const bool ops_on = config.ops.Any();
  const bool watchdog_on =
      ops_on && (config.ops.watchdog || config.ops.ops_port >= 0);
  const bool recorder_on =
      ops_on && (config.ops.flight_recorder ||
                 config.ops.dump_flight_recorder || watchdog_on ||
                 config.ops.crash_handler);
  const std::string flight_path = config.ops.flight_recorder_out.empty()
                                      ? "deco_flight_recorder.json"
                                      : config.ops.flight_recorder_out;
  if (config.telemetry.enabled) {
    run.trace =
        std::make_unique<TraceSink>(clock, config.telemetry.trace_capacity);
  }
  if (recorder_on) {
    run.flight_recorder = std::make_unique<FlightRecorder>(
        clock, config.ops.flight_recorder_options);
    if (config.ops.crash_handler) {
      run.flight_recorder->InstallCrashHandler(flight_path);
    }
  }
  // The profiler exists before the actors start so every actor thread
  // registers its slot in Start's body.
  if (config.profile.enabled) {
    run.profiler = std::make_unique<Profiler>(config.profile.count_allocs);
  }
  fabric.SetHopStamping(run.trace != nullptr ||
                        run.flight_recorder != nullptr);

  // Declared before the sampler, whose final snapshot it observes.
  std::unique_ptr<Watchdog> watchdog;
  if (watchdog_on) {
    watchdog = std::make_unique<Watchdog>(config.ops.watchdog_options,
                                          &run.metrics);
    if (run.flight_recorder != nullptr) {
      watchdog->SetFlightRecorder(run.flight_recorder.get(), flight_path);
    }
  }
  std::unique_ptr<Sampler> sampler;
  if (config.telemetry.enabled || ops_on) {
    sampler = std::make_unique<Sampler>(
        clock, &fabric, &run.metrics,
        config.telemetry.sample_interval_nanos, sim.get());
    sampler->SetGovernance(config.obs_governance);
    if (watchdog != nullptr) {
      sampler->SetObserver([w = watchdog.get()](const TelemetrySample& s) {
        w->OnSample(s);
      });
    }
  }
  if (sampler != nullptr) sampler->Start();

  // The HTTP endpoints read shared state only; the serve registry and the
  // chaos controller arrive as an opaque JSON fragment because this layer
  // sits above the obs library in the dependency graph.
  // The server object is also built port-less when only a final /metrics
  // render is requested (`metrics_out` / `metrics_sink`): the renderers
  // need no socket.
  const bool metrics_render_on = !config.ops.metrics_out.empty() ||
                                 config.ops.metrics_sink != nullptr;
  std::unique_ptr<OpsServer> ops_server;
  if (config.ops.ops_port >= 0 || metrics_render_on) {
    OpsServer::Options server_options;
    server_options.port = std::max(config.ops.ops_port, 0);
    server_options.clock = clock;
    server_options.fabric = &fabric;
    server_options.registry = &run.metrics;
    server_options.watchdog = watchdog.get();
    server_options.sim = config.sim;
    server_options.sampler = sampler.get();
    const QueryRegistry* serve_registry = serving ? &registry : nullptr;
    ChaosController* chaos_ptr = chaos.get();
    server_options.statusz_extra = [serve_registry, chaos_ptr]() {
      std::string out = "\"serving\":{\"enabled\":";
      out += serve_registry != nullptr ? "true" : "false";
      if (serve_registry != nullptr) {
        out += ",\"queries\":[";
        const auto& queries = serve_registry->queries();
        for (size_t i = 0; i < queries.size(); ++i) {
          if (i != 0) out += ",";
          out += "{\"id\":";
          JsonAppendU64(&out, queries[i].id);
          out += ",\"tenant\":";
          JsonAppendString(&out, queries[i].tenant);
          out += "}";
        }
        out += "],\"pane_length\":";
        JsonAppendU64(&out, serve_registry->PaneLength());
        out += ",\"slots\":";
        JsonAppendU64(&out, serve_registry->slots().size());
      }
      out += "},\"chaos\":{\"enabled\":";
      out += chaos_ptr != nullptr ? "true" : "false";
      if (chaos_ptr != nullptr) {
        out += ",\"actions\":";
        JsonAppendU64(&out, chaos_ptr->action_count());
        out += ",\"fired\":";
        JsonAppendU64(&out, chaos_ptr->fired_count());
      }
      out += "}";
      return out;
    };
    ops_server = std::make_unique<OpsServer>(std::move(server_options));
    if (config.ops.ops_port >= 0) {
      DECO_RETURN_NOT_OK(ops_server->Start());
      if (config.ops.bound_port != nullptr) {
        *config.ops.bound_port = ops_server->port();
      }
    }
  }

  // One-line stderr heartbeat (deco_run --status_interval_ms). Counter
  // pointers are stable, so hoist the lookups out of the tick.
  std::unique_ptr<StatusTicker> status_ticker;
  if (config.ops.status_interval_nanos > 0) {
    MetricRegistry* reg = &run.metrics;
    Counter* events_in = reg->counter("local.events_ingested");
    Counter* panes = reg->counter("local.windows_produced");
    Counter* windows = reg->counter("root.windows_emitted");
    Counter* corrections = reg->counter("root.corrections");
    Watchdog* wd = watchdog.get();
    const TimeNanos t0 = clock->NowNanos();
    status_ticker = std::make_unique<StatusTicker>(
        config.ops.status_interval_nanos,
        [clock, t0, events_in, panes, windows, corrections, wd]() {
          std::ostringstream line;
          line << "[deco] t=" << std::fixed << std::setprecision(1)
               << static_cast<double>(clock->NowNanos() - t0) / 1e9
               << "s events_in=" << events_in->value()
               << " panes=" << panes->value()
               << " windows=" << windows->value()
               << " corrections=" << corrections->value();
          if (wd != nullptr) {
            line << " alerts=" << wd->fired_count();
          }
          return line.str();
        });
    status_ticker->Start();
  }

  // Cooperative interrupt (deco_run SIGINT/SIGTERM): a watcher thread
  // polls the flag and, once set, stops the actors and closes the fabric
  // so the joins below unblock — after which the normal export path runs.
  std::atomic<bool> interrupted{false};
  std::atomic<bool> run_done{false};
  std::thread interrupt_watcher;
  if (config.ops.interrupt != nullptr) {
    std::atomic<bool>* flag = config.ops.interrupt;
    interrupt_watcher = std::thread([&runtime, &fabric, &interrupted,
                                     &run_done, flag] {
      while (!run_done.load(std::memory_order_acquire)) {
        if (flag->load(std::memory_order_acquire)) {
          interrupted.store(true, std::memory_order_release);
          DECO_LOG(WARNING)
              << "interrupt: stopping actors, flushing telemetry";
          runtime.StopAll();
          fabric.Shutdown();
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }

  // Per-tenant usage is read straight off the run's `serve.tenant.*`
  // counters. Looked up before the actors start, so every served tenant
  // appears in the run's telemetry and /metrics even if it never used a
  // byte.
  struct TenantCounters {
    Counter* bytes = nullptr;
    Counter* agg_ops = nullptr;
  };
  std::vector<TenantCounters> tenant_counters;
  if (serving) {
    for (const std::string& tenant : registry.tenants()) {
      tenant_counters.push_back(
          {run.metrics.counter("serve.tenant." + tenant + ".bytes"),
           run.metrics.counter("serve.tenant." + tenant + ".agg_ops")});
    }
  }

  // One run start for every scheme, taken before any actor runs: the chaos
  // controller counts its fault offsets from just after it, so every
  // membership change lands at or after `start_wall_nanos` + its offset.
  const TimeNanos start = clock->NowNanos();
  report.start_wall_nanos = start;
  runtime.StartAll();
  const Status chaos_started =
      chaos != nullptr ? chaos->Start() : Status::OK();
  Status sim_run = Status::OK();
  if (chaos_started.ok()) {
    if (sim != nullptr) {
      // Drive the simulation until the root finishes. On a sim error
      // (deadlock, virtual-time limit) the root task never completes, so
      // its thread must not be joined before the teardown below unblocks
      // it.
      sim_run = sim->RunUntilTaskDone(root_actor->sim_task());
      if (sim_run.ok()) root_actor->Join();
    } else {
      root_actor->Join();
    }
  }
  const TimeNanos end = clock->NowNanos();

  // Teardown: every run whose actors started ends here, failed or not.
  // Stop fault injection first: a crash fired during shutdown would wedge
  // the joins below.
  if (chaos != nullptr) chaos->Stop();
  if (sampler != nullptr) sampler->Stop();
  // The run's trace ends with the root: spans and hops of the shutdown
  // that follows are not part of it.
  TelemetryLog log;
  if (run.trace != nullptr) {
    log.spans = run.trace->Drain();
    log.spans_dropped = run.trace->dropped();
    log.hops = run.trace->DrainHops();
    log.hops_dropped = run.trace->hops_dropped();
  }

  runtime.StopAll();
  fabric.Shutdown();
  if (sim != nullptr) {
    // Wind the surviving tasks down in virtual time. Every remaining wait
    // is unblockable by now — mailboxes closed, stop flags set, sleeps
    // carry finite virtual deadlines — so the drain always terminates.
    const Status drained = sim->DrainAll();
    if (sim_run.ok() && !drained.ok()) sim_run = drained;
  }
  Status joined = runtime.JoinAll();
  // Every actor thread has joined, so every profiler slot is final.
  if (run.profiler != nullptr) report.profile = run.profiler->Collect();

  // Ops-plane teardown: the run is over, so retire the watcher and the
  // live surfaces, and dump the black box if asked (a watchdog trip
  // already dumped once on its own).
  run_done.store(true, std::memory_order_release);
  if (interrupt_watcher.joinable()) interrupt_watcher.join();
  if (status_ticker != nullptr) status_ticker->Stop();
  if (ops_server != nullptr) ops_server->Stop();
  if (run.flight_recorder != nullptr &&
      (config.ops.dump_flight_recorder || interrupted.load())) {
    if (run.flight_recorder->DumpJson(
            flight_path, interrupted.load() ? "interrupt" : "requested")) {
      DECO_LOG(INFO) << "flight recorder dumped to " << flight_path;
    }
  }
  DECO_RETURN_NOT_OK(chaos_started);
  if (config.ops.alerts != nullptr && watchdog != nullptr) {
    *config.ops.alerts = watchdog->Alerts();
  }
  // Final /metrics render (deco_run --metrics_out): the fabric object and
  // the registry outlive the shutdown above, so a port-less render here
  // sees the run's final counters.
  if (ops_server != nullptr && metrics_render_on) {
    const std::string exposition = ops_server->RenderMetrics();
    if (config.ops.metrics_sink != nullptr) {
      *config.ops.metrics_sink = exposition;
    }
    if (!config.ops.metrics_out.empty()) {
      DECO_RETURN_NOT_OK(WriteFile(config.ops.metrics_out, exposition));
    }
  }
  if (interrupted.load()) {
    // An interrupted run tears the fabric down under the actors: their
    // cancelled sends and closed mailboxes surface as errors that would
    // normally fail the run. The whole point of cooperative shutdown is
    // to still flush every exporter, so downgrade them to warnings.
    if (!joined.ok()) {
      DECO_LOG(WARNING) << "interrupted run: ignoring actor error: "
                        << joined.ToString();
      joined = Status::OK();
    }
    if (!sim_run.ok()) {
      DECO_LOG(WARNING) << "interrupted run: ignoring sim error: "
                        << sim_run.ToString();
      sim_run = Status::OK();
    }
  }
  DECO_RETURN_NOT_OK(sim_run);
  DECO_RETURN_NOT_OK(joined);

  report.wall_seconds = static_cast<double>(end - start) /
                        static_cast<double>(kNanosPerSecond);
  report.throughput_eps =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.events_processed) /
                report.wall_seconds
          : 0.0;
  report.network = fabric.Stats();
  report.delivery_hash = fabric.delivery_hash();

  // Serving summary + per-tenant accounting (CPU estimated by scaling the
  // profiler's measured local-node CPU by each tenant's share of aggregate
  // ops — an attribution, not a measurement).
  if (serving) {
    report.serving.enabled = true;
    report.serving.pane_length = registry.PaneLength();
    report.serving.queries = registry.queries().size();
    report.serving.slots = registry.slots().size();
    for (const QueryRunResult& qr : report.query_results) {
      report.serving.total_query_windows += qr.windows.size();
    }
    uint64_t local_cpu_nanos = 0;
    for (const ThreadProfile& t : report.profile.threads) {
      if (t.name.rfind("local-", 0) == 0) local_cpu_nanos += t.cpu_nanos;
    }
    uint64_t total_ops = 0;
    std::vector<TenantUsage> usages;
    for (size_t t = 0; t < tenant_counters.size(); ++t) {
      TenantUsage usage;
      usage.tenant = registry.tenants()[t];
      usage.bytes = static_cast<uint64_t>(tenant_counters[t].bytes->value());
      usage.agg_ops =
          static_cast<uint64_t>(tenant_counters[t].agg_ops->value());
      total_ops += usage.agg_ops;
      for (const ServedQuery& q : registry.queries()) {
        if (q.tenant == usage.tenant) ++usage.queries;
      }
      usages.push_back(std::move(usage));
    }
    for (TenantUsage& usage : usages) {
      if (total_ops > 0 && local_cpu_nanos > 0) {
        usage.cpu_nanos_est = static_cast<uint64_t>(
            static_cast<double>(local_cpu_nanos) *
            (static_cast<double>(usage.agg_ops) /
             static_cast<double>(total_ops)));
      }
      report.serving.tenants.push_back(std::move(usage));
    }
  }

  // Provenance post-pass: attach the accuracy estimates (oracle tap) and
  // fold the summary into the report before any exporter runs.
  ProvenanceLog provenance_log;
  if (provenance_tracker != nullptr) {
    provenance_log = provenance_tracker->TakeLog();
    // The oracle tap replays the primary query against the pane-level
    // provenance records; it only lines up when panes and primary windows
    // coincide (tumbling primary, no smaller-gcd co-query).
    if (config.provenance.estimate &&
        config.query.window.type != WindowType::kSliding &&
        (!serving ||
         registry.PaneLength() == config.query.window.length)) {
      AttributionOptions attribution;
      // Sim runs estimate every window (virtual time makes the replay
      // free); wall-clock runs cap the emitted records by reservoir.
      attribution.reservoir =
          config.sim ? 0 : config.provenance.accuracy_reservoir;
      attribution.seed = config.seed;
      Result<std::vector<WindowAccuracy>> accuracy =
          AttributeWindowError(config, report, attribution);
      if (accuracy.ok()) {
        provenance_log.accuracy = std::move(*accuracy);
      } else {
        DECO_LOG(WARNING) << "accuracy attribution failed: "
                          << accuracy.status().ToString();
      }
    }
    report.provenance = ComputeProvenanceSummary(provenance_log);
    if (!config.provenance.json_out.empty()) {
      DECO_RETURN_NOT_OK(WriteProvenanceJson(config.provenance.json_out,
                                             report.scheme,
                                             provenance_log));
    }
  }

  if (config.telemetry.enabled) {
    log.samples = sampler->Samples();
    log.provenance = provenance_log;
    // Schema v6: the alert history rides the telemetry document whenever
    // both telemetry and the watchdog were on.
    log.alerts_enabled = watchdog != nullptr;
    if (watchdog != nullptr) log.alerts = watchdog->Alerts();
    // Schema v7: the plane's self-metering. The wall-clock nanos fields
    // here are the document's only non-replayable values under --sim.
    log.obs_self.enabled = true;
    log.obs_self.sampler = sampler->SelfStats();
    if (ops_server != nullptr) {
      log.obs_self.scrapes = ops_server->requests_served();
      const QuantileSketch scrape_latency = ops_server->ScrapeLatency();
      log.obs_self.scrape_nanos_mean =
          scrape_latency.count() == 0
              ? 0.0
              : scrape_latency.sum() /
                    static_cast<double>(scrape_latency.count());
      log.obs_self.scrape_nanos_p99 = scrape_latency.Quantile(0.99);
      log.obs_self.exposition_bytes = ops_server->last_exposition_bytes();
    }
    log.obs_self.node_detail_limit = config.obs_governance.node_detail_limit;
    log.obs_self.top_k = config.obs_governance.top_k;
    if (log.spans_dropped > 0 || log.hops_dropped > 0) {
      DECO_LOG(WARNING) << "telemetry truncated: " << log.spans_dropped
                        << " spans and " << log.hops_dropped
                        << " hop records dropped at the TraceSink capacity ("
                        << config.telemetry.trace_capacity
                        << "); raise --trace_capacity";
    }
    if (!config.telemetry.json_out.empty()) {
      DECO_RETURN_NOT_OK(
          WriteTelemetryJson(config.telemetry.json_out, report, log));
    }
    if (!config.telemetry.perfetto_out.empty()) {
      DECO_RETURN_NOT_OK(
          WritePerfettoTrace(config.telemetry.perfetto_out, log));
    }
    if (config.telemetry.sink != nullptr) {
      *config.telemetry.sink = std::move(log);
    }
  }
  if (config.provenance.sink != nullptr) {
    *config.provenance.sink = std::move(provenance_log);
  }
  if (chaos != nullptr && config.chaos.audit != nullptr) {
    *config.chaos.audit = chaos->AuditLog();
  }
  return report;
}

namespace {

Result<RunReport> RunServeFallback(const ExperimentConfig& input,
                                   const QueryRegistry& registry) {
  // The centralized baselines have no shared slice store, so a served set
  // costs them one full pass over the streams *per query*: the primary
  // sub-run keeps the caller's observability options, every other query
  // runs stripped (no telemetry/profiling/provenance), and the cost
  // counters are summed so BytesPerEvent reflects what the baseline
  // actually spends serving the whole set (events_processed stays the
  // primary's — the marginal-cost comparison divides by one stream pass).
  ExperimentConfig primary_cfg = input;
  primary_cfg.serve = ServeOptions{};
  primary_cfg.query = registry.queries()[0].query;
  DECO_ASSIGN_OR_RETURN(RunReport report, RunExperiment(primary_cfg));
  report.query_results.clear();

  std::map<std::string, TenantUsage> usage_by_tenant;
  for (size_t i = 0; i < registry.queries().size(); ++i) {
    const ServedQuery& q = registry.queries()[i];
    QueryRunResult qr;
    qr.query_id = q.id;
    qr.tenant = q.tenant;
    qr.spec = q.spec;
    qr.activated = true;
    uint64_t query_bytes = 0;
    if (i == 0) {
      qr.windows = report.windows;
      query_bytes = report.network.total_bytes;
    } else {
      ExperimentConfig sub_cfg = primary_cfg;
      sub_cfg.query = q.query;
      // Pin the rate epochs to the primary's, which may derive from its
      // window, so every sub-run consumes the identical stream (one
      // logical input, many queries).
      sub_cfg.rate_epoch_events = RateEpochEvents(primary_cfg);
      sub_cfg.telemetry = TelemetryOptions{};
      sub_cfg.profile = ProfilerOptions{};
      sub_cfg.provenance = ProvenanceOptions{};
      sub_cfg.provenance.estimate = false;
      DECO_ASSIGN_OR_RETURN(RunReport sub, RunExperiment(sub_cfg));
      report.network.total_messages += sub.network.total_messages;
      report.network.total_bytes += sub.network.total_bytes;
      report.network.total_dropped += sub.network.total_dropped;
      report.correction_steps += sub.correction_steps;
      report.corrections_repaired += sub.corrections_repaired;
      query_bytes = sub.network.total_bytes;
      qr.windows = std::move(sub.windows);
    }
    TenantUsage& usage = usage_by_tenant[q.tenant];
    usage.tenant = q.tenant;
    usage.bytes += query_bytes;
    ++usage.queries;
    report.serving.total_query_windows += qr.windows.size();
    report.query_results.push_back(std::move(qr));
  }

  report.serving.enabled = true;
  report.serving.pane_length = registry.PaneLength();
  report.serving.queries = registry.queries().size();
  report.serving.slots = registry.slots().size();
  // Registry tenant order keeps the report deterministic.
  for (const std::string& tenant : registry.tenants()) {
    report.serving.tenants.push_back(usage_by_tenant[tenant]);
  }
  return report;
}

}  // namespace

}  // namespace deco
