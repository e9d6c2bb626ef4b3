// Measures what the observability plane itself costs as the fleet grows
// from 10 to 1000 locals (DESIGN.md §13), and gates the cardinality-
// governance guarantees:
//
//   1. at the largest fleet the /metrics exposition stays under
//      --max_bytes (default 256 KiB);
//   2. sampler tick cost and telemetry JSON size grow sublinearly in the
//      node count (the strided detail scans and the fleet sketches bound
//      the expensive per-node work by the detail limit, not the fleet);
//   3. at 10 nodes — under every governance limit — the telemetry,
//      /metrics and provenance output is byte-identical to a run with
//      governance disabled (--obs_node_detail_limit=0), once the
//      wall-clock self-metering values (the document's only
//      non-replayable part under --sim) are blanked.
//
// Sim-only by design: the structural metrics it records are
// machine-independent and CI-gated against bench/baselines/.

#include "bench/bench_util.h"
#include "obs/export.h"
#include "obs/provenance.h"

using namespace deco;

namespace {

struct RunArtifacts {
  RunReport report;
  TelemetryLog log;
  std::string exposition;
  std::string telemetry_json;
  std::string provenance_json;
};

bool RunOnce(const bench::BenchOptions& opts, int64_t nodes,
             size_t node_detail_limit, RunArtifacts* out) {
  ExperimentConfig config;
  config.scheme = Scheme::kDecoAsync;
  config.query.window = WindowSpec::CountTumbling(
      500 * static_cast<uint64_t>(nodes));
  config.query.aggregate = AggregateKind::kSum;
  config.num_locals = static_cast<size_t>(nodes);
  config.streams_per_local = 2;
  config.events_per_local = opts.Scaled(2000);
  config.base_rate = 1e6;
  config.rate_change = 0.01;
  config.batch_size = 64;
  // Pace the locals so virtual time advances and the sampler gets a
  // real tick series (~10 ticks at 2 ms interval).
  config.cpu_events_per_sec = 100'000;
  config.seed = 42;
  config.sim = true;  // sim-only bench: see file comment

  config.telemetry.enabled = true;
  config.telemetry.sample_interval_nanos = 2 * kNanosPerMilli;
  // Spans and hops are governed by the trace cap, not the node count:
  // the overflow lands in the hops/spans_dropped self-meters.
  config.telemetry.trace_capacity = 2048;
  config.telemetry.sink = &out->log;
  // The accuracy estimator replays the full streams; this bench measures
  // the plane, not the protocol, so skip it (windows_estimated stays 0).
  config.provenance.estimate = false;

  config.ops.metrics_sink = &out->exposition;
  config.obs_governance.node_detail_limit = node_detail_limit;

  auto result = RunExperiment(config);
  if (!result.ok()) {
    std::printf("nodes=%lld ERROR: %s\n", (long long)nodes,
                result.status().ToString().c_str());
    return false;
  }
  out->report = *result;
  out->telemetry_json = TelemetryToJson(out->report, out->log);
  out->provenance_json = ProvenanceJson(out->log.provenance);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts =
      bench::BenchOptions::Parse(argc, argv, "obs_overhead_at_scale");
  const std::vector<int64_t> node_counts =
      opts.flags.GetIntList("nodes", {10, 100, 1000});
  const uint64_t max_bytes = static_cast<uint64_t>(
      opts.flags.GetInt("max_bytes", 262144));

  BenchRecorder recorder(opts.bench_name);
  opts.RecordConfig(&recorder);
  recorder.SetConfig("sim", true);
  recorder.SetConfig("events_per_local",
                     static_cast<int64_t>(opts.Scaled(2000)));
  recorder.SetConfig("max_bytes", static_cast<int64_t>(max_bytes));
  recorder.SetConfig("seed", static_cast<int64_t>(42));

  std::printf("Observability overhead at scale (10 -> 1000 locals, --sim)\n");
  std::printf("%8s %12s %14s %14s %16s %12s\n", "nodes", "expo(B)",
              "telemetry(B)", "provenance(B)", "tick-mean(us)", "detail/n");

  bool ok = true;
  std::vector<int64_t> swept;
  std::vector<double> expo_bytes, telemetry_bytes, tick_mean_nanos;
  for (int64_t nodes : node_counts) {
    RunArtifacts run;
    if (!RunOnce(opts, nodes, /*node_detail_limit=*/64, &run)) return 1;
    const SamplerSelfStats& self = run.log.obs_self.sampler;
    const uint64_t detail = run.log.samples.empty()
                                ? 0
                                : run.log.samples.back().fleet.detail_nodes;
    std::printf("%8lld %12zu %14zu %14zu %16.1f %12llu\n", (long long)nodes,
                run.exposition.size(), run.telemetry_json.size(),
                run.provenance_json.size(), self.tick_nanos_mean / 1e3,
                (unsigned long long)detail);
    std::fflush(stdout);

    const std::string label = "deco-async/nodes=" + std::to_string(nodes);
    recorder.AddReport(label, run.report);
    recorder.AddMetric(label, "exposition_bytes",
                       static_cast<double>(run.exposition.size()));
    recorder.AddMetric(label, "telemetry_json_bytes",
                       static_cast<double>(run.telemetry_json.size()));
    recorder.AddMetric(label, "provenance_json_bytes",
                       static_cast<double>(run.provenance_json.size()));
    recorder.AddMetric(label, "sampler_tick_mean_nanos",
                       self.tick_nanos_mean);
    recorder.AddMetric(label, "sampler_ticks",
                       static_cast<double>(self.ticks));
    recorder.AddMetric(label, "detail_nodes",
                       static_cast<double>(detail));

    swept.push_back(nodes);
    expo_bytes.push_back(static_cast<double>(run.exposition.size()));
    telemetry_bytes.push_back(static_cast<double>(run.telemetry_json.size()));
    tick_mean_nanos.push_back(self.tick_nanos_mean);

    if (nodes == node_counts.back() &&
        run.exposition.size() > max_bytes) {
      std::printf("FAIL: exposition at %lld nodes is %zu bytes "
                  "(cap %llu)\n",
                  (long long)nodes, run.exposition.size(),
                  (unsigned long long)max_bytes);
      ok = false;
    }
  }

  // Sublinearity gates against the smallest fleet. Exposition and
  // telemetry sizes are dominated by governed (bounded) sections, so
  // half the node ratio leaves a wide margin. Tick cost keeps a cheap
  // O(n) scalar pass by design (the fleet totals must read every node),
  // so its gate is node-ratio with a denominator floor of 20 us — a
  // bounded-cost check that noisy tiny baselines cannot flake.
  if (swept.size() >= 2) {
    const double node_ratio = static_cast<double>(swept.back()) /
                              static_cast<double>(swept.front());
    const double expo_ratio = expo_bytes.back() / expo_bytes.front();
    const double telemetry_ratio =
        telemetry_bytes.back() / telemetry_bytes.front();
    const double tick_floor_nanos = std::max(tick_mean_nanos.front(), 2e4);
    const double tick_ratio = tick_mean_nanos.back() / tick_floor_nanos;
    std::printf("\ngrowth vs %lld-node row (node ratio %.0fx): "
                "exposition %.2fx, telemetry %.2fx, tick %.2fx\n",
                (long long)swept.front(), node_ratio, expo_ratio,
                tick_ratio == 0.0 ? 0.0 : telemetry_ratio, tick_ratio);
    if (expo_ratio >= node_ratio / 2) {
      std::printf("FAIL: exposition grows %.2fx (>= %.0fx)\n", expo_ratio,
                  node_ratio / 2);
      ok = false;
    }
    if (telemetry_ratio >= node_ratio / 2) {
      std::printf("FAIL: telemetry JSON grows %.2fx (>= %.0fx)\n",
                  telemetry_ratio, node_ratio / 2);
      ok = false;
    }
    if (tick_ratio >= node_ratio) {
      std::printf("FAIL: sampler tick cost grows %.2fx (>= %.0fx)\n",
                  tick_ratio, node_ratio);
      ok = false;
    }
  }

  // Governance no-op gate: at 10 nodes (below the default limit) a
  // governed run and an ungoverned (--obs_node_detail_limit=0) run must
  // produce byte-identical telemetry, exposition and provenance, modulo
  // the blanked wall-clock self-meters.
  {
    RunArtifacts governed, unlimited;
    if (!RunOnce(opts, 10, /*node_detail_limit=*/64, &governed)) return 1;
    if (!RunOnce(opts, 10, /*node_detail_limit=*/0, &unlimited)) return 1;
    if (ScrubTelemetryJson(governed.telemetry_json) !=
        ScrubTelemetryJson(unlimited.telemetry_json)) {
      std::printf("FAIL: governed 10-node telemetry JSON differs from "
                  "the ungoverned run\n");
      ok = false;
    }
    if (ScrubExposition(governed.exposition) !=
        ScrubExposition(unlimited.exposition)) {
      std::printf("FAIL: governed 10-node /metrics differs from the "
                  "ungoverned run\n");
      ok = false;
    }
    if (governed.provenance_json != unlimited.provenance_json) {
      std::printf("FAIL: governed 10-node provenance differs from the "
                  "ungoverned run\n");
      ok = false;
    }
    if (ok) {
      std::printf("10-node governance no-op verified (telemetry, "
                  "/metrics, provenance byte-identical)\n");
    }
  }

  const int rc = bench::Finish(opts, recorder);
  if (rc != 0) return rc;
  if (!ok) {
    std::printf("obs_overhead_at_scale: GATES FAILED\n");
    return 1;
  }
  std::printf("obs_overhead_at_scale: all gates passed\n");
  return 0;
}
