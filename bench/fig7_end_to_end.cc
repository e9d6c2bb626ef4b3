// Reproduces Figure 7 of the paper: end-to-end throughput (7a) and latency
// (7b) of Central, Scotty, Disco and the Deco schemes on a 9-node cluster
// (one root, eight local nodes), tumbling count window, sum aggregate, 1%
// event rate change. The paper uses 1M-event windows and a physical
// cluster; the defaults here scale the window to 200k events on the
// in-process fabric (see DESIGN.md for the substitution argument). Expected
// shape: Deco_async an order of magnitude above Scotty in throughput and
// far below Central in latency; Disco slowest (single-threaded text
// decoding); every Deco scheme ships fewer bytes per event than Central
// (check_bench_json.py gates that on sim documents).

#include "bench/bench_util.h"

using namespace deco;

int main(int argc, char** argv) {
  const bench::BenchOptions opts =
      bench::BenchOptions::Parse(argc, argv, "fig7_end_to_end");
  const uint64_t window = opts.Scaled(200'000);
  const uint64_t events = opts.Scaled(4'000'000);
  const size_t locals =
      static_cast<size_t>(opts.flags.GetInt("locals", 8));

  BenchRecorder recorder(opts.bench_name);
  opts.RecordConfig(&recorder);
  recorder.SetConfig("window", static_cast<int64_t>(window));
  recorder.SetConfig("events_per_local", static_cast<int64_t>(events));
  recorder.SetConfig("locals", static_cast<int64_t>(locals));
  recorder.SetConfig("seed", static_cast<int64_t>(42));

  std::printf("Figure 7: end-to-end performance, %zu local nodes, "
              "window=%llu, events/node=%llu, rate change 1%%\n",
              locals, static_cast<unsigned long long>(window),
              static_cast<unsigned long long>(events));
  bench::PrintHeader("Fig 7a/7b: throughput and latency");

  for (Scheme scheme :
       opts.Schemes({Scheme::kCentral, Scheme::kScotty, Scheme::kDisco,
                     Scheme::kDecoSync, Scheme::kDecoMon,
                     Scheme::kDecoAsync})) {
    ExperimentConfig config;
    config.scheme = scheme;
    config.query.window = WindowSpec::CountTumbling(window);
    config.query.aggregate = AggregateKind::kSum;
    config.num_locals = locals;
    config.streams_per_local = 4;
    // Disco's text path is ~10x slower; keep its run time comparable.
    config.events_per_local =
        scheme == Scheme::kDisco ? events / 4 : events;
    config.base_rate = 1e6;
    config.rate_change = 0.01;
    config.batch_size = 8192;
    config.seed = 42;
    opts.ApplyCommon(&config, SchemeToString(scheme));
    bench::RunAndRecord(config, opts, &recorder, SchemeToString(scheme));
  }

  // --ops_overhead: rerun the Deco row with the full live ops plane on
  // (metrics endpoint, watchdog on the sampler tick, flight recorder) as
  // `<scheme>/ops`. check_bench_json.py asserts the paired sim rows'
  // throughput medians stay within 2% — the observability tax must stay
  // in the noise.
  if (opts.flags.GetBool("ops_overhead", false)) {
    ExperimentConfig config;
    config.scheme = Scheme::kDecoAsync;
    config.query.window = WindowSpec::CountTumbling(window);
    config.query.aggregate = AggregateKind::kSum;
    config.num_locals = locals;
    config.streams_per_local = 4;
    config.events_per_local = events;
    config.base_rate = 1e6;
    config.rate_change = 0.01;
    config.batch_size = 8192;
    config.seed = 42;
    opts.ApplyCommon(&config, "deco-async.ops");
    config.ops.ops_port = 0;  // ephemeral; scraped by nobody, still serving
    config.ops.watchdog = true;
    config.ops.flight_recorder = true;
    bench::RunAndRecord(config, opts, &recorder, "deco-async/ops");
  }
  return bench::Finish(opts, recorder);
}
