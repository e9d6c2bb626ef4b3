// Ablation study beyond the paper: the two tuning knobs DESIGN.md calls
// out for the prediction machinery.
//  1. The delta safety multiplier: the paper's literal Eq. 2 (x1.0) sizes
//     the raw edge at the mean absolute size change, which misses ~45% of
//     normal-tailed changes; widening it trades raw bytes for fewer
//     corrections. The default (0) derives it from the number of locals
//     (`FleetDeltaMultiplier`, 2.81 for the 2 locals here).
//  2. The delta history length m (paper §4.2.2): small m reacts fast but
//     noisily, large m smooths.
//  3. Deco_async's run-ahead depth (`max_unverified_windows`): how many
//     windows a local may plan past its last assignment. Measured at this
//     bench's shape and at one whose 1,000-event shares fill faster than
//     a 2 ms root round trip, where a shallow pipeline waits on the root.
//     Both run paced at 1M events/s per local, so a --sim run reports
//     virtual throughput and latency.
// Output: corrections per 100 windows and network cost per cell.

#include "bench/bench_util.h"

using namespace deco;

namespace {

ExperimentConfig MakeConfig(double multiplier, size_t history_m,
                            double change, uint64_t events) {
  ExperimentConfig config;
  config.scheme = Scheme::kDecoSync;
  config.query.window = WindowSpec::CountTumbling(50'000);
  config.query.aggregate = AggregateKind::kSum;
  config.num_locals = 2;
  config.streams_per_local = 4;
  config.events_per_local = events;
  config.base_rate = 1e6;
  config.rate_change = change;
  config.batch_size = 8192;
  config.seed = 42;
  config.root_options.delta_multiplier = multiplier;
  config.root_options.predictor_history_m = history_m;
  return config;
}

ExperimentConfig MakeDepthConfig(bool round_trip_bound, uint64_t depth,
                                 double change, uint64_t events) {
  ExperimentConfig config = MakeConfig(0.0, 4, change, events);
  config.scheme = Scheme::kDecoAsync;
  config.cpu_events_per_sec = 1'000'000;
  config.local_options.max_unverified_windows = depth;
  if (round_trip_bound) {
    config.query.window = WindowSpec::CountTumbling(3'000);
    config.num_locals = 3;
    config.link_latency_nanos = kNanosPerMilli;
  }
  return config;
}

double CorrectionsPer100(const RunReport& report) {
  return report.windows_emitted == 0
             ? 0.0
             : 100.0 * static_cast<double>(report.correction_steps) /
                   static_cast<double>(report.windows_emitted);
}

std::string CellLabel(double multiplier, size_t m) {
  char buf[48];
  if (multiplier == 0.0) {
    std::snprintf(buf, sizeof(buf), "mult=fleet/m=%zu", m);
  } else {
    std::snprintf(buf, sizeof(buf), "mult=%g/m=%zu", multiplier, m);
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts =
      bench::BenchOptions::Parse(argc, argv, "ablation_deco");
  const double change = opts.flags.GetDouble("change", 0.05);
  const uint64_t events = opts.Scaled(1'500'000);

  BenchRecorder recorder(opts.bench_name);
  opts.RecordConfig(&recorder);
  recorder.SetConfig("change", change);
  recorder.SetConfig("events_per_local", static_cast<int64_t>(events));
  recorder.SetConfig("window", static_cast<int64_t>(50'000));
  recorder.SetConfig("scheme", "deco-sync");
  recorder.SetConfig("seed", static_cast<int64_t>(42));

  std::printf("Ablation: Deco_sync delta multiplier x history m "
              "(rate change %.1f%%)\n", change * 100);
  std::printf("%-12s %-10s %16s %12s %14s\n", "multiplier", "history-m",
              "corrections/100w", "net(MB)", "tput(Mev/s)");
  // 0 is the default: the multiplier derived for the 2-local fleet.
  for (double multiplier : {0.0, 1.0, 2.0, 3.0, 4.0}) {
    for (size_t m : {size_t{1}, size_t{4}, size_t{16}}) {
      const std::string label = CellLabel(multiplier, m);
      RunReport report;
      for (int r = 0; r < opts.repeat; ++r) {
        ExperimentConfig config = MakeConfig(multiplier, m, change, events);
        opts.ApplyCommon(&config, label);
        auto result = RunExperiment(config);
        if (!result.ok()) continue;
        report = std::move(result).value();
        recorder.AddReport(label, report);
        recorder.AddMetric(label, "corrections_per_100_windows",
                           CorrectionsPer100(report));
      }
      std::printf("%-12.2f %-10zu %16.1f %12.3f %14.3f\n",
                  multiplier == 0.0 ? FleetDeltaMultiplier(2) : multiplier, m,
                  CorrectionsPer100(report),
                  static_cast<double>(report.network.total_bytes) / 1e6,
                  report.throughput_eps / 1e6);
      std::fflush(stdout);
    }
  }

  std::printf("\nAblation: Deco_async run-ahead depth (paced, 1M events/s "
              "per local)\n");
  std::printf("%-26s %-6s %12s %16s %12s %13s\n", "shape", "depth",
              "bytes/event", "corrections/100w", "tput(Mev/s)",
              "lat-mean(ms)");
  for (bool round_trip_bound : {false, true}) {
    for (uint64_t depth : {1, 2, 4}) {
      const std::string label =
          std::string(round_trip_bound ? "rtt" : "bench") +
          "/depth=" + std::to_string(depth);
      RunReport report;
      for (int r = 0; r < opts.repeat; ++r) {
        ExperimentConfig config =
            MakeDepthConfig(round_trip_bound, depth, change, events);
        opts.ApplyCommon(&config, label);
        auto result = RunExperiment(config);
        if (!result.ok()) continue;
        report = std::move(result).value();
        recorder.AddReport(label, report);
        recorder.AddMetric(label, "corrections_per_100_windows",
                           CorrectionsPer100(report));
      }
      std::printf("%-26s %-6llu %12.2f %16.1f %12.3f %13.3f\n",
                  round_trip_bound ? "3 locals, w=3000, 1 ms"
                                   : "2 locals, w=50000",
                  static_cast<unsigned long long>(depth),
                  report.BytesPerEvent(), CorrectionsPer100(report),
                  report.throughput_eps / 1e6, report.latency.mean() / 1e6);
      std::fflush(stdout);
    }
  }
  return bench::Finish(opts, recorder);
}
