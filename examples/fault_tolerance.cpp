// Failure handling (paper §4.3.4) plus the rejoin extension (DESIGN.md §6):
// the root uses per-node timeouts to detect silent local nodes, removes
// them from the topology, and rebuilds the affected global window from the
// survivors via a correction step. A restarted local announces itself
// (kRejoin) and is re-admitted; its durable retained queue lets it resume
// contributing without duplicating already-emitted events.
//
// The fault timeline is a declarative `ChaosSchedule` applied by the
// harness's chaos controller: local-1 crashes at t=300 ms and restarts at
// t=800 ms. The controller's audit log — deterministic for a given
// schedule — is printed at the end.

#include <cstdio>

#include "harness/experiment.h"

using namespace deco;

int main() {
  ExperimentConfig config;
  config.scheme = Scheme::kDecoSync;
  config.query.window = WindowSpec::CountTumbling(10'000);
  config.query.aggregate = AggregateKind::kSum;
  config.num_locals = 3;
  config.streams_per_local = 2;
  config.events_per_local = 4'000'000;
  config.base_rate = 2'000'000;
  config.rate_change = 0.01;
  // Pace each local at 2M events/s so the crash and the restart land
  // mid-stream however fast the host runs the protocol.
  config.cpu_events_per_sec = 2'000'000;
  config.root_options.node_timeout_nanos = 250 * kNanosPerMilli;

  config.chaos.schedule = ChaosSchedule()
                              .Crash("local-1", 300 * kNanosPerMilli)
                              .Restart("local-1", 800 * kNanosPerMilli);
  std::vector<ChaosAuditEntry> audit;
  config.chaos.audit = &audit;

  std::printf("Fault tolerance demo: 3 local nodes, Deco_sync, node "
              "timeout 250 ms\n");
  std::printf("schedule: %s\n",
              config.chaos.schedule.ToSpecString().c_str());

  auto result = RunExperiment(config);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const RunReport& report = *result;

  std::printf("\nchaos audit (%zu actions fired):\n", audit.size());
  for (const ChaosAuditEntry& entry : audit) {
    std::printf("  %s\n", entry.Describe().c_str());
  }

  bool removed = false;
  bool rejoined = false;
  std::printf("\nmembership changes seen by the root:\n");
  for (const MembershipEvent& event : report.membership) {
    const double offset_ms =
        static_cast<double>(event.at_nanos - report.start_wall_nanos) / 1e6;
    std::printf("  t=%.1fms: local-%zu %s\n", offset_ms, event.node,
                event.rejoined ? "re-admitted (rejoin)"
                               : "removed (timeout)");
    if (event.rejoined) {
      rejoined = true;
    } else {
      removed = true;
    }
  }

  uint64_t corrected = 0;
  for (const GlobalWindowRecord& w : report.windows) {
    if (w.corrected) ++corrected;
  }
  std::printf("\nrun finished: %llu windows, %llu corrections\n",
              (unsigned long long)report.windows_emitted,
              (unsigned long long)corrected);
  std::printf("the crashed node was removed after its timeout and "
              "re-admitted after its\nrestart; windows in between were "
              "built from the two survivors only.\n");
  return removed && rejoined && report.windows_emitted > 0 ? 0 : 1;
}
