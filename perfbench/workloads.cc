#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "harness/oracle.h"

namespace perfbench {
namespace {

using deco::ExperimentConfig;
using deco::GlobalWindowRecord;
using deco::RunReport;
using deco::Scheme;
using deco::Status;
using deco::WindowSpec;

// Each local node's nominal rate. The ingest throttle paces the generator
// at it; the throttle's token bucket starts with one second of credit, so
// the first `kRate` events of every local are a burst at virtual time 0.
constexpr uint64_t kRate = 1'000'000;

ExperimentConfig BaseConfig(uint64_t seed) {
  ExperimentConfig config;
  config.sim = true;
  config.num_locals = 3;
  config.streams_per_local = 4;
  config.base_rate = static_cast<double>(kRate);
  config.cpu_events_per_sec = kRate;
  config.link_latency_nanos = deco::kNanosPerMilli;
  config.seed = seed;
  // A livelocked run fails loudly instead of spinning in virtual time.
  config.sim_time_limit_nanos = 600 * deco::kNanosPerSecond;
  return config;
}

bool Near(double got, double want) {
  return std::fabs(got - want) <= 1e-6 * std::max(1.0, std::fabs(want));
}

void NoteFailure(WindowCheck* check, uint64_t seed, size_t window,
                 const char* what) {
  if (!check->first_failure.empty()) return;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "input seed %llu, window %zu: %s",
                static_cast<unsigned long long>(seed), window, what);
  check->first_failure = buf;
}

}  // namespace

deco::ExperimentConfig Workload::InputConfig(int i) const {
  ExperimentConfig sub = config;
  sub.seed = config.seed * 1000 + static_cast<uint64_t>(i);
  return sub;
}

deco::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                    bool smoke) {
  Workload w;
  w.name = name;
  w.config = BaseConfig(seed);
  ExperimentConfig& c = w.config;
  // Event budgets keep three quarters (paper-async) and two thirds
  // (central-forward) of each input past the throttle's initial burst, so
  // the latency percentiles describe the paced steady state.
  if (name == "paper-async") {
    c.scheme = Scheme::kDecoAsync;
    c.query.window = WindowSpec::CountTumbling(100'000);
    c.events_per_local = 4'000'000;
    w.inputs = 10;
  } else if (name == "correction-storm") {
    c.scheme = Scheme::kDecoSync;
    c.query.window = WindowSpec::CountTumbling(3'000);
    c.events_per_local = 1'000'000;
    w.inputs = 16;
  } else if (name == "central-forward") {
    c.scheme = Scheme::kCentral;
    c.query.window = WindowSpec::CountTumbling(100'000);
    c.events_per_local = 3'000'000;
    w.inputs = 7;
  } else {
    return Status::InvalidArgument("unknown workload: " + name);
  }
  if (smoke) {
    // Three inputs, so that a traced run covers fewer of them (two) than
    // an untraced one, as in a full run.
    c.events_per_local = 10 * c.query.window.length / c.num_locals;
    w.inputs = 3;
  }
  return w;
}

deco::ExperimentConfig SetupConfig(const deco::ExperimentConfig& config) {
  ExperimentConfig setup = config;
  const uint64_t window = config.query.window.length;
  setup.events_per_local = (window + config.num_locals - 1) / config.num_locals;
  return setup;
}

std::vector<double> WindowLatenciesMs(const RunReport& report) {
  std::vector<double> out;
  for (const GlobalWindowRecord& w : report.windows) {
    out.push_back(w.mean_latency_nanos / 1e6);
  }
  return out;
}

Status CheckWindows(const ExperimentConfig& config, const RunReport& report,
                    WindowCheck* check) {
  if (config.scheme != Scheme::kDecoAsync) {
    // Exact schemes: the oracle's windows, verbatim.
    DECO_ASSIGN_OR_RETURN(deco::OracleReference oracle,
                          deco::ComputeOracleReference(config));
    const std::vector<GlobalWindowRecord>& want = oracle.windows;
    const std::vector<GlobalWindowRecord>& got = report.windows;
    check->expected += want.size();
    if (got.size() < want.size()) check->missing += want.size() - got.size();
    for (size_t i = 0; i < got.size(); ++i) {
      if (i < want.size() && got[i].event_count == want[i].event_count &&
          got[i].end_ts == want[i].end_ts && Near(got[i].value, want[i].value)) {
        continue;
      }
      ++check->wrong;
      NoteFailure(check, config.seed, i, "differs from the oracle");
    }
    return Status::OK();
  }
  // Deco-async's contract (tests/differential_test.cc): full windows, each
  // value the exact aggregate of the events the run consumed for it, and
  // at most the final window lost to the end-of-stream race.
  const uint64_t length = config.query.window.length;
  const uint64_t expected = config.events_per_local * config.num_locals / length;
  const uint64_t emitted = report.windows.size();
  check->expected += expected;
  if (emitted + 1 < expected) check->missing += expected - emitted - 1;
  if (emitted > expected) check->wrong += emitted - expected;
  DECO_ASSIGN_OR_RETURN(
      std::vector<double> recomputed,
      deco::RecomputeWindowValues(config, report.consumption));
  if (recomputed.size() != emitted) {
    return Status::Internal("consumption log does not match the windows");
  }
  for (size_t i = 0; i < emitted; ++i) {
    const GlobalWindowRecord& w = report.windows[i];
    if (w.event_count == length && Near(w.value, recomputed[i])) continue;
    ++check->wrong;
    NoteFailure(check, config.seed, i,
                "is not the aggregate of the events it consumed");
  }
  return Status::OK();
}

}  // namespace perfbench
