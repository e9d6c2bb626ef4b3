#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/random.h"
#include "harness/experiment.h"
#include "harness/oracle.h"

namespace deco {
namespace {

// Property-based differential test (ISSUE 4 tentpole): sample random
// experiment configurations, run every scheme under the deterministic
// simulation runtime, and compare each run against the single-threaded
// reference oracle.
//
// Exactness contract (mirrors tests/integration_test.cc, applied across
// the whole sampled configuration space instead of one fixed config):
//  - central / scotty / disco / deco-mon / deco-sync / deco-monlocal
//    reproduce the oracle's windows exactly: same window count, same
//    per-window event counts and end timestamps, values equal up to
//    floating-point association, and (for tumbling windows) a consumption
//    overlap of exactly 1.0;
//  - deco-async must stay within tight error bounds: full windows of the
//    configured length, >= 99% consumption overlap, every value
//    self-consistent with its own consumption log;
//  - approx has no exactness guarantee; it must finish, emit roughly the
//    right number of windows, and keep its values self-consistent.
//
// Environment knobs (used by the CI `sim-differential` job):
//  - DECO_DIFF_SEED: master seed for the configuration sampler
//  - DECO_DIFF_CONFIGS: number of sampled configurations (default 100)
//
// Every assertion failure prints a copy-pastable `deco_run --sim` command
// line reproducing the failing (config, scheme) pair.

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

// The full sampled space, kept small enough that one (config, scheme) sim
// run takes milliseconds.
struct SampledConfig {
  ExperimentConfig config;
  std::string repro_base;  // deco_run flags minus --scheme
};

const char* AggFlag(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kSum:
      return "sum";
    case AggregateKind::kCount:
      return "count";
    case AggregateKind::kMin:
      return "min";
    case AggregateKind::kMax:
      return "max";
    case AggregateKind::kAvg:
      return "avg";
    default:
      return "sum";
  }
}

// `config` with the deco_run flags that reproduce it.
SampledConfig WithRepro(const ExperimentConfig& config) {
  const WindowSpec& window = config.query.window;
  const bool sliding = window.type == WindowType::kSliding;
  SampledConfig sampled;
  sampled.config = config;
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "deco_run --sim --seed=%llu --window=%llu%s%s --agg=%s --locals=%zu "
      "--streams=%zu --events=%llu --rate=%.0f --change=%.2f --skew=%.1f "
      "--batch=%zu",
      static_cast<unsigned long long>(config.seed),
      static_cast<unsigned long long>(window.length),
      sliding ? " --slide=" : "",
      sliding ? std::to_string(window.slide).c_str() : "",
      AggFlag(config.query.aggregate), config.num_locals,
      config.streams_per_local,
      static_cast<unsigned long long>(config.events_per_local),
      config.base_rate, config.rate_change, config.rate_skew,
      config.batch_size);
  sampled.repro_base = buf;
  return sampled;
}

SampledConfig SampleConfig(Rng* rng) {
  ExperimentConfig config;
  config.sim = true;
  config.num_locals = static_cast<size_t>(rng->NextInt(1, 4));
  config.streams_per_local = static_cast<size_t>(rng->NextInt(1, 3));

  uint64_t window;
  uint64_t slide = 0;
  if (rng->NextBool(0.25)) {  // quarter of the space: sliding windows
    // Slide divides window, as in real pane-based deployments: the panes
    // the schemes decompose into are `slide` events wide. A non-dividing
    // slide makes the pane width gcd(window, slide) — possibly a handful
    // of events — and the per-pane protocol cost explodes.
    slide = static_cast<uint64_t>(rng->NextInt(100, 500));
    window = slide * static_cast<uint64_t>(rng->NextInt(2, 4));
    config.query.window = WindowSpec::CountSliding(window, slide);
  } else {
    window = static_cast<uint64_t>(rng->NextInt(200, 2000));
    config.query.window = WindowSpec::CountTumbling(window);
  }

  static const AggregateKind kAggs[] = {
      AggregateKind::kSum, AggregateKind::kSum, AggregateKind::kSum,
      AggregateKind::kCount, AggregateKind::kMin, AggregateKind::kMax,
      AggregateKind::kAvg};
  config.query.aggregate = kAggs[rng->NextBounded(7)];

  // Enough events for 4..10 full global windows, split across the locals.
  const uint64_t windows = static_cast<uint64_t>(rng->NextInt(4, 10));
  config.events_per_local = std::max<uint64_t>(
      256, window * windows / config.num_locals + window / 2);
  config.base_rate = 20'000.0 * static_cast<double>(rng->NextInt(1, 10));
  config.rate_change = 0.05 * static_cast<double>(rng->NextInt(0, 6));
  config.rate_skew = 0.1 * static_cast<double>(rng->NextInt(0, 3));
  static const size_t kBatches[] = {64, 128, 256, 512};
  config.batch_size = kBatches[rng->NextBounded(4)];
  config.seed = rng->NextUint64() >> 1;
  // Unpaced sim runs finish in milliseconds of virtual time; a run still
  // going after a virtual minute is livelocked, not slow.
  config.sim_time_limit_nanos = 60 * kNanosPerSecond;

  return WithRepro(config);
}

// More streams per local than a binary event batch's 15-slot table, so
// shipped batches take the codec's escape path; one fixed input next to
// the sampled ones.
SampledConfig ManyStreamsConfig() {
  ExperimentConfig config;
  config.sim = true;
  config.num_locals = 2;
  config.streams_per_local = 20;
  config.query.window = WindowSpec::CountTumbling(1500);
  config.events_per_local = 5'000;
  config.base_rate = 100'000.0;
  config.rate_change = 0.1;
  config.batch_size = 256;
  config.seed = 20;
  config.sim_time_limit_nanos = 60 * kNanosPerSecond;
  return WithRepro(config);
}

double RelTolerance(double truth) {
  return 1e-6 * std::max(1.0, std::fabs(truth));
}

// One (config, scheme) differential run. Returns false on failure so the
// caller can count failures; gtest records the details.
void CheckScheme(const SampledConfig& sampled, Scheme scheme,
                 const OracleReference& oracle) {
  ExperimentConfig config = sampled.config;
  config.scheme = scheme;
  const std::string repro =
      sampled.repro_base + " --scheme=" + SchemeToString(scheme);
  SCOPED_TRACE("repro: " + repro);

  const bool tumbling =
      config.query.window.type == WindowType::kTumbling;
  if (scheme == Scheme::kApprox && !tumbling) {
    // Approx only estimates tumbling boundaries; the harness must reject
    // the combination loudly instead of degrading it to tumbling.
    EXPECT_TRUE(RunExperiment(config).status().IsNotSupported());
    return;
  }

  auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString() << "\nrepro: "
                           << repro;
  const RunReport& report = *result;

  if (scheme == Scheme::kApprox) {
    // No exactness contract: the run must finish and emit roughly the
    // oracle's window count. Under strong rate drift approx estimates fat
    // windows and can run ~30% short, so the lower bound is proportional.
    EXPECT_GE(2 * report.windows.size() + 2, oracle.windows.size());
    EXPECT_LE(report.windows.size(), oracle.windows.size() + 2);
    if (tumbling && oracle.consumption.num_windows() > 0) {
      const CorrectnessReport correctness =
          CompareConsumption(oracle.consumption, report.consumption);
      EXPECT_GT(correctness.correctness, 0.2);
    }
    return;
  }

  if (scheme == Scheme::kDecoAsync) {
    // Error-bound contract: full windows, >= 99% of events in the right
    // window, and every reported value the true aggregate of the events
    // the run consumed for it. Async subwindows close asynchronously, so
    // the final (sliding) window racing end-of-stream may be dropped.
    ASSERT_LE(report.windows.size(), oracle.windows.size());
    ASSERT_GE(report.windows.size() + 1, oracle.windows.size());
    for (size_t i = 0; i < report.windows.size(); ++i) {
      EXPECT_EQ(report.windows[i].event_count,
                oracle.windows[i].event_count)
          << "window " << i;
      EXPECT_NEAR(report.windows[i].value, oracle.windows[i].value,
                  100.0 * RelTolerance(oracle.windows[i].value))
          << "window " << i << " beyond the 1e-4 async error bound";
    }
    if (tumbling) {
      const CorrectnessReport correctness =
          CompareConsumption(oracle.consumption, report.consumption);
      EXPECT_GE(correctness.correctness, 0.99);
      auto recomputed =
          RecomputeWindowValues(config, report.consumption);
      ASSERT_TRUE(recomputed.ok()) << recomputed.status().ToString();
      ASSERT_EQ(recomputed->size(), report.windows.size());
      for (size_t i = 0; i < report.windows.size(); ++i) {
        EXPECT_NEAR(report.windows[i].value, (*recomputed)[i],
                    RelTolerance((*recomputed)[i]))
            << "window " << i << " value is not the aggregate of the "
            << "events the run consumed for it";
      }
    }
    return;
  }

  // Exact schemes: the oracle's windows, verbatim.
  ASSERT_EQ(report.windows.size(), oracle.windows.size());
  for (size_t i = 0; i < report.windows.size(); ++i) {
    EXPECT_EQ(report.windows[i].event_count, oracle.windows[i].event_count)
        << "window " << i;
    EXPECT_EQ(report.windows[i].end_ts, oracle.windows[i].end_ts)
        << "window " << i;
    EXPECT_NEAR(report.windows[i].value, oracle.windows[i].value,
                RelTolerance(oracle.windows[i].value))
        << "window " << i;
  }
  if (tumbling) {
    const CorrectnessReport correctness =
        CompareConsumption(oracle.consumption, report.consumption);
    EXPECT_DOUBLE_EQ(correctness.correctness, 1.0);
  }
}

// Every scheme on one configuration against the oracle.
void CheckAllSchemes(const SampledConfig& sampled) {
  static const Scheme kSchemes[] = {
      Scheme::kCentral,  Scheme::kScotty,    Scheme::kDisco,
      Scheme::kApprox,   Scheme::kDecoMon,   Scheme::kDecoSync,
      Scheme::kDecoAsync, Scheme::kDecoMonLocal};
  auto oracle = ComputeOracleReference(sampled.config);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_GE(oracle->windows.size(), 2u)
      << "sampler produced a degenerate config";
  for (Scheme scheme : kSchemes) {
    CheckScheme(sampled, scheme, *oracle);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DifferentialTest, AllSchemesMatchOracleOverSampledConfigs) {
  const uint64_t master_seed = EnvU64("DECO_DIFF_SEED", 42);
  const uint64_t num_configs = EnvU64("DECO_DIFF_CONFIGS", 100);
  std::printf("differential: master seed %llu, %llu configs "
              "(set DECO_DIFF_SEED / DECO_DIFF_CONFIGS to override)\n",
              static_cast<unsigned long long>(master_seed),
              static_cast<unsigned long long>(num_configs));

  {
    const SampledConfig many = ManyStreamsConfig();
    SCOPED_TRACE("20 streams per local: " + many.repro_base);
    CheckAllSchemes(many);
    if (::testing::Test::HasFatalFailure()) return;
  }
  Rng rng(master_seed);
  for (uint64_t c = 0; c < num_configs; ++c) {
    const SampledConfig sampled = SampleConfig(&rng);
    SCOPED_TRACE("config " + std::to_string(c) + ": " + sampled.repro_base);
    CheckAllSchemes(sampled);
    if (::testing::Test::HasFatalFailure()) return;
    if ((c + 1) % 20 == 0) {
      std::printf("differential: %llu/%llu configs checked\n",
                  static_cast<unsigned long long>(c + 1),
                  static_cast<unsigned long long>(num_configs));
    }
  }
}

// Multi-query serving differential (ISSUE 7): a quarter-sized sweep of
// sampled configurations gains 1..3 co-queries sharing the primary's
// stream, and every query's composed windows must match the per-query
// pane oracle — natively served (shared slice store) for the exact Deco
// schemes, loop-per-query fallback for Central. Co-query windows are
// multiples of the primary's protocol pane so the shared pane (the gcd)
// never collapses below it.
TEST(DifferentialTest, MultiQueryServingMatchesPerQueryOracle) {
  const uint64_t master_seed = EnvU64("DECO_DIFF_SEED", 42) ^ 0x5e7fe;
  const uint64_t num_configs = EnvU64("DECO_DIFF_MULTIQ", 20);

  static const Scheme kServeSchemes[] = {Scheme::kDecoMon,
                                         Scheme::kDecoSync,
                                         Scheme::kCentral};
  static const AggregateKind kCoAggs[] = {
      AggregateKind::kSum, AggregateKind::kCount, AggregateKind::kMin,
      AggregateKind::kMax, AggregateKind::kAvg};

  Rng rng(master_seed);
  for (uint64_t c = 0; c < num_configs; ++c) {
    SampledConfig sampled = SampleConfig(&rng);
    ExperimentConfig& config = sampled.config;

    ServedQuery primary;
    primary.query = config.query;
    config.serve.queries.push_back(primary);

    const uint64_t pane = ProtocolWindowLength(config.query.window);
    const int co_queries = rng.NextInt(1, 3);
    for (int i = 0; i < co_queries; ++i) {
      ServedQuery co;
      co.query.aggregate = kCoAggs[rng.NextBounded(5)];
      const uint64_t length =
          pane * static_cast<uint64_t>(rng.NextInt(1, 4));
      if (rng.NextBool(0.3) && length > pane) {
        co.query.window = WindowSpec::CountSliding(length, pane);
      } else {
        co.query.window = WindowSpec::CountTumbling(length);
      }
      co.tenant = i % 2 == 0 ? "even" : "odd";
      config.serve.queries.push_back(co);
    }
    std::string queries_flag = " --queries=";
    for (size_t qi = 0; qi < config.serve.queries.size(); ++qi) {
      if (qi > 0) queries_flag += ";";
      queries_flag += CanonicalQuerySpec(config.serve.queries[qi]);
    }
    SCOPED_TRACE("config " + std::to_string(c) + ": " +
                 sampled.repro_base + queries_flag);

    for (Scheme scheme : kServeSchemes) {
      SCOPED_TRACE(std::string("scheme ") + SchemeToString(scheme));
      config.scheme = scheme;
      auto result = RunExperiment(config);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const RunReport& report = *result;
      ASSERT_EQ(report.query_results.size(), config.serve.queries.size());
      ASSERT_TRUE(report.serving.enabled);
      for (size_t qi = 0; qi < report.query_results.size(); ++qi) {
        const QueryRunResult& qr = report.query_results[qi];
        SCOPED_TRACE("query " + std::to_string(qr.query_id) + " [" +
                     qr.spec + "]");
        auto oracle = ComputeQueryOracle(
            config, config.serve.queries[qi].query,
            report.serving.pane_length, qr.start_pane, qr.end_pane);
        ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
        ASSERT_EQ(qr.windows.size(), oracle->size());
        for (size_t i = 0; i < qr.windows.size(); ++i) {
          EXPECT_EQ(qr.windows[i].event_count, (*oracle)[i].event_count)
              << "window " << i;
          EXPECT_EQ(qr.windows[i].end_ts, (*oracle)[i].end_ts)
              << "window " << i;
          EXPECT_NEAR(qr.windows[i].value, (*oracle)[i].value,
                      RelTolerance((*oracle)[i].value))
              << "window " << i;
        }
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    // Reset for the next sample (SampleConfig returns a fresh config, but
    // the loop mutated this one's scheme/serve fields in place).
  }
}

// The oracle must agree with an actual Central run byte-for-byte on counts
// and timestamps — the anchor that ties the synthetic reference to the
// real pipeline.
TEST(DifferentialTest, OracleMatchesCentralRun) {
  Rng rng(7);
  const SampledConfig sampled = SampleConfig(&rng);
  auto oracle = ComputeOracleReference(sampled.config);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ExperimentConfig config = sampled.config;
  config.scheme = Scheme::kCentral;
  auto run = RunExperiment(config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->windows.size(), oracle->windows.size());
  for (size_t i = 0; i < run->windows.size(); ++i) {
    EXPECT_EQ(run->windows[i].event_count, oracle->windows[i].event_count);
    EXPECT_EQ(run->windows[i].end_ts, oracle->windows[i].end_ts);
    EXPECT_NEAR(run->windows[i].value, oracle->windows[i].value,
                RelTolerance(oracle->windows[i].value));
  }
  EXPECT_EQ(run->events_processed, oracle->events_processed);
}

}  // namespace
}  // namespace deco
