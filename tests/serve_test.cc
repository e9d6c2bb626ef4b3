#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/oracle.h"
#include "metrics/report.h"
#include "serve/composer.h"
#include "serve/registry.h"
#include "serve/slice_store.h"

namespace deco {
namespace {

// Multi-query serving layer (DESIGN.md §11): registry/admission units,
// slot schedule mechanics, and end-to-end sim runs checked per query
// against the pane-composition oracle.

double RelTolerance(double truth) {
  return 1e-6 * std::max(1.0, std::fabs(truth));
}

ServedQuery MakeQuery(AggregateKind agg, uint64_t window,
                      const std::string& tenant = "default") {
  ServedQuery q;
  q.tenant = tenant;
  q.query.aggregate = agg;
  q.query.window = WindowSpec::CountTumbling(window);
  return q;
}

TEST(QueryRegistryTest, AssignsIdsAndSharesSlots) {
  QueryRegistry registry;
  ASSERT_TRUE(registry.Add(MakeQuery(AggregateKind::kSum, 1000)).ok());
  ASSERT_TRUE(registry.Add(MakeQuery(AggregateKind::kMax, 500, "b")).ok());
  ASSERT_TRUE(registry.Add(MakeQuery(AggregateKind::kSum, 2000, "b")).ok());

  ASSERT_EQ(registry.queries().size(), 3u);
  EXPECT_EQ(registry.queries()[0].id, 0u);
  EXPECT_EQ(registry.queries()[1].id, 1u);
  EXPECT_EQ(registry.queries()[2].id, 2u);
  // Queries 0 and 2 both compute sum: one shared slot.
  EXPECT_EQ(registry.slots().size(), 2u);
  EXPECT_EQ(registry.queries()[0].slot, 0u);
  EXPECT_EQ(registry.queries()[1].slot, 1u);
  EXPECT_EQ(registry.queries()[2].slot, 0u);
  EXPECT_EQ(registry.PaneLength(), 500u);
  ASSERT_EQ(registry.tenants().size(), 2u);
  EXPECT_EQ(registry.tenants()[0], "default");
  EXPECT_EQ(registry.tenants()[1], "b");
}

TEST(QueryRegistryTest, PrimaryMustCoverWholeRun) {
  QueryRegistry registry;
  ServedQuery scheduled = MakeQuery(AggregateKind::kSum, 1000);
  scheduled.add_pane = 4;
  EXPECT_TRUE(registry.Add(scheduled).IsInvalidArgument());
}

TEST(QueryRegistryTest, AdmissionRejectsOverMaxQueries) {
  ServeAdmission admission;
  admission.max_queries = 2;
  QueryRegistry registry(admission);
  ASSERT_TRUE(registry.Add(MakeQuery(AggregateKind::kSum, 1000)).ok());
  ASSERT_TRUE(registry.Add(MakeQuery(AggregateKind::kMax, 1000)).ok());
  const Status rejected =
      registry.Add(MakeQuery(AggregateKind::kMin, 1000));
  EXPECT_TRUE(rejected.IsResourceExhausted());
  // Loud rejection: the message names the limit and the remedy.
  EXPECT_NE(rejected.ToString().find("max_queries"), std::string::npos);
  EXPECT_EQ(registry.queries().size(), 2u);
}

TEST(QueryRegistryTest, AdmissionRejectsOverByteBudgetAndRollsBack) {
  ServeAdmission admission;
  admission.max_extra_bytes_per_event = 1e-9;
  admission.num_locals = 4;
  QueryRegistry registry(admission);
  ASSERT_TRUE(registry.Add(MakeQuery(AggregateKind::kSum, 1000)).ok());
  const Status rejected =
      registry.Add(MakeQuery(AggregateKind::kMax, 1000, "b"));
  EXPECT_TRUE(rejected.IsResourceExhausted());
  EXPECT_NE(rejected.ToString().find("bytes/event"), std::string::npos);
  // Rollback leaves no trace of the rejected query.
  EXPECT_EQ(registry.queries().size(), 1u);
  EXPECT_EQ(registry.slots().size(), 1u);
  EXPECT_EQ(registry.tenants().size(), 1u);
  // A same-slot query costs no extra wire bytes, so it still fits.
  EXPECT_TRUE(registry.Add(MakeQuery(AggregateKind::kSum, 500, "b")).ok());
}

TEST(QueryRegistryTest, ValidationRejectsBadQuantile) {
  QueryRegistry registry;
  ServedQuery q = MakeQuery(AggregateKind::kQuantile, 1000);
  q.query.quantile_q = 1.5;
  EXPECT_FALSE(registry.Add(q).ok());
  q.query.quantile_q = 0.0;
  EXPECT_FALSE(registry.Add(q).ok());
  q.query.quantile_q = 0.9;
  EXPECT_TRUE(registry.Add(q).ok());
}

TEST(QuerySpecTest, ParsesPositionalAndKeyValue) {
  auto positional = ParseQuerySpec("max:100000");
  ASSERT_TRUE(positional.ok());
  EXPECT_EQ(positional->query.aggregate, AggregateKind::kMax);
  EXPECT_EQ(positional->query.window.length, 100000u);
  EXPECT_EQ(positional->query.window.type, WindowType::kTumbling);
  EXPECT_EQ(positional->tenant, "default");

  auto sliding = ParseQuerySpec("avg:1000:250");
  ASSERT_TRUE(sliding.ok());
  EXPECT_EQ(sliding->query.window.type, WindowType::kSliding);
  EXPECT_EQ(sliding->query.window.slide, 250u);

  auto keyed = ParseQuerySpec(
      "tenant=acme,agg=sum,window=5000,add=4,rm=12");
  ASSERT_TRUE(keyed.ok());
  EXPECT_EQ(keyed->tenant, "acme");
  EXPECT_EQ(keyed->add_pane, 4u);
  EXPECT_EQ(keyed->remove_pane, 12u);

  EXPECT_FALSE(ParseQuerySpec("").ok());
  EXPECT_FALSE(ParseQuerySpec("sum").ok());
  EXPECT_FALSE(ParseQuerySpec("frobnicate:1000").ok());
  EXPECT_FALSE(ParseQuerySpec("tenant=acme,agg=sum").ok());  // no window
  EXPECT_FALSE(ParseQuerySpec("agg=quantile,window=1000,q=2.0").ok());

  auto list = ParseQueryList("sum:1000;max:500");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 2u);
  EXPECT_FALSE(ParseQueryList(";;").ok());
}

TEST(QuerySpecTest, CanonicalSpecRoundTrips) {
  auto parsed = ParseQuerySpec("tenant=t1,agg=avg,window=800,slide=200");
  ASSERT_TRUE(parsed.ok());
  QueryRegistry registry;
  ASSERT_TRUE(registry.Add(MakeQuery(AggregateKind::kSum, 800)).ok());
  ASSERT_TRUE(registry.Add(*parsed).ok());
  const std::string canonical = registry.queries()[1].spec;
  auto reparsed = ParseQuerySpec(canonical);
  ASSERT_TRUE(reparsed.ok()) << canonical;
  EXPECT_EQ(reparsed->tenant, parsed->tenant);
  EXPECT_EQ(reparsed->query.window.length, parsed->query.window.length);
  EXPECT_EQ(reparsed->query.window.slide, parsed->query.window.slide);
  EXPECT_EQ(reparsed->query.aggregate, parsed->query.aggregate);
}

TEST(SlotScheduleTest, ActivateRetireAndReopen) {
  SlotSchedule schedule;
  schedule.Reset(3);
  // Slot 0 is always active.
  EXPECT_TRUE(schedule.ActiveAt(0, 0));
  EXPECT_TRUE(schedule.ActiveAt(0, 1'000'000));
  // Other slots start inactive.
  EXPECT_FALSE(schedule.ActiveAt(1, 0));

  schedule.Activate(1, 5);
  EXPECT_FALSE(schedule.ActiveAt(1, 4));
  EXPECT_TRUE(schedule.ActiveAt(1, 5));
  schedule.Retire(1, 9);
  EXPECT_TRUE(schedule.ActiveAt(1, 8));
  EXPECT_FALSE(schedule.ActiveAt(1, 9));
  // A later add re-opens a second interval on the same slot.
  schedule.Activate(1, 20);
  EXPECT_FALSE(schedule.ActiveAt(1, 19));
  EXPECT_TRUE(schedule.ActiveAt(1, 20));
  EXPECT_TRUE(schedule.ActiveAt(1, 8));  // history is preserved
}

TEST(SlotScheduleTest, SnapshotCodecRoundTrips) {
  SlotSchedule schedule;
  schedule.Reset(4);
  schedule.Activate(1, 3);
  schedule.Retire(1, 7);
  schedule.Activate(2, 10);
  ServeSnapshot snapshot;
  snapshot.pane_length = 2500;
  snapshot.schedule.CopyFrom(schedule);

  BinaryWriter writer;
  EncodeServeSnapshot(snapshot, &writer);
  BinaryReader reader(writer.buffer());
  auto decoded = DecodeServeSnapshot(&reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->pane_length, 2500u);
  ASSERT_EQ(decoded->schedule.num_slots(), 4u);
  for (uint64_t pane : {0, 2, 3, 6, 7, 9, 10, 11}) {
    for (uint16_t slot = 0; slot < 4; ++slot) {
      EXPECT_EQ(decoded->schedule.ActiveAt(slot, pane),
                schedule.ActiveAt(slot, pane))
          << "slot " << slot << " pane " << pane;
    }
  }
}

TEST(SlotScheduleTest, HugeSlotCountIsRejectedNotAllocated) {
  BinaryWriter writer;
  writer.PutU32(0xFFFFFFFFu);  // slot count, nothing behind it
  const std::string buf = writer.Release();
  BinaryReader reader(buf);
  EXPECT_TRUE(SlotSchedule::Decode(&reader).status().IsOutOfRange());
}

TEST(SlotScheduleTest, HugeIntervalCountIsRejectedNotAllocated) {
  BinaryWriter writer;
  writer.PutU32(1);
  writer.PutU32(0xFFFFFFFFu);  // the slot's interval count, nothing behind it
  const std::string buf = writer.Release();
  BinaryReader reader(buf);
  EXPECT_TRUE(SlotSchedule::Decode(&reader).status().IsOutOfRange());
}

// --- End-to-end sim runs -------------------------------------------------

ExperimentConfig BaseConfig(Scheme scheme) {
  ExperimentConfig config;
  config.scheme = scheme;
  config.sim = true;
  config.num_locals = 3;
  config.streams_per_local = 2;
  config.events_per_local = 60'000;
  config.base_rate = 100'000.0;
  config.rate_change = 0.05;
  config.batch_size = 512;
  config.seed = 99;
  config.sim_time_limit_nanos = 120 * kNanosPerSecond;
  return config;
}

void CheckQueryAgainstOracle(const ExperimentConfig& config,
                             const RunReport& report,
                             const QueryRunResult& qr,
                             const QueryConfig& query) {
  SCOPED_TRACE("query " + std::to_string(qr.query_id) + " [" + qr.spec +
               "]");
  auto oracle = ComputeQueryOracle(config, query,
                                   report.serving.pane_length,
                                   qr.start_pane, qr.end_pane);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_EQ(qr.windows.size(), oracle->size());
  for (size_t i = 0; i < qr.windows.size(); ++i) {
    EXPECT_EQ(qr.windows[i].event_count, (*oracle)[i].event_count)
        << "window " << i;
    EXPECT_EQ(qr.windows[i].end_ts, (*oracle)[i].end_ts) << "window " << i;
    EXPECT_NEAR(qr.windows[i].value, (*oracle)[i].value,
                RelTolerance((*oracle)[i].value))
        << "window " << i;
  }
}

TEST(ServeIntegrationTest, MultiQueryMatchesPerQueryOracle) {
  for (Scheme scheme :
       {Scheme::kDecoMon, Scheme::kDecoSync, Scheme::kDecoAsync}) {
    SCOPED_TRACE(SchemeToString(scheme));
    ExperimentConfig config = BaseConfig(scheme);
    config.serve.queries.push_back(MakeQuery(AggregateKind::kSum, 20'000));
    config.serve.queries.push_back(
        MakeQuery(AggregateKind::kMax, 10'000, "b"));
    config.serve.queries.push_back(
        MakeQuery(AggregateKind::kAvg, 20'000, "b"));

    auto result = RunExperiment(config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const RunReport& report = *result;
    EXPECT_TRUE(report.serving.enabled);
    EXPECT_EQ(report.serving.pane_length, 10'000u);
    EXPECT_EQ(report.serving.queries, 3u);
    EXPECT_EQ(report.serving.slots, 3u);
    ASSERT_EQ(report.query_results.size(), 3u);

    // The primary's windows also populate the legacy report surface.
    ASSERT_EQ(report.windows.size(), report.query_results[0].windows.size());
    for (size_t i = 0; i < report.windows.size(); ++i) {
      EXPECT_EQ(report.windows[i].value,
                report.query_results[0].windows[i].value);
    }
    for (size_t qi = 0; qi < 3; ++qi) {
      CheckQueryAgainstOracle(config, report, report.query_results[qi],
                              config.serve.queries[qi].query);
    }

    // Per-tenant accounting: tenant "b" owns two of the three slots, so it
    // must carry more aggregate work than "default".
    ASSERT_EQ(report.serving.tenants.size(), 2u);
    EXPECT_EQ(report.serving.tenants[0].tenant, "default");
    EXPECT_EQ(report.serving.tenants[1].tenant, "b");
    EXPECT_GT(report.serving.tenants[0].agg_ops, 0u);
    EXPECT_GT(report.serving.tenants[1].agg_ops,
              report.serving.tenants[0].agg_ops);
    EXPECT_GT(report.serving.tenants[1].bytes,
              report.serving.tenants[0].bytes);
  }
}

TEST(ServeIntegrationTest, SlidingCoQueryMatchesOracle) {
  ExperimentConfig config = BaseConfig(Scheme::kDecoSync);
  config.serve.queries.push_back(MakeQuery(AggregateKind::kSum, 20'000));
  ServedQuery sliding = MakeQuery(AggregateKind::kSum, 20'000, "b");
  sliding.query.window = WindowSpec::CountSliding(20'000, 10'000);
  config.serve.queries.push_back(sliding);

  auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->query_results.size(), 2u);
  EXPECT_EQ(result->serving.pane_length, 10'000u);
  for (size_t qi = 0; qi < 2; ++qi) {
    CheckQueryAgainstOracle(config, *result, result->query_results[qi],
                            config.serve.queries[qi].query);
  }
  // The sliding co-query emits ~2x the tumbling primary's windows.
  EXPECT_GT(result->query_results[1].windows.size(),
            result->query_results[0].windows.size());
}

TEST(ServeIntegrationTest, RuntimeAddRemoveConvergesToOracle) {
  for (Scheme scheme :
       {Scheme::kDecoMon, Scheme::kDecoSync, Scheme::kDecoAsync}) {
    SCOPED_TRACE(SchemeToString(scheme));
    ExperimentConfig config = BaseConfig(scheme);
    config.events_per_local = 200'000;  // ~30 panes of 20k at 3 locals
    config.serve.queries.push_back(MakeQuery(AggregateKind::kSum, 20'000));
    ServedQuery scheduled = MakeQuery(AggregateKind::kMax, 20'000, "b");
    scheduled.add_pane = 3;
    scheduled.remove_pane = 12;
    config.serve.queries.push_back(scheduled);

    auto result = RunExperiment(config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->query_results.size(), 2u);
    const QueryRunResult& qr = result->query_results[1];
    // The root activates at or after the requested pane (its effective
    // pane must clear every local's planning horizon) and records the
    // panes it actually used.
    EXPECT_TRUE(qr.activated);
    EXPECT_GE(qr.start_pane, 3u);
    EXPECT_GE(qr.end_pane, 12u);
    EXPECT_NE(qr.end_pane, kServePaneNever);
    EXPECT_GT(qr.windows.size(), 0u);
    CheckQueryAgainstOracle(config, *result, qr, scheduled.query);
    CheckQueryAgainstOracle(config, *result, result->query_results[0],
                            config.serve.queries[0].query);
  }
}

TEST(ServeIntegrationTest, SixtyFourQueriesAreDeterministic) {
  static const AggregateKind kAggs[] = {
      AggregateKind::kSum, AggregateKind::kCount, AggregateKind::kMin,
      AggregateKind::kMax, AggregateKind::kAvg};
  auto make_config = [&] {
    ExperimentConfig config = BaseConfig(Scheme::kDecoAsync);
    config.num_locals = 2;
    config.events_per_local = 50'000;  // 10 panes of 10k
    for (size_t i = 0; i < 64; ++i) {
      config.serve.queries.push_back(
          MakeQuery(kAggs[i % 5], 10'000, "t" + std::to_string(i % 4)));
    }
    return config;
  };

  const ExperimentConfig config = make_config();
  auto first = RunExperiment(config);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = RunExperiment(make_config());
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  EXPECT_EQ(first->serving.queries, 64u);
  EXPECT_EQ(first->serving.slots, 5u);
  ASSERT_EQ(first->query_results.size(), 64u);
  for (const QueryRunResult& qr : first->query_results) {
    EXPECT_GT(qr.windows.size(), 0u) << "query " << qr.query_id;
  }
  // Byte-identical replay from (config, seed): report JSON and the
  // fabric's delivery-order witness both match.
  EXPECT_EQ(first->delivery_hash, second->delivery_hash);
  EXPECT_EQ(RunReportJson(*first), RunReportJson(*second));

  // Queries sharing (aggregate, window) must agree window-for-window —
  // one slot computed once, fanned out to every subscriber.
  const QueryRunResult& a = first->query_results[0];
  const QueryRunResult& b = first->query_results[5];  // same agg cycle slot
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_EQ(a.windows[i].value, b.windows[i].value);
  }
}

TEST(ServeIntegrationTest, HarnessAdmissionRejectsLoudly) {
  ExperimentConfig config = BaseConfig(Scheme::kDecoSync);
  config.serve.admission.max_queries = 2;
  config.serve.queries.push_back(MakeQuery(AggregateKind::kSum, 20'000));
  config.serve.queries.push_back(MakeQuery(AggregateKind::kMax, 20'000));
  config.serve.queries.push_back(MakeQuery(AggregateKind::kMin, 20'000));
  EXPECT_TRUE(RunExperiment(config).status().IsResourceExhausted());

  config.serve.queries.pop_back();
  config.serve.admission.max_extra_bytes_per_event = 1e-9;
  EXPECT_TRUE(RunExperiment(config).status().IsResourceExhausted());
}

TEST(ServeIntegrationTest, RuntimeScheduleRequiresRootCoordinatedDeco) {
  ExperimentConfig config = BaseConfig(Scheme::kCentral);
  config.serve.queries.push_back(MakeQuery(AggregateKind::kSum, 20'000));
  ServedQuery scheduled = MakeQuery(AggregateKind::kMax, 20'000);
  scheduled.add_pane = 3;
  config.serve.queries.push_back(scheduled);
  EXPECT_TRUE(RunExperiment(config).status().IsNotSupported());
  config.scheme = Scheme::kDecoMonLocal;
  EXPECT_TRUE(RunExperiment(config).status().IsNotSupported());
}

TEST(ServeIntegrationTest, BaselineFallbackMatchesOracle) {
  for (Scheme scheme : {Scheme::kCentral, Scheme::kScotty}) {
    SCOPED_TRACE(SchemeToString(scheme));
    ExperimentConfig config = BaseConfig(scheme);
    config.serve.queries.push_back(MakeQuery(AggregateKind::kSum, 20'000));
    config.serve.queries.push_back(
        MakeQuery(AggregateKind::kMax, 10'000, "b"));

    auto result = RunExperiment(config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->serving.enabled);
    ASSERT_EQ(result->query_results.size(), 2u);
    // The fallback runs the full stream once per query; each sub-run's
    // windows must still match the per-query oracle (pane = the query's
    // own protocol window in a single-query sub-run, but the composed
    // oracle at the shared pane gives the same windows).
    for (size_t qi = 0; qi < 2; ++qi) {
      CheckQueryAgainstOracle(config, *result, result->query_results[qi],
                              config.serve.queries[qi].query);
    }
    // Summed cost: serving two queries by re-running the stream costs the
    // baseline roughly twice one run's bytes.
    ExperimentConfig single = config;
    single.serve.queries.clear();
    single.query = config.serve.queries[0].query;
    auto single_run = RunExperiment(single);
    ASSERT_TRUE(single_run.ok());
    EXPECT_GT(result->network.total_bytes,
              3 * single_run->network.total_bytes / 2);
  }
}

TEST(ServeIntegrationTest, MarginalCostOfCoQueriesIsSmall) {
  // The acceptance property behind bench/qps_marginal_cost: for a Deco
  // scheme, co-queries reuse the primary's stream pass and add only a
  // per-pane slot partial, so the marginal bytes/event of each co-query
  // must be well under 20% of the single-query cost.
  ExperimentConfig config = BaseConfig(Scheme::kDecoSync);
  config.query.window = WindowSpec::CountTumbling(10'000);
  auto single = RunExperiment(config);
  ASSERT_TRUE(single.ok()) << single.status().ToString();

  static const AggregateKind kAggs[] = {
      AggregateKind::kSum, AggregateKind::kCount, AggregateKind::kMin,
      AggregateKind::kMax, AggregateKind::kAvg};
  config.serve.queries.push_back(
      MakeQuery(AggregateKind::kSum, config.query.window.length));
  for (size_t i = 1; i < 16; ++i) {
    config.serve.queries.push_back(MakeQuery(
        kAggs[i % 5], config.query.window.length, "t" + std::to_string(i % 4)));
  }
  auto served = RunExperiment(config);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served->query_results.size(), 16u);

  const double single_bpe = single->BytesPerEvent();
  const double marginal_bpe =
      (served->BytesPerEvent() - single_bpe) / 15.0;
  EXPECT_LT(marginal_bpe, 0.2 * single_bpe)
      << "single=" << single_bpe << " served=" << served->BytesPerEvent();
}

}  // namespace
}  // namespace deco
