#include <gtest/gtest.h>

#include "harness/experiment.h"

namespace deco {
namespace {

// Unit-level coverage of the experiment harness configuration (the
// end-to-end behaviour is covered by integration_test).

TEST(HarnessConfigTest, DefaultsValidate) {
  ExperimentConfig config;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(HarnessConfigTest, IngestDerivation) {
  ExperimentConfig config;
  config.num_locals = 4;
  config.streams_per_local = 3;
  config.events_per_local = 123'456;
  config.base_rate = 90'000.0;
  config.rate_change = 0.07;
  config.batch_size = 777;
  config.cpu_events_per_sec = 55;

  const IngestConfig ingest = MakeIngestConfig(config, 2);
  EXPECT_EQ(ingest.events_to_produce, 123'456u);
  EXPECT_EQ(ingest.batch_size, 777u);
  EXPECT_EQ(ingest.cpu_events_per_sec, 55u);
  ASSERT_EQ(ingest.streams.size(), 3u);
  double total_rate = 0.0;
  for (const StreamConfig& stream : ingest.streams) {
    EXPECT_DOUBLE_EQ(stream.rate.change_fraction, 0.07);
    total_rate += stream.rate.base_rate;
  }
  EXPECT_NEAR(total_rate, 90'000.0, 1e-6);
}

TEST(HarnessConfigTest, StreamIdsAreGloballyUnique) {
  ExperimentConfig config;
  config.num_locals = 3;
  config.streams_per_local = 4;
  std::set<StreamId> ids;
  for (size_t ordinal = 0; ordinal < config.num_locals; ++ordinal) {
    for (const StreamConfig& stream :
         MakeIngestConfig(config, ordinal).streams) {
      EXPECT_TRUE(ids.insert(stream.stream_id).second)
          << "duplicate stream id " << stream.stream_id;
    }
  }
  EXPECT_EQ(ids.size(), 12u);
}

TEST(HarnessConfigTest, RateSkewSpreadsNodeRates) {
  ExperimentConfig config;
  config.base_rate = 100'000.0;
  config.rate_skew = 0.25;
  auto node_rate = [&](size_t ordinal) {
    double total = 0.0;
    for (const StreamConfig& s : MakeIngestConfig(config, ordinal).streams) {
      total += s.rate.base_rate;
    }
    return total;
  };
  EXPECT_NEAR(node_rate(0), 100'000.0, 1e-6);
  EXPECT_NEAR(node_rate(1), 125'000.0, 1e-6);
  EXPECT_NEAR(node_rate(3), 175'000.0, 1e-6);
}

TEST(HarnessConfigTest, SeedsDifferAcrossStreams) {
  ExperimentConfig config;
  config.num_locals = 2;
  config.streams_per_local = 2;
  std::set<uint64_t> seeds;
  for (size_t ordinal = 0; ordinal < 2; ++ordinal) {
    for (const StreamConfig& s : MakeIngestConfig(config, ordinal).streams) {
      EXPECT_TRUE(seeds.insert(s.seed).second);
    }
  }
}

TEST(HarnessConfigTest, ValidationRejections) {
  ExperimentConfig config;
  config.streams_per_local = 0;
  EXPECT_TRUE(RunExperiment(config).status().IsInvalidArgument());

  config = ExperimentConfig();
  config.events_per_local = 0;
  EXPECT_TRUE(RunExperiment(config).status().IsInvalidArgument());

  config = ExperimentConfig();
  config.batch_size = 0;
  EXPECT_TRUE(RunExperiment(config).status().IsInvalidArgument());

  config = ExperimentConfig();
  config.rate_change = -1.0;
  EXPECT_TRUE(RunExperiment(config).status().IsInvalidArgument());
}

TEST(HarnessConfigTest, ProtocolWindowLengthForSliding) {
  EXPECT_EQ(ProtocolWindowLength(WindowSpec::CountTumbling(1000)), 1000u);
  EXPECT_EQ(ProtocolWindowLength(WindowSpec::CountSliding(1000, 250)),
            250u);
  EXPECT_EQ(ProtocolWindowLength(WindowSpec::CountSliding(900, 600)), 300u);
}

TEST(HarnessConfigTest, ProtocolWindowLengthCoprimeSlide) {
  // Coprime length/slide: the only common pane is a single event. Legal
  // but degenerate — every event is its own protocol window.
  EXPECT_EQ(ProtocolWindowLength(WindowSpec::CountSliding(1000, 333)), 1u);
  EXPECT_EQ(ProtocolWindowLength(WindowSpec::CountSliding(7, 5)), 1u);
}

TEST(HarnessConfigTest, ProtocolWindowLengthSlideEqualsLength) {
  // slide == length is semantically tumbling; the pane decomposition must
  // agree with the tumbling spec of the same length.
  EXPECT_EQ(ProtocolWindowLength(WindowSpec::CountSliding(500, 500)), 500u);
  EXPECT_EQ(ProtocolWindowLength(WindowSpec::CountSliding(500, 500)),
            ProtocolWindowLength(WindowSpec::CountTumbling(500)));
}

TEST(HarnessConfigTest, ProtocolWindowLengthSlideLargerThanLength) {
  // slide > length (sampling windows with gaps): gcd still divides both,
  // so pane boundaries align with every window start *and* end. Built via
  // direct field assignment — WindowSpec::CountSliding's factory contract
  // is slide <= length, but the protocol math must stay total.
  WindowSpec spec = WindowSpec::CountTumbling(400);
  spec.type = WindowType::kSliding;
  spec.slide = 1000;
  EXPECT_EQ(ProtocolWindowLength(spec), 200u);
  spec.slide = 400 * 3;
  EXPECT_EQ(ProtocolWindowLength(spec), 400u);
}

TEST(HarnessConfigTest, MultiQueryPaneIsGcdOfProtocolLengths) {
  // The registry's shared pane composes per-query protocol lengths by gcd:
  // tumbling 600 (pane 600), sliding 400/300 (pane 100) -> shared 100;
  // adding tumbling 450 (pane 450) drops the gcd to 50.
  QueryRegistry registry;
  ServedQuery a;
  a.query.window = WindowSpec::CountTumbling(600);
  ASSERT_TRUE(registry.Add(a).ok());
  EXPECT_EQ(registry.PaneLength(), 600u);

  ServedQuery b;
  b.query.window = WindowSpec::CountSliding(400, 300);
  ASSERT_TRUE(registry.Add(b).ok());
  EXPECT_EQ(registry.PaneLength(), 100u);

  ServedQuery c;
  c.query.window = WindowSpec::CountTumbling(450);
  ASSERT_TRUE(registry.Add(c).ok());
  EXPECT_EQ(registry.PaneLength(), 50u);
}

TEST(HarnessConfigTest, DecentralizedClassification) {
  EXPECT_FALSE(IsDecentralized(Scheme::kCentral));
  EXPECT_FALSE(IsDecentralized(Scheme::kScotty));
  EXPECT_FALSE(IsDecentralized(Scheme::kDisco));
  EXPECT_TRUE(IsDecentralized(Scheme::kApprox));
  EXPECT_TRUE(IsDecentralized(Scheme::kDecoAsync));
}

}  // namespace
}  // namespace deco
