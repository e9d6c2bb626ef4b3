#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iterator>
#include <memory>
#include <thread>

#include "common/clock.h"
#include "harness/experiment.h"
#include "node/ingest.h"
#include "node/stream_set.h"
#include "stream/generator.h"
#include "stream/rate_model.h"

namespace deco {
namespace {

StreamConfig BasicStream(StreamId id, double rate, double change,
                         uint64_t seed = 42) {
  StreamConfig config;
  config.stream_id = id;
  config.rate.base_rate = rate;
  config.rate.change_fraction = change;
  config.rate.epoch_events = 100;
  config.seed = seed;
  return config;
}

// -------------------------------------------------------------- RateModel

TEST(RateModelTest, ValidatesConfig) {
  RateModelConfig bad;
  bad.base_rate = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad.base_rate = 10;
  bad.change_fraction = -0.1;
  EXPECT_FALSE(bad.Validate().ok());
  bad.change_fraction = 0.1;
  bad.epoch_events = 0;
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(RateModelTest, ConstantRateGivesConstantGaps) {
  RateModelConfig config;
  config.base_rate = 1000;  // 1ms gaps
  config.change_fraction = 0.0;
  RateModel model(config, 1);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(model.NextGapNanos(), kNanosPerMilli);
  }
}

TEST(RateModelTest, RateStaysWithinChangeBounds) {
  RateModelConfig config;
  config.base_rate = 100;
  config.change_fraction = 0.05;  // the paper's "95 to 105 events/s" example
  config.epoch_events = 10;
  RateModel model(config, 7);
  for (int i = 0; i < 2000; ++i) {
    model.NextGapNanos();
    EXPECT_GE(model.current_rate(), 95.0);
    EXPECT_LE(model.current_rate(), 105.0);
  }
}

TEST(RateModelTest, RateChangesAcrossEpochs) {
  RateModelConfig config;
  config.base_rate = 100;
  config.change_fraction = 0.5;
  config.epoch_events = 10;
  RateModel model(config, 7);
  std::vector<double> rates;
  for (int i = 0; i < 100; ++i) {
    model.NextGapNanos();
    rates.push_back(model.current_rate());
  }
  // At least two distinct instantaneous rates must have been observed.
  std::sort(rates.begin(), rates.end());
  EXPECT_GT(rates.back() - rates.front(), 1.0);
}

TEST(RateModelTest, DeterministicForSeed) {
  RateModelConfig config;
  config.base_rate = 500;
  config.change_fraction = 0.2;
  config.epoch_events = 5;
  RateModel a(config, 3), b(config, 3);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.NextGapNanos(), b.NextGapNanos());
  }
}

TEST(RateModelTest, ExtremeChangeNeverStallsTime) {
  RateModelConfig config;
  config.base_rate = 100;
  config.change_fraction = 1.0;  // rates can approach zero
  config.epoch_events = 3;
  RateModel model(config, 13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(model.NextGapNanos(), 0);
  }
}

// ------------------------------------------------------------ StreamSource

TEST(StreamSourceTest, IdsSequentialTimestampsMonotonic) {
  StreamSource source(BasicStream(3, 1000, 0.1));
  EventTime last_ts = -1;
  for (EventId i = 0; i < 1000; ++i) {
    const Event e = source.Next();
    EXPECT_EQ(e.id, i);
    EXPECT_EQ(e.stream_id, 3u);
    EXPECT_GT(e.timestamp, last_ts);
    last_ts = e.timestamp;
  }
  EXPECT_EQ(source.emitted(), 1000u);
  EXPECT_EQ(source.last_timestamp(), last_ts);
}

TEST(StreamSourceTest, DeterministicReplay) {
  StreamSource a(BasicStream(0, 500, 0.3, 11));
  StreamSource b(BasicStream(0, 500, 0.3, 11));
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(StreamSourceTest, BlockMatchesSingles) {
  StreamConfig config = BasicStream(0, 500, 0.5, 5);
  config.rate.epoch_events = 7;
  StreamSource a(config);
  StreamSource b(config);
  EventVec block(64);
  std::vector<double> rates(64);
  a.NextBlock(64, block.data(), rates.data());
  for (size_t i = 0; i < block.size(); ++i) {
    EXPECT_EQ(block[i], b.Next());
    EXPECT_EQ(rates[i], b.current_rate());
  }
}

TEST(StreamSourceTest, ValuesFollowBoundedTrajectory) {
  StreamConfig config = BasicStream(0, 1000, 0.0);
  config.value.amplitude = 10.0;
  config.value.noise_stddev = 0.1;
  StreamSource source(config);
  for (int i = 0; i < 5000; ++i) {
    const Event e = source.Next();
    EXPECT_LT(std::abs(e.value), 12.0);  // amplitude + generous noise room
  }
}

TEST(StreamSourceTest, MeanRateApproximatesConfig) {
  StreamSource source(BasicStream(0, 1000, 0.05));
  const int kEvents = 20'000;
  EventTime first = 0, last = 0;
  for (int i = 0; i < kEvents; ++i) {
    const Event e = source.Next();
    if (i == 0) first = e.timestamp;
    last = e.timestamp;
  }
  const double seconds = static_cast<double>(last - first) / kNanosPerSecond;
  const double measured = (kEvents - 1) / seconds;
  EXPECT_NEAR(measured, 1000.0, 30.0);
}

// --------------------------------------------------------------- StreamSet

TEST(StreamSetTest, MergesInGlobalOrder) {
  std::vector<StreamConfig> configs;
  configs.push_back(BasicStream(0, 900, 0.2, 1));
  configs.push_back(BasicStream(1, 1100, 0.2, 2));
  configs.push_back(BasicStream(2, 500, 0.2, 3));
  StreamSet set(configs);
  EXPECT_EQ(set.stream_count(), 3u);
  EventTimestampLess less;
  Event prev = set.Next();
  for (int i = 1; i < 5000; ++i) {
    const Event e = set.Next();
    EXPECT_FALSE(less(e, prev)) << "merge order violated at " << i;
    prev = e;
  }
  EXPECT_EQ(set.position(), 5000u);
}

TEST(StreamSetTest, TotalRateSumsStreams) {
  std::vector<StreamConfig> configs;
  configs.push_back(BasicStream(0, 300, 0.0));
  configs.push_back(BasicStream(1, 700, 0.0));
  StreamSet set(configs);
  EXPECT_NEAR(set.TotalRate(), 1000.0, 1e-9);
}

TEST(StreamSetTest, AllStreamsRepresented) {
  std::vector<StreamConfig> configs;
  for (StreamId s = 0; s < 4; ++s) {
    configs.push_back(BasicStream(s, 1000, 0.0, s + 1));
  }
  StreamSet set(configs);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 4000; ++i) ++counts[set.Next().stream_id];
  for (int c : counts) EXPECT_NEAR(c, 1000, 50);
}

// Folds 250k merged events (id, stream, timestamp, value bits) and the bit
// pattern of the reported rate after every chunk into one 64-bit digest,
// and counts events that share the previous event's timestamp. The chunks
// are uneven so block refills land at every offset. `pull(want, &out)`
// appends up to `want` events and returns how many it appended.
struct MergeDigest {
  uint64_t digest = 0;
  size_t timestamp_ties = 0;
};

constexpr size_t kDigestEvents = 250'000;

template <typename Pull, typename Rate>
MergeDigest FoldDigest(Pull pull, Rate rate) {
  constexpr size_t kChunks[] = {1, 7, 4096, 33'333, 1, 3, 1000, 65'536, 13};
  uint64_t h = 0xcbf29ce484222325ULL;
  auto fold = [&h](uint64_t word) {
    h = (h ^ word) * 0x100000001b3ULL;
    h ^= h >> 29;
  };
  auto bits = [](double v) {
    uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
  };
  EventVec out;
  size_t done = 0;
  size_t ties = 0;
  EventTime last_ts = -1;
  for (size_t c = 0; done < kDigestEvents; ++c) {
    out.clear();
    const size_t n = pull(kChunks[c % std::size(kChunks)], &out);
    EXPECT_GT(n, 0u);
    if (n == 0) break;
    for (const Event& e : out) {
      if (e.timestamp == last_ts) ++ties;
      last_ts = e.timestamp;
      fold(e.id);
      fold(e.stream_id);
      fold(static_cast<uint64_t>(e.timestamp));
      fold(bits(e.value));
    }
    fold(bits(rate()));
    done += n;
  }
  EXPECT_EQ(done, kDigestEvents);
  return MergeDigest{h, ties};
}

// The digest straight off a `StreamSet`: size-1 chunks go through `Next`,
// the rest through `NextBatch`.
MergeDigest StreamSetDigest(const std::vector<StreamConfig>& configs) {
  StreamSet set(configs);
  const MergeDigest merged = FoldDigest(
      [&set](size_t want, EventVec* out) {
        const size_t n = std::min<uint64_t>(want, kDigestEvents -
                                                      set.position());
        if (n == 1) {
          out->push_back(set.Next());
        } else {
          set.NextBatch(n, out);
        }
        return n;
      },
      [&set] { return set.TotalRate(); });
  EXPECT_EQ(set.position(), kDigestEvents);
  return merged;
}

// The same digest pulled through an `IngestSource` whose budget is exactly
// the digest's length, so the last pull comes back short.
MergeDigest IngestSourceDigest(const std::vector<StreamConfig>& configs) {
  IngestConfig config;
  config.streams = configs;
  config.events_to_produce = kDigestEvents;
  IngestSource source(config, SystemClock::Default());
  TimeNanos created = 0;
  const MergeDigest merged = FoldDigest(
      [&](size_t want, EventVec* out) {
        return source.Pull(want, out, &created);
      },
      [&source] { return source.TotalRate(); });
  EventVec out;
  EXPECT_EQ(source.Pull(1, &out, &created), 0u);
  EXPECT_TRUE(source.exhausted());
  EXPECT_EQ(source.position(), kDigestEvents);
  return merged;
}

ExperimentConfig PaperAsyncLocals() {
  ExperimentConfig paper;
  paper.num_locals = 3;
  paper.streams_per_local = 4;
  paper.base_rate = 1'000'000.0;
  paper.query.window = WindowSpec::CountTumbling(100'000);
  paper.seed = 7001;
  return paper;
}

// One stream whose rate is redrawn on every event.
StreamConfig RedrawEveryEvent() {
  StreamConfig single = BasicStream(0, 1000, 1.0, 99);
  single.rate.epoch_events = 1;
  return single;
}

// Eight streams at distinct, nanosecond-scale gaps: timestamps collide
// across streams, so the (timestamp, stream, id) tie-break is pinned.
std::vector<StreamConfig> EightCollidingStreams() {
  std::vector<StreamConfig> eight;
  for (StreamId s = 0; s < 8; ++s) {
    StreamConfig config = BasicStream(s, 1e8 + 2.5e7 * s, 0.5, 1000 + s);
    config.rate.epoch_events = 3;
    eight.push_back(config);
  }
  return eight;
}

constexpr uint64_t kPaperDigest = 0x828ff1aed4196e5dULL;
constexpr uint64_t kRedrawDigest = 0xfa2ac5629b79297eULL;
constexpr uint64_t kEightDigest = 0x727f46178794eb75ULL;

// Pins the merged generator output and the reported rate bit for bit, so
// a faster generator or merge cannot drift from the sequence every
// recorded run, oracle and baseline was produced with.
TEST(StreamSetTest, GoldenDigestsPinOutputAndTotalRate) {
  // Local 1 of perfbench's paper-async workload: 4 streams, 1% change.
  EXPECT_EQ(StreamSetDigest(MakeIngestConfig(PaperAsyncLocals(), 1).streams)
                .digest,
            kPaperDigest);
  EXPECT_EQ(StreamSetDigest({RedrawEveryEvent()}).digest, kRedrawDigest);
  const MergeDigest merged = StreamSetDigest(EightCollidingStreams());
  EXPECT_EQ(merged.digest, kEightDigest);
  EXPECT_GT(merged.timestamp_ties, 10'000u);
}

// ------------------------------------------------------------ IngestSource

TEST(IngestSourceTest, RespectsEventBudget) {
  IngestConfig config;
  config.streams.push_back(BasicStream(0, 1000, 0.0));
  config.events_to_produce = 1000;
  config.batch_size = 300;
  IngestSource source(config, SystemClock::Default());

  EventVec out;
  TimeNanos create = 0;
  uint64_t total = 0;
  while (true) {
    out.clear();
    const size_t pulled = source.Pull(300, &out, &create);
    if (pulled == 0) break;
    total += pulled;
    EXPECT_GT(create, 0);
  }
  EXPECT_EQ(total, 1000u);
  EXPECT_TRUE(source.exhausted());
  EXPECT_EQ(source.position(), 1000u);
}

TEST(IngestSourceTest, LastPullIsShort) {
  IngestConfig config;
  config.streams.push_back(BasicStream(0, 1000, 0.0));
  config.events_to_produce = 250;
  IngestSource source(config, SystemClock::Default());
  EventVec out;
  TimeNanos create = 0;
  EXPECT_EQ(source.Pull(200, &out, &create), 200u);
  EXPECT_EQ(source.Pull(200, &out, &create), 50u);
  EXPECT_EQ(source.Pull(200, &out, &create), 0u);
}

TEST(IngestSourceTest, CpuThrottleLimitsRate) {
  IngestConfig config;
  config.streams.push_back(BasicStream(0, 1e9, 0.0));
  config.events_to_produce = 30'000;
  config.cpu_events_per_sec = 20'000;  // weak device
  IngestSource source(config, SystemClock::Default());
  EventVec out;
  TimeNanos create = 0;
  // Drain the initial token-bucket burst (one second's allowance)...
  size_t pulled = source.Pull(20'000, &out, &create);
  ASSERT_EQ(pulled, 20'000u);
  // ...then pulling 10k more events must take about 0.5 s of wall time.
  const TimeNanos start = SystemClock::Default()->NowNanos();
  out.clear();
  pulled = source.Pull(10'000, &out, &create);
  const TimeNanos elapsed = SystemClock::Default()->NowNanos() - start;
  EXPECT_EQ(pulled, 10'000u);
  EXPECT_GT(elapsed, 300 * kNanosPerMilli);
}

// The ingest front end reports exactly what the generator produced: the
// same events in the same order, and after every pull the rate the
// generator reports at that stream position. The uneven pulls straddle
// any internal buffering, and the last one is cut short by the budget.
TEST(IngestSourceTest, GoldenDigestsMatchTheGenerator) {
  EXPECT_EQ(
      IngestSourceDigest(MakeIngestConfig(PaperAsyncLocals(), 1).streams)
          .digest,
      kPaperDigest);
  EXPECT_EQ(IngestSourceDigest({RedrawEveryEvent()}).digest, kRedrawDigest);
  EXPECT_EQ(IngestSourceDigest(EightCollidingStreams()).digest, kEightDigest);
}

// Local 1 of paper-async with the digest's budget and a 256-event batch:
// 64-event chunks, one batch of run-ahead at first and at most
// `kMaxRunAheadBatches` batches.
IngestConfig SmallChunkPaperLocal() {
  IngestConfig config;
  config.streams = MakeIngestConfig(PaperAsyncLocals(), 1).streams;
  config.events_to_produce = kDigestEvents;
  config.batch_size = 256;
  return config;
}

constexpr size_t kSmallChunk = 256 / IngestSource::kBatchChunks;
constexpr size_t kSmallCap =
    IngestSource::kMaxRunAheadBatches * IngestSource::kBatchChunks;

// The golden digest, each of its chunks pulled as back-to-back pulls of at
// most `piece` events after the producer had time to fill its ring and sit
// idle at its limit. Returns the most chunks the ring had allocated.
size_t PiecewiseDigest(IngestSource* source, size_t piece, uint64_t* digest) {
  size_t most = 0;
  TimeNanos created = 0;
  *digest = FoldDigest(
                [&](size_t want, EventVec* out) {
                  std::this_thread::sleep_for(std::chrono::milliseconds(5));
                  size_t got = 0;
                  while (got < want) {
                    const size_t n = source->Pull(
                        std::min(piece, want - got), out, &created);
                    if (n == 0) break;
                    got += n;
                    most = std::max(most, source->chunks_allocated());
                  }
                  return got;
                },
                [source] { return source->TotalRate(); })
                .digest;
  return most;
}

// Whole-batch pulls that find the ring empty after the producer idled
// double its run-ahead, up to the cap; the events and rates stay the
// generator's.
TEST(IngestSourceTest, RunAheadGrowsOnWholeBatchPullsUpToTheCap) {
  IngestSource source(SmallChunkPaperLocal(), SystemClock::Default());
  uint64_t digest = 0;
  const size_t most = PiecewiseDigest(&source, 256, &digest);
  EXPECT_EQ(digest, kPaperDigest);
  EXPECT_EQ(most, kSmallCap);
}

// Pulls within one chunk never grow it, however long the producer idles.
TEST(IngestSourceTest, SubChunkPullsKeepOneBatchOfRunAhead) {
  IngestSource source(SmallChunkPaperLocal(), SystemClock::Default());
  uint64_t digest = 0;
  const size_t most = PiecewiseDigest(&source, kSmallChunk - 1, &digest);
  EXPECT_EQ(digest, kPaperDigest);
  EXPECT_EQ(most, IngestSource::kBatchChunks);
}

IngestConfig LargeBudget(uint64_t seed) {
  IngestConfig config;
  for (StreamId s = 0; s < 3; ++s) {
    config.streams.push_back(BasicStream(s, 1000 + 100 * s, 0.5, seed + s));
  }
  config.events_to_produce = 10'000'000;
  config.batch_size = 512;
  return config;
}

TEST(IngestSourceTest, DestroysBeforeAnyPull) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    IngestSource source(LargeBudget(seed), SystemClock::Default());
    EXPECT_EQ(source.position(), 0u);
  }
}

TEST(IngestSourceTest, DestroysWithFullBuffer) {
  IngestSource source(LargeBudget(3), SystemClock::Default());
  EventVec out;
  TimeNanos created = 0;
  EXPECT_EQ(source.Pull(100, &out, &created), 100u);
  // Give any read-ahead time to fill up and wait for room.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

TEST(IngestSourceTest, DestroysAfterExhaustion) {
  IngestConfig config = LargeBudget(5);
  config.events_to_produce = 1000;
  IngestSource source(config, SystemClock::Default());
  EventVec out;
  TimeNanos created = 0;
  while (source.Pull(300, &out, &created) > 0) {
  }
  EXPECT_EQ(out.size(), 1000u);
  EXPECT_TRUE(source.exhausted());
}

// Two sources pulled in turn on one thread each track their own
// generator: events and the rate after every pull.
TEST(IngestSourceTest, TwoSourcesPulledAlternately) {
  const IngestConfig configs[2] = {LargeBudget(11), LargeBudget(23)};
  std::unique_ptr<IngestSource> sources[2];
  std::unique_ptr<StreamSet> truth[2];
  for (int i = 0; i < 2; ++i) {
    sources[i] =
        std::make_unique<IngestSource>(configs[i], SystemClock::Default());
    truth[i] = std::make_unique<StreamSet>(configs[i].streams);
    EXPECT_EQ(sources[i]->TotalRate(), truth[i]->TotalRate());
  }
  EventVec got;
  EventVec want;
  TimeNanos created = 0;
  for (size_t round = 0; round < 200; ++round) {
    for (int i = 0; i < 2; ++i) {
      const size_t n = 1 + (round * 37 + i * 101) % 700;
      got.clear();
      want.clear();
      ASSERT_EQ(sources[i]->Pull(n, &got, &created), n);
      truth[i]->NextBatch(n, &want);
      ASSERT_TRUE(got == want) << "source " << i << ", round " << round;
      ASSERT_EQ(sources[i]->TotalRate(), truth[i]->TotalRate());
      ASSERT_EQ(sources[i]->position(), truth[i]->position());
    }
  }
}

}  // namespace
}  // namespace deco
