#include <gtest/gtest.h>

#include <numeric>

#include "agg/aggregate.h"
#include "window/window.h"

namespace deco {
namespace {

Event MakeEvent(EventId id, double value, EventTime ts,
                StreamId stream = 0) {
  Event e;
  e.id = id;
  e.stream_id = stream;
  e.value = value;
  e.timestamp = ts;
  return e;
}

class WindowTestBase : public ::testing::Test {
 protected:
  void SetUp() override {
    func_ = std::move(MakeAggregate(AggregateKind::kSum)).value();
  }

  std::unique_ptr<Windower> MakeOk(const WindowSpec& spec) {
    auto result = MakeWindower(spec, func_.get());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  std::unique_ptr<AggregateFunction> func_;
};

// ------------------------------------------------------------ Validation

TEST(WindowSpecTest, ValidationRules) {
  EXPECT_TRUE(WindowSpec::CountTumbling(10).Validate().ok());
  EXPECT_FALSE(WindowSpec::CountTumbling(0).Validate().ok());
  EXPECT_TRUE(WindowSpec::CountSliding(10, 5).Validate().ok());
  EXPECT_FALSE(WindowSpec::CountSliding(10, 0).Validate().ok());
  EXPECT_FALSE(WindowSpec::CountSliding(10, 11).Validate().ok());
}

TEST(WindowSpecTest, FactoryRejectsNullAggregate) {
  EXPECT_FALSE(MakeWindower(WindowSpec::CountTumbling(5), nullptr).ok());
}

// -------------------------------------------------------- Count tumbling

using CountTumblingTest = WindowTestBase;

TEST_F(CountTumblingTest, EmitsEveryLEvents) {
  auto w = MakeOk(WindowSpec::CountTumbling(3));
  std::vector<WindowResult> out;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(w->Add(MakeEvent(i, 1.0, 100 + i), &out).ok());
  }
  ASSERT_EQ(out.size(), 3u);  // 10 events -> 3 complete windows of 3
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].window_index, i);
    EXPECT_EQ(out[i].event_count, 3u);
    EXPECT_DOUBLE_EQ(out[i].value, 3.0);
  }
  EXPECT_EQ(out[0].start_time, 100);
  EXPECT_EQ(out[0].end_time, 102);
  EXPECT_EQ(out[1].start_time, 103);
}

TEST_F(CountTumblingTest, IncompleteWindowIsNotEmitted) {
  auto w = MakeOk(WindowSpec::CountTumbling(5));
  std::vector<WindowResult> out;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(w->Add(MakeEvent(i, 1.0, i), &out).ok());
  }
  EXPECT_TRUE(out.empty());
}

// --------------------------------------------------------- Count sliding

using CountSlidingTest = WindowTestBase;

TEST_F(CountSlidingTest, OverlappingWindowsShareEvents) {
  auto w = MakeOk(WindowSpec::CountSliding(4, 2));
  std::vector<WindowResult> out;
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(w->Add(MakeEvent(i, i, 10 * i), &out).ok());
  }
  // Windows over values: [1..4], [3..6], [5..8]
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0].value, 1 + 2 + 3 + 4);
  EXPECT_DOUBLE_EQ(out[1].value, 3 + 4 + 5 + 6);
  EXPECT_DOUBLE_EQ(out[2].value, 5 + 6 + 7 + 8);
  EXPECT_EQ(out[1].start_time, 30);
  EXPECT_EQ(out[1].end_time, 60);
}

TEST_F(CountSlidingTest, SlideEqualLengthBehavesLikeTumbling) {
  auto sliding = MakeOk(WindowSpec::CountSliding(3, 3));
  auto tumbling = MakeOk(WindowSpec::CountTumbling(3));
  std::vector<WindowResult> out_s, out_t;
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(sliding->Add(MakeEvent(i, i * 0.5, i), &out_s).ok());
    ASSERT_TRUE(tumbling->Add(MakeEvent(i, i * 0.5, i), &out_t).ok());
  }
  ASSERT_EQ(out_s.size(), out_t.size());
  for (size_t i = 0; i < out_s.size(); ++i) {
    EXPECT_DOUBLE_EQ(out_s[i].value, out_t[i].value);
  }
}

// Property: for any (L, S), every emitted window covers exactly L events
// and consecutive windows start S events apart. Verified against a naive
// reference computation.
class CountSlidingProperty
    : public ::testing::TestWithParam<std::pair<uint64_t, uint64_t>> {};

TEST_P(CountSlidingProperty, MatchesNaiveReference) {
  const auto [length, slide] = GetParam();
  auto func = std::move(MakeAggregate(AggregateKind::kSum)).value();
  auto w = std::move(
      MakeWindower(WindowSpec::CountSliding(length, slide), func.get()))
               .value();
  constexpr int kEvents = 200;
  std::vector<double> values(kEvents);
  for (int i = 0; i < kEvents; ++i) values[i] = (i * 37 % 11) - 5.0;

  std::vector<WindowResult> out;
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_TRUE(w->Add(MakeEvent(i, values[i], i), &out).ok());
  }
  // Naive reference: window k covers [k*slide, k*slide + length).
  size_t expected = 0;
  for (uint64_t start = 0; start + length <= kEvents; start += slide) {
    ASSERT_LT(expected, out.size());
    const double want = std::accumulate(values.begin() + start,
                                        values.begin() + start + length, 0.0);
    EXPECT_DOUBLE_EQ(out[expected].value, want)
        << "window starting at " << start;
    EXPECT_EQ(out[expected].event_count, length);
    ++expected;
  }
  EXPECT_EQ(out.size(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    LengthSlideCombos, CountSlidingProperty,
    ::testing::Values(std::pair<uint64_t, uint64_t>{4, 1},
                      std::pair<uint64_t, uint64_t>{6, 2},
                      std::pair<uint64_t, uint64_t>{6, 4},
                      std::pair<uint64_t, uint64_t>{10, 3},
                      std::pair<uint64_t, uint64_t>{7, 7},
                      std::pair<uint64_t, uint64_t>{16, 8}));

}  // namespace
}  // namespace deco
