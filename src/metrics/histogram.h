#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file histogram.h
/// \brief Log-bucketed latency histogram (HdrHistogram-style) for
/// percentile reporting without storing samples.

namespace deco {

/// \brief Records non-negative values (nanoseconds, bytes, ...) into
/// logarithmic buckets with bounded relative error, and reports count,
/// mean, min, max and percentiles.
///
/// Not thread-safe; each recording thread keeps its own histogram and the
/// harness merges them.
class Histogram {
 public:
  /// Buckets per power of two; 32 sub-buckets bound the relative error of
  /// percentile estimates at ~3%.
  Histogram();

  /// \brief Records one value (negative values clamp to 0).
  void Record(int64_t value);

  /// \brief Records `count` occurrences of `value`.
  void RecordMany(int64_t value, uint64_t count);

  /// \brief Merges another histogram into this one.
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  double mean() const;
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return count_ == 0 ? 0 : max_; }

  /// \brief Value at quantile `q` in [0, 1]; 0 when empty.
  int64_t Percentile(double q) const;

 private:
  size_t BucketIndex(int64_t value) const;
  int64_t BucketRepresentative(size_t index) const;

  static constexpr int kSubBucketBits = 5;  // 32 sub-buckets per octave
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

}  // namespace deco
