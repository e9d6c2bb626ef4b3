#include "metrics/histogram.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace deco {

Histogram::Histogram() : buckets_(64 << kSubBucketBits, 0) {}

size_t Histogram::BucketIndex(int64_t value) const {
  const uint64_t v = value <= 0 ? 0 : static_cast<uint64_t>(value);
  if (v < (1u << kSubBucketBits)) return static_cast<size_t>(v);
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - kSubBucketBits;
  const uint64_t sub = (v >> shift) & ((1u << kSubBucketBits) - 1);
  const size_t index = static_cast<size_t>(
      (static_cast<uint64_t>(msb - kSubBucketBits + 1) << kSubBucketBits) +
      sub);
  return std::min(index, buckets_.size() - 1);
}

int64_t Histogram::BucketRepresentative(size_t index) const {
  if (index < (1u << kSubBucketBits)) return static_cast<int64_t>(index);
  const uint64_t octave = (index >> kSubBucketBits);
  const uint64_t sub = index & ((1u << kSubBucketBits) - 1);
  const int shift = static_cast<int>(octave) - 1;
  const uint64_t base = (1ULL << (shift + kSubBucketBits));
  const uint64_t lo = base + (sub << shift);
  const uint64_t width = 1ULL << shift;
  return static_cast<int64_t>(lo + width / 2);
}

void Histogram::Record(int64_t value) { RecordMany(value, 1); }

void Histogram::RecordMany(int64_t value, uint64_t count) {
  if (count == 0) return;
  if (value < 0) value = 0;
  buckets_[BucketIndex(value)] += count;
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += count;
  sum_ += static_cast<double>(value) * static_cast<double>(count);
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

int64_t Histogram::Percentile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t target = static_cast<uint64_t>(
      q * static_cast<double>(count_ - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > target) {
      return std::clamp<int64_t>(BucketRepresentative(i), min_, max_);
    }
  }
  return max_;
}

}  // namespace deco
