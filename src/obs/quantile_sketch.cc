#include "obs/quantile_sketch.h"

#include <algorithm>
#include <cmath>

namespace deco {
namespace {

/// Values below this are indistinguishable from zero on the log scale;
/// they land in the dedicated zero bucket. Nanoseconds, bytes and queue
/// depths are all integers, so anything in (0, 1e-9) is a rounding ghost.
constexpr double kMinTrackable = 1e-9;

}  // namespace

QuantileSketch::QuantileSketch(double alpha, size_t max_buckets)
    : alpha_(alpha), max_buckets_(max_buckets) {
  if (alpha_ <= 0.0 || alpha_ >= 1.0) alpha_ = 0.01;
  if (max_buckets_ < 16) max_buckets_ = 16;
  gamma_ = (1.0 + alpha_) / (1.0 - alpha_);
  log_gamma_ = std::log(gamma_);
}

int32_t QuantileSketch::KeyFor(double value) const {
  return static_cast<int32_t>(std::ceil(std::log(value) / log_gamma_));
}

double QuantileSketch::ValueFor(int32_t key) const {
  // Midpoint of the bucket (gamma^(key-1), gamma^key]: relative distance
  // to any value inside is at most alpha.
  return 2.0 * std::pow(gamma_, key) / (gamma_ + 1.0);
}

void QuantileSketch::Add(double value) {
  if (std::isnan(value)) return;
  if (value < 0.0) value = 0.0;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  if (value < kMinTrackable) {
    ++zero_count_;
    return;
  }
  ++buckets_[KeyFor(value)];
  CollapseIfNeeded();
}

void QuantileSketch::Merge(const QuantileSketch& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  zero_count_ += other.zero_count_;
  // Same alpha => same bucket boundaries, bucket-wise add is lossless.
  // Different alphas re-bucket through the midpoint, costing at most the
  // coarser sketch's alpha (governance always uses one alpha, so this
  // path only runs in tests).
  if (other.gamma_ == gamma_) {
    for (const auto& [key, n] : other.buckets_) buckets_[key] += n;
  } else {
    for (const auto& [key, n] : other.buckets_) {
      buckets_[KeyFor(other.ValueFor(key))] += n;
    }
  }
  CollapseIfNeeded();
}

void QuantileSketch::CollapseIfNeeded() {
  // Fold the lowest bucket into its neighbour until within budget: low
  // quantiles blur, top-of-range quantiles (the alerting ones) stay exact.
  while (buckets_.size() > max_buckets_) {
    auto lowest = buckets_.begin();
    auto next = std::next(lowest);
    next->second += lowest->second;
    buckets_.erase(lowest);
  }
}

double QuantileSketch::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count_ - 1);
  double seen = static_cast<double>(zero_count_);
  if (rank < seen) return 0.0;  // zero bucket
  for (const auto& [key, n] : buckets_) {
    seen += static_cast<double>(n);
    if (rank < seen) {
      return std::clamp(ValueFor(key), min_, max_);
    }
  }
  return max_;
}

SketchSnapshot QuantileSketch::Snapshot(const std::string& name) const {
  SketchSnapshot s;
  s.name = name;
  s.count = count_;
  s.sum = sum_;
  s.min = min();
  s.max = max();
  s.p50 = Quantile(0.5);
  s.p90 = Quantile(0.9);
  s.p99 = Quantile(0.99);
  return s;
}

std::vector<uint32_t> TopKIndices(const std::vector<uint64_t>& values,
                                  size_t k) {
  std::vector<uint32_t> ids(values.size());
  for (uint32_t id = 0; id < ids.size(); ++id) ids[id] = id;
  if (k > ids.size()) k = ids.size();
  std::partial_sort(ids.begin(), ids.begin() + static_cast<long>(k), ids.end(),
                    [&](uint32_t a, uint32_t b) {
                      if (values[a] != values[b]) return values[a] > values[b];
                      return a < b;
                    });
  ids.resize(k);
  return ids;
}

SpaceSavingTopK::SpaceSavingTopK(size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) capacity_ = 1;
  entries_.reserve(capacity_);
}

void SpaceSavingTopK::Offer(int64_t key, double weight) {
  if (weight <= 0.0) return;
  for (Entry& e : entries_) {
    if (e.key == key) {
      e.weight += weight;
      return;
    }
  }
  if (entries_.size() < capacity_) {
    entries_.push_back(Entry{key, weight, 0.0});
    return;
  }
  // Evict the minimum-weight entry; the newcomer inherits its weight as
  // the classic space-saving overestimate bound.
  auto min_it = std::min_element(
      entries_.begin(), entries_.end(),
      [](const Entry& a, const Entry& b) { return a.weight < b.weight; });
  min_it->error = min_it->weight;
  min_it->key = key;
  min_it->weight += weight;
}

std::vector<SpaceSavingTopK::Entry> SpaceSavingTopK::Top(size_t k) const {
  std::vector<Entry> sorted = entries_;
  std::sort(sorted.begin(), sorted.end(), [](const Entry& a, const Entry& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.key < b.key;  // deterministic tie-break for sim replay
  });
  if (sorted.size() > k) sorted.resize(k);
  return sorted;
}

}  // namespace deco
