#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file quantile_sketch.h
/// \brief Mergeable quantile sketch (DDSketch-style) and a space-saving
/// top-k tracker — the two bounded-memory primitives behind cardinality
/// governance (DESIGN.md §13).
///
/// `QuantileSketch` buckets values on a logarithmic scale with relative
/// accuracy `alpha`: `Quantile(q)` returns a value within `alpha * x` of
/// the true q-quantile `x` for any data distribution, using a bounded
/// number of buckets regardless of how many values were added. Two
/// sketches built independently (per node, per shard, per tick) merge
/// losslessly: `Merge` never degrades the error bound while the bucket
/// budget holds, and degrades gracefully (lowest buckets collapse first,
/// preserving upper-quantile accuracy) when it does not.
///
/// `SpaceSavingTopK` is the classic Metwally et al. stream summary: with
/// `capacity` slots it tracks approximate per-key weights and guarantees
/// every true heavy hitter with weight above W/capacity is present, where
/// W is the total weight offered. The governance layer uses it to keep
/// persistent offender sets (deepest queues, most bytes, stalest
/// heartbeats) without a per-node map.

namespace deco {

/// \brief Point-in-time summary of a sketch, used by registry snapshots
/// and the telemetry exporters.
struct SketchSnapshot {
  std::string name;
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// \brief DDSketch-style relative-error quantile sketch over non-negative
/// values. Not thread-safe; wrap in a lock or keep per-thread and merge.
class QuantileSketch {
 public:
  /// \param alpha relative accuracy target in (0, 1); 0.01 means quantile
  ///        answers are within 1% of the true value.
  /// \param max_buckets bucket budget; when exceeded the lowest buckets
  ///        collapse together (upper quantiles keep full accuracy).
  explicit QuantileSketch(double alpha = 0.01, size_t max_buckets = 2048);

  /// \brief Adds one value. Negative values are clamped to zero (all
  /// governed metrics — depths, bytes, durations — are non-negative).
  void Add(double value);

  /// \brief Adds every bucket of `other` into this sketch.
  void Merge(const QuantileSketch& other);

  /// \brief Approximate q-quantile (q in [0, 1]); 0 on an empty sketch.
  /// Exact for min (q near 0 with zeros) and never exceeds `max()`.
  double Quantile(double q) const;

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double alpha() const { return alpha_; }
  size_t bucket_count() const { return buckets_.size(); }

  /// \brief Snapshot with the standard governance quantiles filled in.
  SketchSnapshot Snapshot(const std::string& name) const;

 private:
  int32_t KeyFor(double value) const;
  double ValueFor(int32_t key) const;
  void CollapseIfNeeded();

  double alpha_;
  size_t max_buckets_;
  double gamma_;
  double log_gamma_;
  uint64_t zero_count_ = 0;  ///< values in [0, kMinTrackable)
  std::map<int32_t, uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// \brief Indices of the `k` largest values, ties broken toward the lower
/// index — the deterministic per-tick offender selection shared by the
/// sampler and the ops server.
std::vector<uint32_t> TopKIndices(const std::vector<uint64_t>& values,
                                  size_t k);

/// \brief Space-saving heavy-hitter tracker over integer keys (node ids).
class SpaceSavingTopK {
 public:
  struct Entry {
    int64_t key = 0;
    double weight = 0.0;  ///< estimated total weight (upper bound)
    double error = 0.0;   ///< max overestimate inherited at eviction
  };

  explicit SpaceSavingTopK(size_t capacity = 16);

  /// \brief Offers `weight` for `key`; evicts the lightest entry when the
  /// summary is full (the newcomer inherits its weight as error bound).
  void Offer(int64_t key, double weight = 1.0);

  /// \brief Top `k` entries by estimated weight, heaviest first.
  std::vector<Entry> Top(size_t k) const;

  size_t size() const { return entries_.size(); }
  void Reset();

 private:
  size_t capacity_;
  std::vector<Entry> entries_;  ///< linear scans: capacity is tens, not 1e6
};

}  // namespace deco
