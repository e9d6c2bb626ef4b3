#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/quantile_sketch.h"

/// \file metric_registry.h
/// \brief Lock-cheap registry of named counters, gauges and quantile
/// sketches.
///
/// Instruments are created once (shared-lock fast path, exclusive lock only
/// on first use of a name) and then updated without the registry lock:
/// counters are sharded so concurrent node threads land on different cache
/// lines, and the sampler merges the shards when it snapshots. Update cost:
/// one relaxed atomic add (counter/gauge) or one mutex + sketch insert
/// (sketch).

namespace deco {

/// \brief Monotonically increasing sharded counter.
class Counter {
 public:
  /// \brief Adds `delta` to the calling thread's shard.
  void Add(int64_t delta) {
    shards_[ShardIndex()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// \brief Merged value across shards (point-in-time under concurrency).
  int64_t value() const {
    int64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr size_t kShards = 16;
  struct alignas(64) Shard {
    std::atomic<int64_t> v{0};
  };
  static size_t ShardIndex();
  std::array<Shard, kShards> shards_;
};

/// \brief Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(int64_t value) { v_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// \brief Mutex-wrapped mergeable quantile sketch (quantile_sketch.h).
/// Observations land on a single lock: sketch writers are low-rate
/// (sampler ticks, scrape timings), unlike the sharded hot-path counters.
class SketchMetric {
 public:
  void Observe(double value) {
    std::lock_guard<std::mutex> lock(mu_);
    sketch_.Add(value);
  }
  QuantileSketch Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sketch_;
  }

 private:
  mutable std::mutex mu_;
  QuantileSketch sketch_;
};

/// \brief All registry values at one instant.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<SketchSnapshot> sketches;
};

/// \brief Name -> instrument registry. Instrument pointers are stable for
/// the registry's lifetime, so callers hoist the lookup out of their loops.
/// Looking up an existing name allocates nothing (a shared lock and a map
/// search), so per-window and per-batch sites may look up at each use.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  SketchMetric* sketch(std::string_view name);

  /// \brief Merged point-in-time values of every instrument, name-sorted.
  MetricsSnapshot Snapshot() const;

  /// \brief A process-wide registry for code that times the instruments
  /// outside any run. No run writes to it: each run counts into the
  /// registry of its own `RunContext`.
  static MetricRegistry* Global();

 private:
  mutable std::shared_mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<SketchMetric>, std::less<>>
      sketches_;
};

}  // namespace deco
