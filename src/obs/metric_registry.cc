#include "obs/metric_registry.h"

namespace deco {
namespace {

/// Dense per-thread ordinal: threads map to distinct shards until the shard
/// count is exceeded, after which they wrap.
size_t ThisThreadOrdinal() {
  static std::atomic<size_t> next{0};
  static thread_local const size_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

/// Finds `name` under a shared lock, inserting under an exclusive lock on
/// first use. Returns a pointer that stays valid for the map's lifetime.
template <typename Map>
typename Map::mapped_type::element_type* GetOrCreate(std::shared_mutex* mu,
                                                     Map* map,
                                                     std::string_view name) {
  {
    std::shared_lock<std::shared_mutex> lock(*mu);
    auto it = map->find(name);
    if (it != map->end()) return it->second.get();
  }
  std::unique_lock<std::shared_mutex> lock(*mu);
  auto& slot = (*map)[std::string(name)];
  if (!slot) {
    slot = std::make_unique<typename Map::mapped_type::element_type>();
  }
  return slot.get();
}

}  // namespace

size_t Counter::ShardIndex() { return ThisThreadOrdinal() % kShards; }

Counter* MetricRegistry::counter(std::string_view name) {
  return GetOrCreate(&mu_, &counters_, name);
}

Gauge* MetricRegistry::gauge(std::string_view name) {
  return GetOrCreate(&mu_, &gauges_, name);
}

SketchMetric* MetricRegistry::sketch(std::string_view name) {
  return GetOrCreate(&mu_, &sketches_, name);
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::shared_lock<std::shared_mutex> lock(mu_);
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->value());
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->value());
  }
  snapshot.sketches.reserve(sketches_.size());
  for (const auto& [name, sketch] : sketches_) {
    snapshot.sketches.push_back(sketch->Snapshot().Snapshot(name));
  }
  return snapshot;
}

MetricRegistry* MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();
  return registry;
}

}  // namespace deco
