#include "obs/sampler.h"

#include <algorithm>
#include <chrono>
#include <numeric>

namespace deco {
namespace {

/// Estimated heap footprint of one retained sample. Size-based (never
/// capacity-based) so the estimate replays identically under --sim.
uint64_t ApproxSampleBytes(const TelemetrySample& sample) {
  uint64_t bytes = sizeof(TelemetrySample);
  bytes += sample.nodes.size() * sizeof(NodeSample);
  for (const NodeSample& node : sample.nodes) bytes += node.name.size();
  for (const auto& [name, value] : sample.metrics.counters) {
    (void)value;
    bytes += sizeof(std::pair<std::string, int64_t>) + name.size();
  }
  for (const auto& [name, value] : sample.metrics.gauges) {
    (void)value;
    bytes += sizeof(std::pair<std::string, int64_t>) + name.size();
  }
  for (const SketchSnapshot& s : sample.metrics.sketches) {
    bytes += sizeof(SketchSnapshot) + s.name.size();
  }
  return bytes;
}

FleetMetricSummary Summarize(const QuantileSketch& sketch, uint64_t sum) {
  FleetMetricSummary summary;
  summary.sum = sum;
  summary.min = sketch.min();
  summary.max = sketch.max();
  summary.p50 = sketch.Quantile(0.5);
  summary.p99 = sketch.Quantile(0.99);
  return summary;
}

}  // namespace

FleetCapture CaptureFleet(const NetworkFabric& fabric,
                          const ObsGovernance& governance, TimeNanos now,
                          uint64_t tick, std::vector<NodeWatch>* watch,
                          bool advance) {
  FleetCapture capture;
  capture.t_nanos = now;
  capture.governance = governance;
  const size_t n = fabric.node_count();
  FleetSample& fleet = capture.fleet;
  fleet.node_count = n;
  fleet.collapsed = governance.Collapsed(n);

  // The one read of every node: constant work per node, feeding the
  // fleet totals and sketches whether or not detail is governed.
  capture.nodes.resize(n);
  uint64_t depth_sum = 0;
  for (NodeId id = 0; id < n; ++id) {
    NodeState& node = capture.nodes[id];
    node.queue_depth = fabric.queue_depth(id);
    node.traffic = fabric.node_stats(id);
    node.down = fabric.IsNodeDown(id);
    node.incarnation = fabric.node_incarnation(id);
    depth_sum += node.queue_depth;
    fleet.total_messages_sent += node.traffic.messages_sent;
    fleet.total_bytes_sent += node.traffic.bytes_sent;
    fleet.total_messages_received += node.traffic.messages_received;
    fleet.total_bytes_received += node.traffic.bytes_received;
    if (node.down) ++fleet.nodes_down;
    capture.queue_depth.Add(static_cast<double>(node.queue_depth));
    capture.messages_sent.Add(static_cast<double>(node.traffic.messages_sent));
    capture.bytes_sent.Add(static_cast<double>(node.traffic.bytes_sent));
    capture.messages_received.Add(
        static_cast<double>(node.traffic.messages_received));
  }
  fleet.queue_depth = Summarize(capture.queue_depth, depth_sum);
  fleet.messages_sent =
      Summarize(capture.messages_sent, fleet.total_messages_sent);
  fleet.bytes_sent = Summarize(capture.bytes_sent, fleet.total_bytes_sent);
  capture.total_dropped = fabric.Stats().total_dropped;

  // Staleness: a tick records which nodes moved before the watch is read.
  if (watch != nullptr) {
    if (advance) {
      if (watch->size() < n) watch->resize(n);
      for (NodeId id = 0; id < n; ++id) {
        NodeWatch& w = (*watch)[id];
        const uint64_t sent = capture.nodes[id].traffic.messages_sent;
        if (tick == 0 || sent != w.last_sent) {
          w.last_sent = sent;
          w.last_change_nanos = now;
        }
      }
    }
    capture.silent_for.resize(std::min(watch->size(), n));
    for (NodeId id = 0; id < capture.silent_for.size(); ++id) {
      capture.silent_for[id] = now - (*watch)[id].last_change_nanos;
    }
  }

  // Governance: every node in detail (byte-identical to the ungoverned
  // output), or a strided subset plus the top-k offenders.
  if (!fleet.collapsed) {
    capture.detail.resize(n);
    std::iota(capture.detail.begin(), capture.detail.end(), NodeId{0});
  } else {
    const size_t k = governance.top_k;
    std::vector<uint64_t> depths(n), bytes(n);
    for (NodeId id = 0; id < n; ++id) {
      depths[id] = capture.nodes[id].queue_depth;
      bytes[id] = capture.nodes[id].traffic.bytes_sent;
    }
    const std::vector<uint64_t> silent(capture.silent_for.begin(),
                                       capture.silent_for.end());
    capture.deepest = TopKIndices(depths, k);
    capture.heaviest = TopKIndices(bytes, k);
    capture.stalest = TopKIndices(silent, k);
    std::vector<NodeId>& offenders = capture.offenders;
    offenders = capture.deepest;
    offenders.insert(offenders.end(), capture.heaviest.begin(),
                     capture.heaviest.end());
    offenders.insert(offenders.end(), capture.stalest.begin(),
                     capture.stalest.end());
    std::sort(offenders.begin(), offenders.end());
    offenders.erase(std::unique(offenders.begin(), offenders.end()),
                    offenders.end());

    const size_t stride = governance.Stride(n);
    for (NodeId id = static_cast<NodeId>(tick % stride); id < n;
         id += static_cast<NodeId>(stride)) {
      capture.detail.push_back(id);
    }
    capture.detail.insert(capture.detail.end(), offenders.begin(),
                          offenders.end());
    std::sort(capture.detail.begin(), capture.detail.end());
    capture.detail.erase(
        std::unique(capture.detail.begin(), capture.detail.end()),
        capture.detail.end());
  }
  fleet.detail_nodes = capture.detail.size();
  return capture;
}

Sampler::Sampler(Clock* clock, NetworkFabric* fabric,
                 MetricRegistry* registry, TimeNanos interval_nanos,
                 SimScheduler* sim)
    : clock_(clock),
      fabric_(fabric),
      registry_(registry),
      interval_nanos_(std::max<TimeNanos>(interval_nanos, kNanosPerMilli)),
      sim_(sim) {}

Sampler::~Sampler() { Stop(); }

TelemetrySample Sampler::SampleNow() {
  const auto wall_start = std::chrono::steady_clock::now();
  TelemetrySample sample;
  sample.t_nanos = clock_->NowNanos();
  uint64_t tick;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tick = tick_count_++;
  }
  if (fabric_ != nullptr) {
    FleetCapture capture;
    {
      std::lock_guard<std::mutex> lock(mu_);
      capture = CaptureFleet(*fabric_, governance_, sample.t_nanos, tick,
                             &watch_, /*advance=*/true);
      for (NodeId id : capture.deepest) queue_offenders_.Offer(id);
      for (NodeId id : capture.heaviest) bytes_offenders_.Offer(id);
      for (NodeId id : capture.stalest) stale_offenders_.Offer(id);
    }
    sample.fleet = capture.fleet;
    sample.total_dropped = capture.total_dropped;
    sample.nodes.reserve(capture.detail.size());
    for (NodeId id : capture.detail) {
      const NodeState& state = capture.nodes[id];
      NodeSample node;
      node.node = id;
      node.name = fabric_->node_name(id);
      node.queue_depth = state.queue_depth;
      node.messages_sent = state.traffic.messages_sent;
      node.bytes_sent = state.traffic.bytes_sent;
      node.messages_received = state.traffic.messages_received;
      node.bytes_received = state.traffic.bytes_received;
      node.messages_sent_by_type = state.traffic.messages_sent_by_type;
      node.bytes_sent_by_type = state.traffic.bytes_sent_by_type;
      sample.nodes.push_back(std::move(node));
    }
  }
  if (registry_ != nullptr) {
    sample.metrics = registry_->Snapshot();
  }
  const double wall_nanos = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  uint64_t tracker_bytes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    samples_.push_back(sample);
    tracker_bytes_ += ApproxSampleBytes(sample);
    tracker_bytes = tracker_bytes_;
    tick_wall_nanos_.Add(wall_nanos);
  }
  if (registry_ != nullptr) {
    // Self-metering (DESIGN.md §13): the plane reports its own cost. The
    // snapshot above ran first, so these land in the *next* sample —
    // deterministic, and never part of the tick they measure.
    registry_->counter("obs.self.sampler_ticks")->Increment();
    registry_->sketch("obs.self.sampler_tick_nanos")->Observe(wall_nanos);
    registry_->gauge("obs.self.tracker_bytes")
        ->Set(static_cast<int64_t>(tracker_bytes));
  }
  if (observer_) observer_(sample);
  return sample;
}

FleetCapture Sampler::Capture(const NetworkFabric& fabric) const {
  TimeNanos now;
  uint64_t tick;
  std::vector<NodeWatch> watch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    now = clock_->NowNanos();
    tick = tick_count_;
    watch = watch_;
  }
  return CaptureFleet(fabric, governance_, now, tick, &watch,
                      /*advance=*/false);
}

Sampler::Offenders Sampler::PersistentOffenders(size_t k) const {
  std::lock_guard<std::mutex> lock(mu_);
  Offenders offenders;
  offenders.queue_depth = queue_offenders_.Top(k);
  offenders.bytes_sent = bytes_offenders_.Top(k);
  offenders.stale = stale_offenders_.Top(k);
  return offenders;
}

SamplerSelfStats Sampler::SelfStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SamplerSelfStats stats;
  stats.ticks = tick_count_;
  stats.tick_nanos_mean =
      tick_wall_nanos_.count() == 0
          ? 0.0
          : tick_wall_nanos_.sum() /
                static_cast<double>(tick_wall_nanos_.count());
  stats.tick_nanos_p50 = tick_wall_nanos_.Quantile(0.5);
  stats.tick_nanos_p99 = tick_wall_nanos_.Quantile(0.99);
  stats.tick_nanos_max = tick_wall_nanos_.max();
  stats.tracker_bytes = tracker_bytes_;
  return stats;
}

void Sampler::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) return;
    running_ = true;
    stop_ = false;
  }
  SampleNow();
  if (sim_ != nullptr) {
    // Sim mode: a self-rescheduling timer event replaces the thread. The
    // chain stops itself once `Stop` has flipped `stop_`.
    ScheduleSimTick();
    return;
  }
  thread_ = std::thread([this] { Loop(); });
}

void Sampler::ScheduleSimTick() {
  sim_->ScheduleAt(clock_->NowNanos() + interval_nanos_, [this] {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_ || !running_) return;
    }
    SampleNow();
    ScheduleSimTick();
  });
}

void Sampler::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (cv_.wait_for(lock, std::chrono::nanoseconds(interval_nanos_),
                     [&] { return stop_; })) {
      break;
    }
    lock.unlock();
    SampleNow();
    lock.lock();
  }
}

void Sampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    running_ = false;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  SampleNow();
}

std::vector<TelemetrySample> Sampler::Samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

size_t Sampler::sample_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_.size();
}

}  // namespace deco
