#include "net/fabric.h"

#include <chrono>

#include "common/logging.h"

namespace deco {

NetworkFabric::NetworkFabric(Clock* clock, uint64_t seed)
    : clock_(clock), rng_(seed) {}

NetworkFabric::~NetworkFabric() { Shutdown(); }

NodeId NetworkFabric::RegisterNode(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(nodes_mu_);
  auto state = std::make_unique<NodeState>();
  state->name = name;
  state->mailbox = std::make_unique<Mailbox>();
  nodes_.push_back(std::move(state));
  return static_cast<NodeId>(nodes_.size() - 1);
}

size_t NetworkFabric::node_count() const {
  std::shared_lock<std::shared_mutex> lock(nodes_mu_);
  return nodes_.size();
}

std::string NetworkFabric::node_name(NodeId id) const {
  std::shared_lock<std::shared_mutex> lock(nodes_mu_);
  if (id >= nodes_.size()) return "<unknown>";
  return nodes_[id]->name;
}

Status NetworkFabric::SetLinkConfig(NodeId src, NodeId dst,
                                    const LinkConfig& config) {
  if (src >= node_count() || dst >= node_count()) {
    return Status::InvalidArgument("link endpoint not registered");
  }
  if (config.drop_probability < 0.0 || config.drop_probability > 1.0) {
    return Status::InvalidArgument("drop probability must be in [0, 1]");
  }
  if (config.latency_nanos < 0) {
    return Status::InvalidArgument("latency must be non-negative");
  }
  LinkState* link = GetOrCreateLink(src, dst);
  {
    std::lock_guard<std::mutex> lock(links_mu_);
    link->config = config;
  }
  if (config.latency_nanos > 0) EnsureDeliveryThread();
  return Status::OK();
}

Status NetworkFabric::SetNodeNetConfig(NodeId node,
                                       const NodeNetConfig& config) {
  std::unique_lock<std::shared_mutex> lock(nodes_mu_);
  if (node >= nodes_.size()) {
    return Status::InvalidArgument("node not registered");
  }
  if (config.egress_bytes_per_sec == 0) {
    nodes_[node]->egress_bucket.reset();
  } else {
    nodes_[node]->egress_bucket =
        std::make_unique<TokenBucket>(config.egress_bytes_per_sec, clock_);
  }
  return Status::OK();
}

Status NetworkFabric::SetNodeDown(NodeId node, bool down) {
  std::shared_lock<std::shared_mutex> lock(nodes_mu_);
  if (node >= nodes_.size()) {
    return Status::InvalidArgument("node not registered");
  }
  NodeState& state = *nodes_[node];
  const bool was_down = state.down.load(std::memory_order_acquire);
  if (was_down && !down) {
    // Revival: a rebooted host has lost its pre-crash receive buffers.
    // Purging here (rather than on crash) keeps the down period observable
    // via queue_depth and guarantees the restarted actor never replays
    // stale pre-crash messages (dead-window partials, old assignments).
    // The purge happens *before* the node becomes visibly up so that no
    // post-revive message can be swept away with the stale ones.
    const size_t purged = state.mailbox->Clear();
    state.incarnation.fetch_add(1, std::memory_order_acq_rel);
    if (purged > 0) {
      DECO_LOG(DEBUG) << "fabric: node " << node << " revived, purged "
                      << purged << " stale pre-crash messages";
    }
  }
  state.down.store(down, std::memory_order_release);
  return Status::OK();
}

uint64_t NetworkFabric::node_incarnation(NodeId node) const {
  std::shared_lock<std::shared_mutex> lock(nodes_mu_);
  if (node >= nodes_.size()) return 0;
  return nodes_[node]->incarnation.load(std::memory_order_acquire);
}

Result<LinkConfig> NetworkFabric::GetLinkConfig(NodeId src,
                                                NodeId dst) const {
  if (src >= node_count() || dst >= node_count()) {
    return Status::InvalidArgument("link endpoint not registered");
  }
  const LinkState* link = FindLink(src, dst);
  if (link == nullptr) return LinkConfig{};
  std::lock_guard<std::mutex> lock(links_mu_);
  return link->config;
}

Status NetworkFabric::SetLinkBlocked(NodeId src, NodeId dst, bool blocked) {
  if (src >= node_count() || dst >= node_count()) {
    return Status::InvalidArgument("link endpoint not registered");
  }
  LinkState* link = GetOrCreateLink(src, dst);
  std::lock_guard<std::mutex> lock(links_mu_);
  link->config.blocked = blocked;
  return Status::OK();
}

Status NetworkFabric::PartitionNode(NodeId node, bool partitioned) {
  const size_t n = node_count();
  if (node >= n) return Status::InvalidArgument("node not registered");
  for (NodeId other = 0; other < n; ++other) {
    if (other == node) continue;
    DECO_RETURN_NOT_OK(SetLinkBlocked(node, other, partitioned));
    DECO_RETURN_NOT_OK(SetLinkBlocked(other, node, partitioned));
  }
  return Status::OK();
}

bool NetworkFabric::IsNodeDown(NodeId node) const {
  std::shared_lock<std::shared_mutex> lock(nodes_mu_);
  if (node >= nodes_.size()) return true;
  return nodes_[node]->down.load(std::memory_order_acquire);
}

NetworkFabric::LinkState* NetworkFabric::GetOrCreateLink(NodeId src,
                                                         NodeId dst) {
  std::lock_guard<std::mutex> lock(links_mu_);
  auto& slot = links_[{src, dst}];
  if (!slot) slot = std::make_unique<LinkState>();
  return slot.get();
}

const NetworkFabric::LinkState* NetworkFabric::FindLink(NodeId src,
                                                        NodeId dst) const {
  std::lock_guard<std::mutex> lock(links_mu_);
  auto it = links_.find({src, dst});
  return it == links_.end() ? nullptr : it->second.get();
}

Status NetworkFabric::Send(Message msg) {
  const size_t wire_size = msg.WireSize();
  NodeState* src_state = nullptr;
  NodeState* dst_state = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(nodes_mu_);
    if (msg.src >= nodes_.size() || msg.dst >= nodes_.size()) {
      return Status::InvalidArgument("message endpoint not registered");
    }
    src_state = nodes_[msg.src].get();
    dst_state = nodes_[msg.dst].get();
  }

  if (src_state->down.load(std::memory_order_acquire)) {
    // A crashed node emits nothing.
    return Status::NodeFailed("sender is down");
  }

#if DECO_TRACE_ENABLED
  const bool stamp_hop = hop_stamping_;
  if (stamp_hop) {
    msg.hop.msg_id = next_msg_id_.fetch_add(1, std::memory_order_relaxed);
    msg.hop.enqueue_nanos = clock_->NowNanos();
  }
#endif

  // Egress shaping: block like a saturated NIC would.
  if (src_state->egress_bucket) {
    src_state->egress_bucket->AcquireBlocking(wire_size);
  }

  // Data-plane flow control: raw-event producers block while the receiver
  // is congested, which propagates backpressure into ingestion and makes
  // the measured throughput the *sustainable* one (paper §5, metrics).
  if (msg.type == MessageType::kEventBatch) {
    const size_t limit = flow_control_limit_.load(std::memory_order_relaxed);
    if (limit > 0) {
      if (sim_ != nullptr) {
        // Sim mode: block in virtual time until the receiver drains. Only a
        // granted sim task may block; a driver-side Send skips backpressure
        // (the driver must never suspend itself).
        Mailbox* dst_mailbox = dst_state->mailbox.get();
        while (SimScheduler::OnSimTask() &&
               dst_mailbox->size() > limit && !dst_mailbox->closed() &&
               !dst_state->down.load(std::memory_order_acquire)) {
          sim_->WaitUntil(
              [dst_mailbox, dst_state, limit] {
                return dst_mailbox->size() <= limit ||
                       dst_mailbox->closed() ||
                       dst_state->down.load(std::memory_order_acquire);
              },
              -1);
        }
      } else {
        // A closed mailbox means the run is tearing down: backpressure is
        // meaningless and waiting for a drain that will never happen would
        // wedge the sender.
        while (dst_state->mailbox->size() > limit &&
               !dst_state->mailbox->closed() &&
               !dst_state->down.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
    }
  }

#if DECO_TRACE_ENABLED
  if (stamp_hop) {
    // Everything between enqueue and here was sender-side blocking
    // (egress token bucket and/or data-plane flow control).
    msg.hop.shaping_delay_nanos =
        clock_->NowNanos() - msg.hop.enqueue_nanos;
  }
#endif

  src_state->messages_sent.fetch_add(1, std::memory_order_relaxed);
  src_state->bytes_sent.fetch_add(wire_size, std::memory_order_relaxed);
  const size_t type_index = static_cast<size_t>(msg.type);
  if (type_index < kNumMessageTypes) {
    src_state->messages_sent_by_type[type_index].fetch_add(
        1, std::memory_order_relaxed);
    src_state->bytes_sent_by_type[type_index].fetch_add(
        wire_size, std::memory_order_relaxed);
  }

  LinkState* link = GetOrCreateLink(msg.src, msg.dst);
  link->messages_sent.fetch_add(1, std::memory_order_relaxed);
  link->bytes_sent.fetch_add(wire_size, std::memory_order_relaxed);

  LinkConfig config;
  {
    std::lock_guard<std::mutex> lock(links_mu_);
    config = link->config;
  }

  if (config.blocked) {
    // Hard partition: the link is severed, nothing gets across.
    link->messages_dropped.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  if (config.drop_probability > 0.0) {
    bool drop;
    {
      std::lock_guard<std::mutex> lock(rng_mu_);
      drop = rng_.NextBool(config.drop_probability);
    }
    if (drop) {
      link->messages_dropped.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
  }

  if (dst_state->down.load(std::memory_order_acquire)) {
    // Bytes were spent but the destination host is gone.
    link->messages_dropped.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  if (sim_ != nullptr) {
    // Sim mode: every delivery — even zero-latency — is a timer event, so
    // the full delivery order is decided by the scheduler's deterministic
    // (time, schedule-order) queue. Per-link FIFO still holds: a later
    // message is scheduled at max(now + latency, link horizon), and ties
    // fire in schedule order.
    TimeNanos deliver_at;
    {
      std::lock_guard<std::mutex> lock(delay_mu_);
      if (shutting_down_) return Status::Cancelled("fabric shut down");
      const std::pair<NodeId, NodeId> key{msg.src, msg.dst};
      deliver_at = clock_->NowNanos() + config.latency_nanos;
      auto horizon = link_horizon_.find(key);
      if (horizon != link_horizon_.end() && horizon->second > deliver_at) {
        deliver_at = horizon->second;
      }
      link_horizon_[key] = deliver_at;
    }
    auto shared = std::make_shared<Message>(std::move(msg));
    sim_->ScheduleAt(deliver_at,
                     [this, shared] { Deliver(std::move(*shared)); });
    return Status::OK();
  }

  // The delayed path is taken while the link has latency OR any delayed
  // message is still in flight anywhere: a message sent right after a
  // latency drop to 0 must not overtake an earlier, still-delayed message
  // on the same link.
  if (config.latency_nanos > 0 ||
      delayed_in_flight_.load(std::memory_order_acquire) > 0) {
    const std::pair<NodeId, NodeId> key{msg.src, msg.dst};
    std::unique_lock<std::mutex> lock(delay_mu_);
    if (shutting_down_) return Status::Cancelled("fabric shut down");
    const TimeNanos now = clock_->NowNanos();
    TimeNanos deliver_at = now + config.latency_nanos;
    auto horizon = link_horizon_.find(key);
    if (horizon != link_horizon_.end() && horizon->second > deliver_at) {
      deliver_at = horizon->second;  // FIFO: never pass a predecessor.
    }
    if (deliver_at <= now && delayed_.empty()) {
      // No predecessor pending on this link and no delay requested:
      // deliver inline without touching the delivery thread.
      lock.unlock();
      Deliver(std::move(msg));
      return Status::OK();
    }
    link_horizon_[key] = deliver_at;
    delayed_.push(DelayedDelivery{deliver_at, delay_seq_++, std::move(msg)});
    delayed_in_flight_.fetch_add(1, std::memory_order_acq_rel);
    lock.unlock();
    EnsureDeliveryThread();
    delay_cv_.notify_one();
    return Status::OK();
  }

  Deliver(std::move(msg));
  return Status::OK();
}

void NetworkFabric::Deliver(Message msg) {
  const size_t wire_size = msg.WireSize();
  NodeState* dst_state = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(nodes_mu_);
    if (msg.dst >= nodes_.size()) return;
    dst_state = nodes_[msg.dst].get();
  }
  if (dst_state->down.load(std::memory_order_acquire)) return;
#if DECO_TRACE_ENABLED
  if (msg.hop.msg_id != 0) msg.hop.deliver_nanos = clock_->NowNanos();
#endif
  if (sim_ != nullptr) {
    // Deliveries are serialized on the sim driver thread, so a plain FNV-1a
    // accumulation is race-free; the atomic is only for the final read.
    uint64_t h = delivery_hash_.load(std::memory_order_relaxed);
    const uint64_t word =
        (static_cast<uint64_t>(msg.src) << 48) ^
        (static_cast<uint64_t>(msg.dst) << 40) ^
        (static_cast<uint64_t>(msg.type) << 32) ^
        static_cast<uint64_t>(wire_size) ^
        static_cast<uint64_t>(clock_->NowNanos());
    h = (h ^ word) * 1099511628211ull;
    delivery_hash_.store(h, std::memory_order_release);
  }
  dst_state->messages_received.fetch_add(1, std::memory_order_relaxed);
  dst_state->bytes_received.fetch_add(wire_size, std::memory_order_relaxed);
  dst_state->mailbox->Push(std::move(msg));
  // High-water accounting after the push so the mark includes this message.
  // Concurrent deliveries can each observe a stale smaller size, but every
  // delivery re-reads the depth, so the mark is never below any depth that
  // existed at some delivery instant.
  const uint64_t depth = dst_state->mailbox->size();
  uint64_t high = dst_state->queue_high_water.load(std::memory_order_relaxed);
  while (depth > high &&
         !dst_state->queue_high_water.compare_exchange_weak(
             high, depth, std::memory_order_relaxed)) {
  }
}

Mailbox* NetworkFabric::mailbox(NodeId id) {
  std::shared_lock<std::shared_mutex> lock(nodes_mu_);
  if (id >= nodes_.size()) return nullptr;
  return nodes_[id]->mailbox.get();
}

size_t NetworkFabric::queue_depth(NodeId id) const {
  std::shared_lock<std::shared_mutex> lock(nodes_mu_);
  if (id >= nodes_.size()) return 0;
  return nodes_[id]->mailbox->size();
}

LinkStats NetworkFabric::link_stats(NodeId src, NodeId dst) const {
  LinkStats out;
  const LinkState* link = FindLink(src, dst);
  if (link == nullptr) return out;
  out.messages_sent = link->messages_sent.load(std::memory_order_relaxed);
  out.bytes_sent = link->bytes_sent.load(std::memory_order_relaxed);
  out.messages_dropped =
      link->messages_dropped.load(std::memory_order_relaxed);
  return out;
}

NodeTrafficStats NetworkFabric::node_stats(NodeId id) const {
  NodeTrafficStats out;
  std::shared_lock<std::shared_mutex> lock(nodes_mu_);
  if (id >= nodes_.size()) return out;
  const NodeState& n = *nodes_[id];
  out.messages_sent = n.messages_sent.load(std::memory_order_relaxed);
  out.bytes_sent = n.bytes_sent.load(std::memory_order_relaxed);
  out.messages_received = n.messages_received.load(std::memory_order_relaxed);
  out.bytes_received = n.bytes_received.load(std::memory_order_relaxed);
  for (size_t t = 0; t < kNumMessageTypes; ++t) {
    out.messages_sent_by_type[t] =
        n.messages_sent_by_type[t].load(std::memory_order_relaxed);
    out.bytes_sent_by_type[t] =
        n.bytes_sent_by_type[t].load(std::memory_order_relaxed);
  }
  out.queue_depth_high_water =
      n.queue_high_water.load(std::memory_order_relaxed);
  return out;
}

NetworkStats NetworkFabric::Stats() const {
  NetworkStats stats;
  {
    std::shared_lock<std::shared_mutex> lock(nodes_mu_);
    stats.per_node.resize(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) {
      const NodeState& n = *nodes_[i];
      auto& entry = stats.per_node[i];
      entry.messages_sent = n.messages_sent.load(std::memory_order_relaxed);
      entry.bytes_sent = n.bytes_sent.load(std::memory_order_relaxed);
      entry.messages_received =
          n.messages_received.load(std::memory_order_relaxed);
      entry.bytes_received =
          n.bytes_received.load(std::memory_order_relaxed);
      for (size_t t = 0; t < kNumMessageTypes; ++t) {
        entry.messages_sent_by_type[t] =
            n.messages_sent_by_type[t].load(std::memory_order_relaxed);
        entry.bytes_sent_by_type[t] =
            n.bytes_sent_by_type[t].load(std::memory_order_relaxed);
      }
      entry.queue_depth_high_water =
          n.queue_high_water.load(std::memory_order_relaxed);
      stats.total_messages += entry.messages_sent;
      stats.total_bytes += entry.bytes_sent;
    }
  }
  {
    std::lock_guard<std::mutex> lock(links_mu_);
    for (const auto& [key, link] : links_) {
      stats.total_dropped +=
          link->messages_dropped.load(std::memory_order_relaxed);
    }
  }
  return stats;
}

void NetworkFabric::ResetStats() {
  {
    std::shared_lock<std::shared_mutex> lock(nodes_mu_);
    for (auto& n : nodes_) {
      n->messages_sent.store(0, std::memory_order_relaxed);
      n->bytes_sent.store(0, std::memory_order_relaxed);
      n->messages_received.store(0, std::memory_order_relaxed);
      n->bytes_received.store(0, std::memory_order_relaxed);
      for (size_t t = 0; t < kNumMessageTypes; ++t) {
        n->messages_sent_by_type[t].store(0, std::memory_order_relaxed);
        n->bytes_sent_by_type[t].store(0, std::memory_order_relaxed);
      }
      n->queue_high_water.store(0, std::memory_order_relaxed);
    }
  }
  std::lock_guard<std::mutex> lock(links_mu_);
  for (auto& [key, link] : links_) {
    link->messages_sent.store(0, std::memory_order_relaxed);
    link->bytes_sent.store(0, std::memory_order_relaxed);
    link->messages_dropped.store(0, std::memory_order_relaxed);
  }
}

void NetworkFabric::EnsureDeliveryThread() {
  if (sim_ != nullptr) return;  // sim mode: deliveries are timer events
  std::lock_guard<std::mutex> lock(delay_mu_);
  if (delivery_thread_running_ || shutting_down_) return;
  delivery_thread_running_ = true;
  delivery_thread_ = std::thread([this] { DeliveryLoop(); });
}

void NetworkFabric::DeliveryLoop() {
  std::unique_lock<std::mutex> lock(delay_mu_);
  while (!shutting_down_) {
    if (delayed_.empty()) {
      delay_cv_.wait(lock,
                     [&] { return shutting_down_ || !delayed_.empty(); });
      continue;
    }
    const TimeNanos now = clock_->NowNanos();
    const TimeNanos due = delayed_.top().deliver_at;
    if (due > now) {
      delay_cv_.wait_for(lock, std::chrono::nanoseconds(due - now));
      continue;
    }
    Message msg = std::move(const_cast<DelayedDelivery&>(delayed_.top()).msg);
    delayed_.pop();
    delayed_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    lock.unlock();
    Deliver(std::move(msg));
    lock.lock();
  }
}

void NetworkFabric::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(delay_mu_);
    if (shutting_down_) return;
    shutting_down_ = true;
  }
  delay_cv_.notify_all();
  if (delivery_thread_.joinable()) delivery_thread_.join();
  std::shared_lock<std::shared_mutex> lock(nodes_mu_);
  for (auto& n : nodes_) n->mailbox->Close();
}

}  // namespace deco
