#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/queue.h"
#include "common/random.h"
#include "common/result.h"
#include "net/message.h"
#include "net/shaping.h"
#include "sim/scheduler.h"

/// \file fabric.h
/// \brief In-process network fabric connecting node actors.
///
/// This is the repository's substitute for the paper's 25 Gbit/s Ethernet
/// cluster (see DESIGN.md). Each registered node owns a mailbox; `Send`
/// routes a message to the destination mailbox while:
///  - accounting serialized bytes per link and per node (the paper's
///    network-utilization metric),
///  - enforcing per-node egress bandwidth caps via a token bucket
///    (emulates the Raspberry Pi's 1 Gbit/s NIC; senders block, which is
///    exactly NIC backpressure),
///  - optionally adding per-link latency and probabilistic drops
///    (unreliable-network failure injection, paper §4.3.4).
///
/// Per-link FIFO order is preserved, including under added latency.

namespace deco {

/// \brief Counters for one directed link.
struct LinkStats {
  uint64_t messages_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t messages_dropped = 0;
};

/// \brief Aggregate traffic counters for one node.
struct NodeTrafficStats {
  uint64_t messages_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t messages_received = 0;
  uint64_t bytes_received = 0;
  /// Egress split by `MessageType` (indexed by the enum value): separates
  /// up-flow (partials, corrections) from down-flow (assignments) cost
  /// without tracing enabled.
  std::array<uint64_t, kNumMessageTypes> messages_sent_by_type{};
  std::array<uint64_t, kNumMessageTypes> bytes_sent_by_type{};

  /// Largest mailbox backlog ever observed at delivery time (messages).
  /// The sampler's `queue_depth` is a point-in-time reading that can miss
  /// bursts between snapshots; this high-water mark cannot, so benchmark
  /// JSON uses it as the queue-saturation regression signal.
  uint64_t queue_depth_high_water = 0;
};

/// \brief Whole-network summary.
struct NetworkStats {
  uint64_t total_messages = 0;
  uint64_t total_bytes = 0;
  uint64_t total_dropped = 0;
  std::vector<NodeTrafficStats> per_node;  // indexed by NodeId
};

/// \brief Mailbox type nodes receive from.
using Mailbox = BlockingQueue<Message>;

/// \brief The in-process network.
///
/// Lifecycle: register nodes and configure links, then exchange messages;
/// `Shutdown` closes every mailbox and wakes all receivers. Registration
/// after traffic has started is supported (node add/remove at runtime,
/// paper §4.3.4) and takes an exclusive lock.
class NetworkFabric {
 public:
  /// \param clock time source for shaping and latency; not owned
  /// \param seed seed of the drop-injection PRNG
  explicit NetworkFabric(Clock* clock, uint64_t seed = 7);
  ~NetworkFabric();

  NetworkFabric(const NetworkFabric&) = delete;
  NetworkFabric& operator=(const NetworkFabric&) = delete;

  /// \brief Adds a node and returns its id. Ids are dense and start at 0.
  NodeId RegisterNode(const std::string& name);

  /// \brief Number of registered nodes.
  size_t node_count() const;

  /// \brief Human-readable node name.
  std::string node_name(NodeId id) const;

  /// \brief Configures the directed link `src -> dst`. Unconfigured links
  /// behave as zero-latency, lossless. Safe to call while traffic is
  /// flowing (runtime-mutable shaping): per-link FIFO order is preserved
  /// across latency changes — a message sent after a latency reduction is
  /// never delivered before an earlier, still-delayed message on the same
  /// link.
  Status SetLinkConfig(NodeId src, NodeId dst, const LinkConfig& config);

  /// \brief Current configuration of `src -> dst`; the default (lossless,
  /// zero-latency) config for links never configured.
  Result<LinkConfig> GetLinkConfig(NodeId src, NodeId dst) const;

  /// \brief Sets only the `blocked` flag of `src -> dst`, preserving the
  /// link's latency and drop probability (partition / heal).
  Status SetLinkBlocked(NodeId src, NodeId dst, bool blocked);

  /// \brief Blocks or unblocks every link between `node` and all other
  /// registered nodes, both directions (network partition isolating one
  /// host).
  Status PartitionNode(NodeId node, bool partitioned);

  /// \brief Configures a node's egress shaping. Replaces any previous cap.
  Status SetNodeNetConfig(NodeId node, const NodeNetConfig& config);

  /// \brief Marks a node as crashed (true) or recovered (false). Messages
  /// to or from a down node are silently dropped, as with a dead host.
  /// On the down -> up transition the node's mailbox is purged — a
  /// rebooted host has lost its pre-crash receive buffers, so stale
  /// messages must not replay into the restarted actor — and the node's
  /// incarnation counter is bumped.
  Status SetNodeDown(NodeId node, bool down);
  bool IsNodeDown(NodeId node) const;

  /// \brief Number of completed down -> up transitions of a node (0 for a
  /// never-crashed node; 0 for unknown ids).
  uint64_t node_incarnation(NodeId node) const;

  /// \brief Routes one message. Blocks while the sender's egress cap is
  /// exceeded. Returns InvalidArgument for unknown endpoints; delivery to a
  /// down node succeeds from the sender's perspective (bytes are spent) but
  /// the message vanishes.
  Status Send(Message msg);

  /// \brief Sets the data-plane flow-control limit: senders of
  /// `kEventBatch` messages block while the destination mailbox holds more
  /// than this many messages. This is the backpressure mechanism of paper
  /// §4.3.1 ("queues like Kafka"); 0 disables it. Default 512.
  void SetFlowControlLimit(size_t limit) {
    flow_control_limit_.store(limit, std::memory_order_relaxed);
  }

  /// \brief Switches the fabric into deterministic simulation mode
  /// (DESIGN.md §8). Must be attached before any traffic flows. Every
  /// delivery — including zero-latency ones — becomes a timer event on the
  /// scheduler's queue, so message order is a pure function of the sim
  /// seed; no delivery thread is ever spawned, and sender-side blocking
  /// (egress shaping, flow control) blocks in virtual time.
  void SetSimScheduler(SimScheduler* sim) { sim_ = sim; }

  /// \brief The attached scheduler, or nullptr outside sim mode.
  SimScheduler* sim() const { return sim_; }

  /// \brief Causal hop stamping (DESIGN.md §7), off by default. While on
  /// (and `DECO_TRACE_ENABLED` is compiled in), `Send` gives each message
  /// an id unique within this fabric and fills in its `MessageHop`
  /// timestamps. Set before any traffic flows; the harness turns it on
  /// when the run records hops.
  void SetHopStamping(bool enabled) { hop_stamping_ = enabled; }

  /// \brief Order-sensitive FNV-1a digest over every delivered message's
  /// (virtual deliver time, src, dst, type, wire size). Only maintained in
  /// sim mode, where deliveries are serialized on the driver thread; two
  /// runs deliver the same messages in the same order iff the digests
  /// match. This is what the determinism regression test compares.
  uint64_t delivery_hash() const {
    return delivery_hash_.load(std::memory_order_acquire);
  }

  /// \brief The receive queue of a node; nullptr for unknown ids.
  Mailbox* mailbox(NodeId id);

  /// \brief Messages currently waiting in a node's mailbox (its receive
  /// backlog — the telemetry sampler's backpressure signal); 0 for unknown
  /// ids.
  size_t queue_depth(NodeId id) const;

  /// \brief Point-in-time copy of a link's counters.
  LinkStats link_stats(NodeId src, NodeId dst) const;

  /// \brief Point-in-time copy of a node's counters.
  NodeTrafficStats node_stats(NodeId id) const;

  /// \brief Point-in-time network summary.
  NetworkStats Stats() const;

  /// \brief Resets all traffic counters — both the per-node totals and
  /// every per-link counter, including drop counts (used between benchmark
  /// phases, e.g. to exclude warm-up windows from measurements).
  void ResetStats();

  /// \brief Closes every mailbox and stops the delivery thread.
  void Shutdown();

 private:
  struct NodeState {
    std::string name;
    std::unique_ptr<Mailbox> mailbox;
    std::unique_ptr<TokenBucket> egress_bucket;  // null = unlimited
    std::atomic<bool> down{false};
    std::atomic<uint64_t> incarnation{0};
    std::atomic<uint64_t> messages_sent{0};
    std::atomic<uint64_t> bytes_sent{0};
    std::atomic<uint64_t> messages_received{0};
    std::atomic<uint64_t> bytes_received{0};
    std::array<std::atomic<uint64_t>, kNumMessageTypes>
        messages_sent_by_type{};
    std::array<std::atomic<uint64_t>, kNumMessageTypes> bytes_sent_by_type{};
    std::atomic<uint64_t> queue_high_water{0};
  };

  struct LinkState {
    LinkConfig config;
    std::atomic<uint64_t> messages_sent{0};
    std::atomic<uint64_t> bytes_sent{0};
    std::atomic<uint64_t> messages_dropped{0};
  };

  struct DelayedDelivery {
    TimeNanos deliver_at;
    uint64_t seq;
    Message msg;
    bool operator>(const DelayedDelivery& other) const {
      if (deliver_at != other.deliver_at) {
        return deliver_at > other.deliver_at;
      }
      return seq > other.seq;
    }
  };

  LinkState* GetOrCreateLink(NodeId src, NodeId dst);
  const LinkState* FindLink(NodeId src, NodeId dst) const;
  void Deliver(Message msg);
  void EnsureDeliveryThread();
  void DeliveryLoop();

  Clock* clock_;
  SimScheduler* sim_ = nullptr;
  bool hop_stamping_ = false;
  // Per-fabric so message ids restart at 1 for every experiment: a
  // process running several back-to-back runs (benches, the serving
  // layer's tests) would otherwise leak the previous run's id offset
  // into trace hop records and break sim replay identity. 0 is reserved
  // for "untraced".
  std::atomic<uint64_t> next_msg_id_{1};
  // FNV-1a offset basis; see delivery_hash().
  std::atomic<uint64_t> delivery_hash_{1469598103934665603ull};
  std::atomic<size_t> flow_control_limit_{512};

  mutable std::shared_mutex nodes_mu_;
  std::vector<std::unique_ptr<NodeState>> nodes_;

  mutable std::mutex links_mu_;
  std::map<std::pair<NodeId, NodeId>, std::unique_ptr<LinkState>> links_;

  std::mutex rng_mu_;
  Rng rng_;

  // Delayed-delivery machinery (only active once a latency link exists).
  std::mutex delay_mu_;
  std::condition_variable delay_cv_;
  std::priority_queue<DelayedDelivery, std::vector<DelayedDelivery>,
                      std::greater<DelayedDelivery>>
      delayed_;
  std::thread delivery_thread_;
  bool delivery_thread_running_ = false;
  bool shutting_down_ = false;
  uint64_t delay_seq_ = 0;

  // Messages currently sitting in `delayed_`; lets the zero-latency fast
  // path skip `delay_mu_` entirely while no delayed traffic exists.
  std::atomic<size_t> delayed_in_flight_{0};

  // Per-link delivery horizon: the latest `deliver_at` scheduled on each
  // link. A later message on the same link is never scheduled before it,
  // which preserves per-link FIFO order across runtime latency changes
  // (guarded by delay_mu_).
  std::map<std::pair<NodeId, NodeId>, TimeNanos> link_horizon_;
};

}  // namespace deco
