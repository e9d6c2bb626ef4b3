#pragma once

#include <map>
#include <vector>

#include "deco/assembler.h"
#include "deco/planner.h"
#include "node/actor.h"
#include "node/ingest.h"
#include "node/topology.h"
#include "serve/accounting.h"
#include "serve/registry.h"
#include "serve/slice_store.h"

/// \file local_node.h
/// \brief Deco local node (paper §4.2): plans each predicted local window
/// as front-buffer / slice / end-buffer regions, aggregates the slice
/// locally, ships the buffers raw, retains unverified raw events for the
/// correction step, and follows the scheme's flow pattern:
///
///  - `kMon`  — per window: send rate report → wait for the measured
///              assignment → calculate (3 flows, paper §4.2.1);
///  - `kSync` — wait for the predicted assignment → calculate (2 flows,
///              blocked during root verification, §4.2.2);
///  - `kAsync`— calculate with the latest received prediction instead of
///              waiting for the current window's (§4.2.3), at most
///              `max_unverified_windows` windows past the last assignment
///              (one by default: the local plans window w+1 while the root
///              verifies window w; §4.3.2 rolls those windows back);
///  - `kMonLocal` — Deco_mon's flow, but the local nodes exchange event
///              rates with each other and apportion the window
///              themselves (paper §5.1 microbenchmark).

namespace deco {

/// \brief Which Deco scheme a topology runs.
enum class DecoScheme : uint8_t {
  kMon = 0,
  kSync = 1,
  kAsync = 2,
  /// Deco_monlocal: the root only verifies, aggregates, and signals the
  /// start of the next window.
  kMonLocal = 3,
};

/// \brief Local-node tunables.
struct DecoLocalOptions {
  /// Async only: how many windows past its last assignment a local node
  /// may plan before it blocks. It bounds the retained events, the
  /// staleness of the sizes and deltas the node plans with, and the
  /// windows a correction rolls back. Deeper runs widen every raw edge by
  /// the lag and throw more regions away per correction: at w=10k with 8
  /// locals, 4 ships 1.26 B/event where 1 ships 0.78 (EXPERIMENTS.md,
  /// "Async run-ahead depth"). Raise it only where a share fills faster
  /// than one root round trip.
  uint64_t max_unverified_windows = 1;

  /// While blocked with no traffic from the root for this long, re-send
  /// the rate report as a liveness heartbeat. A node removed by a false
  /// suspicion (partitioned or slow, never crashed) has no other way to
  /// resurface: it blocks on an assignment the root stopped sending, and
  /// the root re-admits a removed node the moment it hears from it. The
  /// same report goes out while the node pulls a region or a correction's
  /// shortfall once it has sent the root nothing for this long, so a slow
  /// source is not mistaken for a dead node. 0 disables.
  TimeNanos heartbeat_nanos = 50 * kNanosPerMilli;
};

/// \brief Deco local node actor.
class DecoLocalNode final : public Actor {
 public:
  /// \param registry the served query set (DESIGN.md §11), a one-entry
  ///        registry for a single query; must match the root's and
  ///        outlive the actor. Not owned.
  /// \param account_tenants charges every slice to the registry's tenants
  ///        (`serve.tenant.*` counters, serve/accounting.h).
  DecoLocalNode(NetworkFabric* fabric, NodeId id, Clock* clock,
                RunContext* run, const Topology& topology,
                const IngestConfig& ingest, const QueryRegistry* registry,
                DecoScheme scheme, DecoLocalOptions options = {},
                bool account_tenants = false);

 protected:
  Status Run() override;

 private:
  /// Assigns the next `want` retained events to a region, pulling only
  /// the events the region lacks from the generator. The region is the
  /// index range `[cursor_ before the call, cursor_ after it)`; returns its
  /// length (less than `want` only at end of stream).
  Result<size_t> TakeRegion(size_t want);

  /// Sends the rate-report heartbeat when nothing has gone to the root for
  /// `heartbeat_nanos`; called between the pulls of a region or of a
  /// correction's shortfall.
  Status HeartbeatIfQuiet();

  /// Pulls at most `min(limit, batch_size)` events onto the end of the
  /// retained buffer, so it holds only planned or solicited events; false
  /// at EOS. May reallocate the buffer, so callers hold indices across it.
  bool PullIntoRetained(size_t limit);

  /// Number of retained events, and the first of them; the pointer is
  /// valid until the next pull or drop.
  size_t retained_size() const { return retained_.size() - retained_front_; }
  const Event* retained_events() const {
    return retained_.data() + retained_front_;
  }

  /// Drops the leading retained events at or before `wm`, at most `limit`
  /// of them; returns how many it dropped.
  size_t DropRetained(const EventKey& wm, size_t limit);

  /// Erases the dropped prefix, moving the retained events to the front.
  void CompactRetained();

  /// The creation time of one pull's events: the pull's stamp, and the
  /// `retained_` index one past its last event.
  struct CreateRun {
    size_t end = 0;
    double stamp = 0.0;
  };

  /// The first creation run that ends after `retained_` index `i`.
  std::vector<CreateRun>::const_iterator CreateRunAt(size_t i) const;

  /// Mean latency side-channel creation time of retained events
  /// `[begin, begin + n)`, summed one event at a time in stream order.
  double CreateMean(size_t begin, size_t n) const;

  /// Ships retained events `[begin, begin + n)` as window `w`'s raw edge.
  Status SendEdge(uint64_t w, BatchRole role, size_t begin, size_t n);

  /// Produces and ships the three regions of window `w`.
  Status ProduceWindow(uint64_t w, const SlicePlan& plan);

  /// Dispatches one control message; updates assignment/epoch state.
  Status HandleControl(const Message& msg);

  /// Responds to a correction request with the solicited prefix of the
  /// retained stream.
  Status HandleCorrectionRequest(const Message& msg);

  /// `Send` wrapper that turns the fabric's NodeFailed (this node was
  /// crashed by the chaos controller) into the `crashed_` flag, and its
  /// Cancelled (the fabric shut down: the run is over) into `done_`,
  /// instead of an error: a dead host doesn't observe its own failed sends.
  Status SendOrCrash(Message msg);

  /// Crash limbo: waits until the fabric revives this node (or the run is
  /// stopped), then resets all volatile protocol state — the durable
  /// upstream queue (`retained_`, paper §4.3.1) and the ingest position
  /// survive — and announces the restart to the root (kRejoin).
  Status HandleCrash();

  /// Blocks until `predicate` (checked after each message) or stop.
  template <typename Pred>
  Status BlockUntil(Pred predicate);

  Status SendRateReport(uint64_t w);

  /// Deco_monlocal: broadcast this node's rate to the other local nodes.
  /// `end_of_stream` marks the node's final broadcast (stream exhausted);
  /// peers then stop waiting for its reports on any later window.
  Status BroadcastPeerRate(uint64_t w, bool end_of_stream = false);

  /// Deco_monlocal: true once every peer has either reported a rate for
  /// window `w` or announced end-of-stream.
  bool PeerRatesComplete(uint64_t w) const;

  Topology topology_;
  IngestConfig ingest_config_;
  const QueryRegistry* registry_;
  DecoScheme scheme_;
  DecoLocalOptions options_;
  bool account_tenants_;

  std::unique_ptr<IngestSource> source_;

  // Multi-query serving layer (DESIGN.md §11): the shared slice store
  // computes every active aggregate slot in one pass over each pane; the
  // accounting, when on, splits the produced bytes/ops across tenants.
  SliceStore slice_store_;
  ServeAccounting accounting_;
  // Shared pane length: the gcd of the registry's protocol window lengths.
  uint64_t pane_length_ = 0;

  // Raw events not yet covered by a root watermark, in stream order:
  // `retained_[retained_front_, end)`. Ingest pulls append to it in place.
  // Dropped events stay in front until they outnumber the live ones or a
  // pull would otherwise grow the buffer; then the buffer is compacted.
  EventVec retained_;
  size_t retained_front_ = 0;
  // The latency side channel's creation times, one run per pull, in
  // stream order. A run that ends in a compacted prefix is dropped.
  std::vector<CreateRun> create_runs_;
  // Index (from `retained_front_`) of the first retained event not yet
  // assigned to a region.
  size_t cursor_ = 0;
  // When this node last sent the root anything (the production heartbeat).
  TimeNanos last_root_send_nanos_ = 0;

  // Latest assignment state.
  uint64_t assigned_size_ = 0;
  uint64_t assigned_delta_ = 0;
  int64_t pending_size_adjust_ = 0;  // one-shot (async recentering)
  uint64_t last_assignment_window_ = 0;
  bool have_assignment_ = false;
  // Causal id of the newest assignment message; window-open spans carry it
  // so the critical-path analyzer can link planning to the root's send.
  uint64_t assignment_msg_id_ = 0;
  uint64_t epoch_ = 0;
  // Set when an epoch bump (correction rollback) rewound the window
  // counter; consumed by the main loop.
  bool rolled_back_ = false;
  uint64_t resume_window_ = 0;
  bool done_ = false;  // root sent kShutdown
  bool eos_sent_ = false;
  // Set when the fabric reported this node down (chaos crash); the main
  // loop enters crash limbo until revived.
  bool crashed_ = false;
  // Set between the post-revive kRejoin announcement and the root's
  // epoch-advancing response: same-epoch assignments in that gap are
  // pre-crash stragglers and must be ignored (the node's cursor was
  // reset; acting on them would duplicate events).
  bool awaiting_rejoin_ = false;
  // Async: the next produced window uses the sync layout (region l+delta
  // instead of exactly l), creating the root-buffer slack that makes the
  // asynchronous steady state verifiable (DESIGN.md 4.1). Set at start and
  // after every rollback.
  bool need_slack_window_ = true;

  // Deco_monlocal peer-exchange state. `peer_rates_received_[w][n]` marks
  // an explicit report from ordinal n for window w; `peer_eos_[n]` means
  // ordinal n exhausted its stream and counts as rate 0 for every window
  // it did not explicitly report (it will never report again — waiting for
  // it deadlocked the whole topology before differential testing found
  // it). `peer_eos_sent_` guards this node's own final broadcast.
  size_t self_ordinal_ = 0;
  std::map<uint64_t, std::vector<double>> peer_rates_;
  std::map<uint64_t, std::vector<bool>> peer_rates_received_;
  std::vector<bool> peer_eos_;
  bool peer_eos_sent_ = false;
};

}  // namespace deco
