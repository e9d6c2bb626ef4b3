#pragma once

#include <deque>
#include <map>

#include "deco/assembler.h"
#include "deco/planner.h"
#include "node/actor.h"
#include "node/ingest.h"
#include "node/query.h"
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
///  - `kAsync`— calculate continuously with the latest received
///              prediction, never blocking on the root (§4.2.3), bounded
///              by `max_unverified_windows` (backpressure / memory bound,
///              §4.3.2).

namespace deco {

/// \brief Which Deco scheme a topology runs.
enum class DecoScheme : uint8_t {
  kMon = 0,
  kSync = 1,
  kAsync = 2,
};

const char* DecoSchemeToString(DecoScheme scheme);

/// \brief Local-node tunables.
struct DecoLocalOptions {
  /// Async only: how many windows may be in flight beyond the last
  /// root-verified one before the local node blocks (memory bound, and the
  /// staleness bound of the size/delta values the node plans with).
  uint64_t max_unverified_windows = 4;

  /// Deco_monlocal (paper §5.1 microbenchmark): exchange event rates with
  /// the *other local nodes* instead of the root and apportion the local
  /// window size locally; the root only verifies, aggregates, and signals
  /// the start of the next window. Only meaningful with `kMon`.
  bool peer_rate_exchange = false;

  /// Delta divisor used by the peer-exchange mode (no root predictor is
  /// available): delta = max(1, size / divisor).
  uint64_t peer_delta_divisor = 8;

  /// While blocked with no traffic from the root for this long, re-send
  /// the rate report as a liveness heartbeat. A node removed by a false
  /// suspicion (partitioned or slow, never crashed) has no other way to
  /// resurface: it blocks on an assignment the root stopped sending, and
  /// the root re-admits a removed node the moment it hears from it.
  /// 0 disables.
  TimeNanos heartbeat_nanos = 50 * kNanosPerMilli;
};

/// \brief Deco local node actor.
class DecoLocalNode final : public Actor {
 public:
  DecoLocalNode(NetworkFabric* fabric, NodeId id, Clock* clock,
                RunContext* run, const Topology& topology,
                const IngestConfig& ingest, const QueryConfig& query,
                DecoScheme scheme, DecoLocalOptions options = {});

  /// \brief Installs the multi-query serving registry (DESIGN.md §11);
  /// must be called before the actor starts, must match the root's, and
  /// must outlive the actor. Null (the default) computes only the
  /// constructor query's slice — the pre-serving behavior.
  void set_serve(const QueryRegistry* registry) { serve_ = registry; }

 protected:
  Status Run() override;

 private:
  /// Serves `want` events from the retained deque (pulling fresh events
  /// from the generator as needed); returns the count actually served
  /// (less than `want` only at end of stream).
  size_t TakeRegion(size_t want, std::vector<TimedEvent>* out);

  /// Pulls one ingest batch into the retained deque; false at EOS.
  bool PullIntoRetained();

  /// Produces and ships the three regions of window `w`.
  Status ProduceWindow(uint64_t w, const SlicePlan& plan);

  /// Dispatches one control message; updates assignment/epoch state.
  Status HandleControl(const Message& msg);

  /// Responds to a correction request (full region or top-up).
  Status HandleCorrectionRequest(const Message& msg);

  /// `Send` wrapper that turns the fabric's NodeFailed (this node was
  /// crashed by the chaos controller) into the `crashed_` flag instead of
  /// an error: a dead host doesn't observe its own failed sends.
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
  QueryConfig query_;
  DecoScheme scheme_;
  DecoLocalOptions options_;

  std::unique_ptr<IngestSource> source_;
  std::unique_ptr<AggregateFunction> func_;

  // Multi-query serving layer (DESIGN.md §11): the shared slice store
  // computes every active aggregate slot in one pass over each pane; the
  // accounting splits the produced bytes/ops across tenants. Unused when
  // `serve_` is null.
  const QueryRegistry* serve_ = nullptr;
  SliceStore slice_store_;
  ServeAccounting accounting_;
  // Shared pane length: the registry's gcd when serving, else the
  // constructor query's protocol window length.
  uint64_t pane_length_ = 0;

  // Raw events not yet covered by a root watermark, in stream order.
  std::deque<TimedEvent> retained_;
  // Index into `retained_` of the first event not yet assigned to a region.
  size_t cursor_ = 0;

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
