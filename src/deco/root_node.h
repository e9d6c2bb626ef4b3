#pragma once

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "deco/assembler.h"
#include "deco/local_node.h"
#include "deco/predictor.h"
#include "metrics/report.h"
#include "node/actor.h"
#include "node/query.h"
#include "node/topology.h"
#include "serve/composer.h"
#include "serve/registry.h"
#include "serve/slice_store.h"

/// \file root_node.h
/// \brief Deco root node (paper §4.2): runs prediction, verification and
/// correction for consecutive global windows, emits final results, and
/// drives the per-scheme flow pattern:
///
///  - `kMon`  — waits for fresh rate reports each window and apportions
///              the measured local window sizes (paper §4.2.1);
///  - `kSync` — sends predicted sizes immediately after each verification
///              (Algorithm 1/3);
///  - `kAsync`— same, but local nodes never wait for them; on a prediction
///              error the epoch is bumped so stale in-flight messages from
///              rolled-back windows are discarded (Algorithm 5, §4.3.2).

namespace deco {

/// \brief Root-node tunables.
struct DecoRootOptions {
  /// Delta-history length `m` (paper §4.2.2, last paragraph).
  size_t predictor_history_m = 4;

  /// Minimum delta (raw edge width); >= 1 for exactness.
  uint64_t delta_floor = 1;

  /// Safety factor widening the averaged delta (1.0 = paper's literal
  /// Eq. 2; larger trades a slightly wider raw edge for fewer
  /// corrections).
  double delta_multiplier = 2.0;

  /// Bootstrap slack: before the predictor has history, delta is
  /// `max(delta_floor, share / bootstrap_slack_divisor)`.
  uint64_t bootstrap_slack_divisor = 8;

  /// Top-up request size during corrections, in events.
  uint64_t correction_topup = 4096;

  /// Per-node silence timeout for failure detection; 0 disables
  /// (paper §4.3.4). Wall-clock nanoseconds.
  TimeNanos node_timeout_nanos = 0;

  /// Deco_monlocal (paper §5.1 microbenchmark): local nodes apportion
  /// window sizes among themselves; the root only verifies results and
  /// signals window starts. Must match the local nodes'
  /// `DecoLocalOptions::peer_rate_exchange`.
  bool peer_rate_exchange = false;
};

/// \brief Deco root actor.
class DecoRootNode final : public Actor {
 public:
  /// \param report filled on the actor thread; read after `Join`. Not
  ///        owned.
  DecoRootNode(NetworkFabric* fabric, NodeId id, Clock* clock,
               RunContext* run, const Topology& topology,
               const QueryConfig& query, DecoScheme scheme, RunReport* report,
               DecoRootOptions options = {});

  /// \brief Installs a provenance collection point (src/obs/provenance.h);
  /// must be called before the actor starts. The root shares it with its
  /// assembler and adds the control-plane events the assembler cannot see
  /// (correction solicits, incarnation reports, emission). May be null
  /// (the default — no recording); not owned.
  void set_provenance(ProvenanceTracker* tracker) { provenance_ = tracker; }

  /// \brief Installs the multi-query serving registry (DESIGN.md §11);
  /// must be called before the actor starts and must outlive it. Null (the
  /// default) serves the constructor's single query through an internal
  /// registry — behaviorally identical to the pre-serving protocol.
  void set_serve(const QueryRegistry* registry) { serve_ = registry; }

 protected:
  Status Run() override;

 private:
  Status Dispatch(const Message& msg);
  Status Progress();

  /// Refreshes the live-progress gauges (`root.next_window`,
  /// `root.correcting`, `root.nodes_live`) the ops plane scrapes.
  void UpdateOpsGauges();

  /// Emits the assembled protocol window (one *pane* of the shared pane
  /// length) into every registered query's composer; a query whose window
  /// the pane completes emits a per-query window record, and the primary
  /// query additionally feeds the legacy report surfaces (windows list,
  /// latency histogram, emit counters/spans).
  Status EmitProtocolWindow(const WindowAssembly& assembly, bool corrected);

  /// Fires every pending runtime add/remove whose requested pane is at or
  /// before the pane about to be emitted: picks the effective pane (past
  /// every local's planning horizon), updates the slot schedule and the
  /// query's composer, and broadcasts `kQueryAdd`/`kQueryRemove`.
  Status ProcessServeTriggers(uint64_t pane);
  Status BroadcastQueryUpdate(const QueryUpdate& update);

  /// Sends the authoritative slot schedule (`kQueryConfig` payload) to one
  /// local, or to all of them (`node == SIZE_MAX`). Re-broadcast on every
  /// correction and rejoin so a lost add/remove cannot wedge a local on a
  /// stale slot set.
  Status SendServeSnapshot(size_t node);
  Status StartCorrection();

  /// Sends one correction request (full resend when `topup == 0`), tagged
  /// with the current epoch and the verified watermark so a rejoining
  /// local can drop already-emitted retained events.
  Status SendCorrectionRequest(size_t node, uint64_t topup);

  /// Re-admits a restarted local (kRejoin): scrubs its assembler state,
  /// resets its predictor, and folds it into a (possibly new) correction
  /// so it contributes again from its durable retained queue.
  Status HandleRejoin(size_t node, const RateReport& report);
  Status FinishWindow(const WindowAssembly& assembly, bool corrected);
  Status MaybeSendAssignments();
  Status SendAssignment(size_t node, const WindowAssignment& assignment);
  Status BroadcastShutdown();
  Status CheckNodeTimeouts();

  /// True when every live node's rate report for `w` has arrived.
  bool RatesComplete(uint64_t w) const;

  Topology topology_;
  QueryConfig query_;
  DecoScheme scheme_;
  RunReport* report_;
  DecoRootOptions options_;

  std::unique_ptr<AggregateFunction> func_;
  std::unique_ptr<WindowAssembler> assembler_;
  std::vector<LocalWindowPredictor> predictors_;
  std::vector<uint64_t> last_consumed_;

  // Latest instantaneous event rate reported by each node (via rate
  // reports and slice summaries). The paper derives "actual local window
  // sizes" from these rates (Â§4.2.2); feeding the predictor with
  // rate-apportioned estimates (instead of the verification-capped
  // consumed counts) keeps the delta tracking true drift.
  std::vector<double> latest_rates_;

  // Rate reports per window (mon every window; others only window 0).
  // `rates_received_[w][n]` is a per-node flag, not a count: blocked local
  // nodes re-send their report as a liveness heartbeat, and duplicates
  // must not satisfy `RatesComplete` early.
  std::map<uint64_t, std::vector<double>> rates_;
  std::map<uint64_t, std::vector<bool>> rates_received_;

  // Assignment gating: the next window whose assignment has not been sent.
  uint64_t assignment_window_ = 0;
  EventKey last_watermark_;

  // --- Multi-query serving layer (DESIGN.md §11) ----------------------
  // The protocol assembles *panes* of `pane_length_` events (the gcd over
  // all registered queries); each query re-composes its windows from the
  // panes of its aggregate slot.
  const QueryRegistry* serve_ = nullptr;
  QueryRegistry fallback_registry_;  ///< single-query default
  SlotBank slot_bank_;
  uint64_t pane_length_ = 0;
  // Per-node consumption is tracked only when panes and primary windows
  // are 1:1 (the legacy tumbling case the differential tests check).
  bool track_consumption_ = false;
  // True when there is anything to synchronize beyond slot 0 (extra slots
  // or a runtime schedule); gates the `kQueryConfig` re-sync broadcasts.
  bool serve_sync_needed_ = false;
  struct ServeQueryState {
    std::unique_ptr<QueryComposer> composer;
  };
  std::vector<ServeQueryState> serve_states_;
  // Requested runtime transitions, sorted by pane (adds before removes at
  // the same pane); drained as the emitted pane index passes them.
  struct ServeTrigger {
    uint64_t pane = 0;
    size_t query = 0;
    bool add = true;
  };
  std::deque<ServeTrigger> serve_triggers_;
  // Emitted protocol panes (provenance pane ordinal; equals the legacy
  // emitted-window count when panes and primary windows are 1:1).
  uint64_t panes_seen_ = 0;

  uint64_t epoch_ = 0;
  bool finished_ = false;
  ProvenanceTracker* provenance_ = nullptr;
  // Causal id of the message currently being processed (`Dispatch` sets
  // it); emit/correct spans carry it so the critical-path analyzer can
  // identify the exact hop that completed a window.
  uint64_t causal_msg_id_ = 0;
  // True when the most recently finished window needed a correction: the
  // next assignment doubles as the rollback signal and must not be gated
  // on fresh rate reports (exhausted locals never send them — deadlock).
  bool last_window_corrected_ = false;

  // Correction bookkeeping. `correction_round_` is the per-node round id
  // carried by the latest solicitation (responses to older rounds are
  // stale); `correction_requested_at_` drives the lost-message retry in
  // `CheckNodeTimeouts` — liveness heartbeats keep an unresponsive-but-
  // alive node from ever timing out, so without a retry a single dropped
  // request/response would stall the correction forever.
  std::vector<bool> correction_responded_;
  std::vector<uint64_t> correction_round_;
  std::vector<TimeNanos> correction_requested_at_;
  uint64_t correction_window_ = 0;

  // Failure detection.
  std::vector<TimeNanos> last_heard_;

  // Window-stall detection: `next_window()` and the time it last changed.
  // A dropped data-plane message (partial, event batch, assignment) leaves
  // the current window unassemblable while later traffic keeps every node
  // alive, so neither the removal path nor the correction retry ever
  // fires; a stalled window is repaired with a correction instead.
  uint64_t stall_window_ = 0;
  TimeNanos stall_since_ = 0;

  // Live-progress gauges the ops plane scrapes (/statusz, watchdog): the
  // assembly frontier, whether a correction is in flight, and how many
  // locals the failure detector believes alive. Set on every loop pass, so
  // they are looked up once, on the first pass.
  Gauge* next_window_gauge_ = nullptr;
  Gauge* correcting_gauge_ = nullptr;
  Gauge* nodes_live_gauge_ = nullptr;
};

}  // namespace deco
