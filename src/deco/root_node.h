#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "deco/assembler.h"
#include "deco/local_node.h"
#include "deco/predictor.h"
#include "metrics/report.h"
#include "node/actor.h"
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
///              rolled-back windows are discarded (Algorithm 5, §4.3.2);
///  - `kMonLocal` — the locals apportion each window among themselves;
///              the assignment only signals the window start and carries
///              each node's root-buffer carryover.

namespace deco {

/// \brief Root-node tunables.
struct DecoRootOptions {
  /// Delta-history length `m` (paper §4.2.2, last paragraph).
  size_t predictor_history_m = 4;

  /// Minimum delta (raw edge width); >= 1 for exactness.
  uint64_t delta_floor = 1;

  /// Safety factor widening the averaged delta (1.0 = paper's literal
  /// Eq. 2; larger trades a slightly wider raw edge for fewer
  /// corrections). 0 derives it from the number of locals
  /// (`FleetDeltaMultiplier`), since a window needs a correction when any
  /// one of them misses.
  double delta_multiplier = 0.0;

  /// Per-node silence timeout for failure detection; 0 disables
  /// (paper §4.3.4). Wall-clock nanoseconds.
  TimeNanos node_timeout_nanos = 0;
};

/// \brief Deco root actor.
class DecoRootNode final : public Actor {
 public:
  /// \param registry the served query set (DESIGN.md §11), a one-entry
  ///        registry for a single query; its first query is the primary.
  ///        Must outlive the actor. Not owned.
  /// \param report filled on the actor thread; read after `Join`. Not
  ///        owned.
  DecoRootNode(NetworkFabric* fabric, NodeId id, Clock* clock,
               RunContext* run, const Topology& topology,
               const QueryRegistry* registry, DecoScheme scheme,
               RunReport* report, DecoRootOptions options = {});

  /// \brief Installs a provenance collection point (src/obs/provenance.h);
  /// must be called before the actor starts. The root shares it with its
  /// assembler and adds the control-plane events the assembler cannot see
  /// (correction solicits, incarnation reports, emission). May be null
  /// (the default — no recording); not owned.
  void set_provenance(ProvenanceTracker* tracker) { provenance_ = tracker; }

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
  /// query's composer, and sends the locals the new schedule.
  Status ProcessServeTriggers(uint64_t pane);

  /// Sends the authoritative slot schedule (`kQueryConfig` payload) to one
  /// local, or to all of them (`node == SIZE_MAX`): the one way a local
  /// learns its slots. Sent with every runtime add/remove, and again on
  /// every correction and rejoin, so a lost snapshot cannot wedge a local
  /// on a stale slot set.
  Status SendServeSnapshot(size_t node);

  /// Repairs the window `TryAssemble` just failed in place (DESIGN.md
  /// §4.1): asks only the locals its diagnosis names, through ordinary
  /// correction requests at the current epoch. Empties the window instead
  /// when the failure names no local or a response could not advance the
  /// repair.
  Status StartRepair();

  /// True while a correction waits for a response it asked for.
  bool RepairOutstanding() const;

  /// Ends a correction whose window just assembled and emits the window as
  /// corrected. A held window's repair also bumps the epoch and re-sends
  /// the serve snapshot, as emptying the window did, so the next
  /// assignment rolls the locals back either way.
  Status FinishRepair(const WindowAssembly& assembly, bool emptied);

  /// Empties `next_window()` under a new epoch and asks every live node
  /// for it from index 0. Counts one correction, unless it escalates a
  /// repair, which was counted when it began.
  Status StartCorrection();

  /// Asks node `node` for its part of an emptied window: the first
  /// `share + 2 delta` events of its retained stream, or one window + 1,
  /// which bounds the cut on its own, while its predictor is not ready.
  Status SolicitCorrection(size_t node);

  /// Sends one correction request for retained events
  /// `[from_index, from_index + count)`, tagged with the current epoch and
  /// the verified watermark so a rejoining local can drop already-emitted
  /// retained events.
  Status SendCorrectionRequest(size_t node, uint64_t from_index,
                               uint64_t count);

  /// Re-admits a restarted local (kRejoin): scrubs its assembler state,
  /// resets its predictor, and folds it into an emptied window (emptying
  /// the current one unless it already is) so it contributes again from
  /// its durable retained queue.
  Status HandleRejoin(size_t node, const RateReport& report);
  Status FinishWindow(const WindowAssembly& assembly, bool corrected);
  Status MaybeSendAssignments();
  Status SendAssignment(size_t node, const WindowAssignment& assignment);
  Status BroadcastShutdown();
  Status CheckNodeTimeouts();

  /// True when every live node's rate report for `w` has arrived.
  bool RatesComplete(uint64_t w) const;

  Topology topology_;
  const QueryRegistry* registry_;
  DecoScheme scheme_;
  RunReport* report_;
  DecoRootOptions options_;

  std::unique_ptr<WindowAssembler> assembler_;
  std::vector<LocalWindowPredictor> predictors_;
  // `options_.delta_multiplier`, or the fleet-derived one when that is 0.
  double delta_multiplier_ = 0.0;
  // Deco_async: the carry target of each node's latest bootstrap
  // assignment (predictor not ready), until its first predicted assignment
  // passes the step to the predicted layout's target through.
  std::vector<std::optional<double>> bootstrap_target_;
  std::vector<uint64_t> last_consumed_;

  // Latest instantaneous event rate reported by each node (via rate
  // reports and slice summaries). The paper derives "actual local window
  // sizes" from these rates (§4.2.2); feeding the predictor with
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

  // Correction bookkeeping, per node: the latest request's events
  // `[from_index, from_index + count)` and round id (responses to older
  // rounds are stale), when it went out, and whether its response arrived.
  // `sent_at` drives the lost-message retry in `CheckNodeTimeouts` (a held
  // window's repair is emptied instead): liveness heartbeats keep an
  // unresponsive-but-alive node from ever timing out, so without a retry a
  // single dropped request/response would stall the correction forever. A
  // repair marks every node it did not ask as responded.
  struct Ask {
    uint64_t from_index = 0;
    uint64_t count = 0;
    uint64_t round = 0;
    TimeNanos sent_at = 0;
    bool responded = true;
  };
  std::vector<Ask> asks_;
  uint64_t correction_window_ = 0;

  // Failure detection.
  std::vector<TimeNanos> last_heard_;

  // Window-stall detection: `next_window()` and the time it last changed.
  // A dropped data-plane message (partial, event batch, assignment) leaves
  // the current window unassemblable while later traffic keeps every node
  // alive, so neither the removal path nor the correction retry ever
  // fires; a stalled window is emptied instead.
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
