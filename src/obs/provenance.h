#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "metrics/report.h"
#include "net/fabric.h"
#include "obs/governance.h"

/// \file provenance.h
/// \brief Per-window provenance records and live accuracy attribution
/// (DESIGN.md §10).
///
/// The root assembles, for every emitted global window, a *provenance
/// record*: which locals contributed (with their fabric incarnations),
/// how many partials were expected / received / missing, how many
/// correction rounds were applied, the per-partial staleness (arrival
/// time minus the partial's mean event-creation time) and the window's
/// provisional → correcting → corrected → final state transitions.
///
/// The `ProvenanceTracker` is the collection point. It is driven from the
/// root actor thread only (hooks are not thread-safe) by three layers:
///   - the `WindowAssembler` reports accepted data-plane regions exactly
///     where it accepts them (slice / front / end raw / correction
///     responses), so a record can never claim a partial the assembler
///     did not use;
///   - the root node reports control-plane transitions (correction begin
///     and solicits, EOS, node removal / rejoin, window emission);
///   - baseline roots without a Deco data plane synthesize one-partial
///     records at emission (`OnSynthesizedWindow`).
///
/// Bookkeeping contract (asserted by tests and the CI smoke): for every
/// part and for every window's totals, `expected == received + missing`.
/// `received` only counts regions the assembler accepted, so it can never
/// exceed `expected`; regions discarded by a correction restart are moved
/// to `discarded`, and re-deliveries of an already-accepted region land in
/// `duplicates`.
///
/// Accuracy attribution (`WindowAccuracy`) is produced after the run by
/// the harness oracle tap (`AttributeWindowError`, src/harness/oracle.h)
/// and appended to the same `ProvenanceLog`; the tracker itself never
/// looks at event values.

namespace deco {

/// \brief Lifecycle state of a window's result.
enum class ProvState : uint8_t {
  kProvisional,  ///< inputs arriving, verification not yet attempted/passed
  kCorrecting,   ///< prediction error; correction round(s) in flight
  kCorrected,    ///< assembled after a correction
  kFinal,        ///< emitted (terminal)
};

const char* ProvStateToString(ProvState state);

/// \brief Data-plane region kinds a local contributes to one window.
enum class ProvRegion : uint8_t {
  kSlice,       ///< aggregated slice summary
  kFront,       ///< front raw buffer (Deco_async)
  kEnd,         ///< end raw buffer
  kCorrection,  ///< full retained-region correction response
};

const char* ProvRegionToString(ProvRegion region);

/// \brief One local node's contribution to one window.
struct PartialProvenance {
  size_t node = 0;
  /// Fabric incarnation of the node at emission time (number of completed
  /// crash → restart transitions; 0 for a never-crashed node). Filled from
  /// the node's last protocol report when available, else read from the
  /// fabric directly.
  uint64_t incarnation = 0;
  uint64_t expected = 0;    ///< regions the root planned to use
  uint64_t received = 0;    ///< regions the assembler accepted
  uint64_t missing = 0;     ///< expected - received, finalized at emission
  uint64_t duplicates = 0;  ///< re-deliveries of already-accepted regions
  uint64_t discarded = 0;   ///< accepted regions thrown away by a correction
  /// Sum / count of (arrival wall time - region mean creation time) over
  /// accepted regions that carried creation metadata.
  double staleness_sum_nanos = 0.0;
  uint64_t staleness_samples = 0;

  double MeanStalenessNanos() const {
    return staleness_samples == 0 ? 0.0
                                  : staleness_sum_nanos /
                                        static_cast<double>(staleness_samples);
  }
};

/// \brief One state transition of a window's result.
struct ProvTransition {
  ProvState state = ProvState::kProvisional;
  TimeNanos at_nanos = 0;
  /// Correction round in effect when the transition happened (0 outside
  /// corrections).
  uint64_t correction_round = 0;
};

/// \brief Full provenance of one emitted global window.
struct WindowProvenance {
  /// Index in the run report's window order (`RunReport::windows`).
  uint64_t window_index = 0;
  bool corrected = false;          ///< needed a correction
  uint64_t correction_rounds = 0;  ///< solicit rounds actually applied
  TimeNanos emit_nanos = 0;        ///< root wall-clock at emission
  uint64_t expected_total = 0;
  uint64_t received_total = 0;
  uint64_t missing_total = 0;
  uint64_t duplicate_total = 0;
  /// Window-level staleness totals, summed over every contributing part.
  /// Filled in both full and compact modes so summaries never need the
  /// per-part list.
  double staleness_sum_nanos = 0.0;
  uint64_t staleness_samples = 0;
  /// Compact (governed) form, DESIGN.md §13: set when cardinality
  /// governance collapsed the per-part list. `contributor_bits` is a
  /// bitmap over node ordinals (word i, bit b ⇒ node 64*i+b had at least
  /// one accepted region); `parts` then holds only bounded anomaly
  /// exemplars — nodes with missing, duplicate or discarded regions, or a
  /// nonzero incarnation — and `exemplars_dropped` counts the anomalous
  /// parts beyond that bound. The window totals above are still computed
  /// over ALL nodes, so `expected_total == received_total + missing_total`
  /// holds regardless of how many exemplars were kept.
  bool compact = false;
  uint64_t contributor_count = 0;  ///< nodes with received > 0 (both modes)
  std::vector<uint64_t> contributor_bits;
  uint64_t exemplars_dropped = 0;
  /// Contributing locals, node-ordinal order; only nodes with any
  /// expected/received/discarded activity appear. In compact mode this is
  /// the bounded exemplar list instead.
  std::vector<PartialProvenance> parts;
  /// State history ending in `kFinal`.
  std::vector<ProvTransition> transitions;
};

/// \brief Live error estimate of one emitted window, decomposed by
/// mechanism. Invariant (checked by tests, the CI smoke and
/// tools/check_bench_json.py): `drop_error + staleness_error +
/// approx_error == observed_error` (within 1% of |observed_error|; the
/// construction is exact up to floating-point rounding).
struct WindowAccuracy {
  uint64_t window_index = 0;
  double emitted_value = 0.0;     ///< what the scheme reported
  double truth_value = 0.0;       ///< oracle value of the same window index
  double recomputed_value = 0.0;  ///< exact aggregate of what was consumed
  double observed_error = 0.0;    ///< emitted - truth
  /// Error from oracle-window events the run never consumed (crashed or
  /// removed locals).
  double drop_error = 0.0;
  /// Error from events consumed in a different window than the oracle's
  /// (asynchronous boundary drift). Zero for the approximate scheme, whose
  /// boundary deviation is attributed below.
  double staleness_error = 0.0;
  /// Error from approximation: fixed-share apportionment boundaries plus
  /// any gap between the emitted and the recomputed value.
  double approx_error = 0.0;
  uint64_t dropped_events = 0;      ///< oracle events never consumed
  uint64_t shifted_in_events = 0;   ///< consumed here, oracle says elsewhere
  uint64_t shifted_out_events = 0;  ///< oracle says here, consumed elsewhere
};

/// \brief Provenance of one composed query window (multi-query serving
/// layer, DESIGN.md §11): which protocol panes the window was built from.
/// Pane-level input detail lives in the matching `WindowProvenance`
/// records (keyed by pane ordinal); this record only adds the
/// (query, window) → pane-range mapping.
struct QueryWindowProvenance {
  uint32_t query_id = 0;
  uint64_t window_index = 0;  ///< per-query window order
  uint64_t first_pane = 0;    ///< pane indices, inclusive
  uint64_t last_pane = 0;
  bool corrected = false;     ///< any covered pane needed a correction
};

/// \brief Everything one run's provenance collection produces.
struct ProvenanceLog {
  std::vector<WindowProvenance> windows;  ///< emission order
  /// Per-window accuracy estimates: every window under --sim, a
  /// deterministic seeded reservoir in wall-clock runs. Window-index order.
  std::vector<WindowAccuracy> accuracy;
  /// Composed query windows (multi-query runs; empty otherwise). Emission
  /// order, which interleaves queries.
  std::vector<QueryWindowProvenance> query_windows;
  uint64_t windows_dropped = 0;  ///< records beyond the retention cap
};

/// \brief Collection point for provenance records (root thread only).
class ProvenanceTracker {
 public:
  /// \param num_nodes local node count (part slots per window)
  /// \param regions_per_window data-plane regions one live node ships per
  ///        window: 2 for Deco sync/mon (slice + end), 3 for Deco async
  ///        (slice + front + end), 1 for single-partial baselines
  ProvenanceTracker(size_t num_nodes, uint64_t regions_per_window);

  /// \brief Arrival wall-clock for subsequent data-plane hooks; the owning
  /// root sets this once per dispatched message.
  void set_now_nanos(TimeNanos now) { now_nanos_ = now; }

  /// \brief Incarnation fallback: read the live counter from the fabric
  /// when no protocol report carried one. `node_ids[i]` is local ordinal
  /// `i`'s fabric id. Fabric not owned.
  void SetFabric(const NetworkFabric* fabric, std::vector<NodeId> node_ids);

  /// \brief Caps retained window records; further emissions only bump
  /// `windows_dropped`. 0 = unbounded.
  void set_max_windows(size_t cap) { max_windows_ = cap; }

  /// \brief Cardinality governance (DESIGN.md §13). When the node count
  /// exceeds the detail limit, emitted records switch to the compact form:
  /// contributor bitmap + bounded anomaly exemplars instead of one
  /// `PartialProvenance` per node. Totals stay exact either way.
  void SetGovernance(const ObsGovernance& governance) {
    governance_ = governance;
  }
  const ObsGovernance& governance() const { return governance_; }

  // --- control plane (root node) ---------------------------------------

  /// \brief Latest incarnation a protocol message reported for `node`.
  void OnIncarnation(size_t node, uint64_t incarnation);

  void OnEos(size_t node);
  void OnNodeRemoved(size_t node);
  void OnNodeRejoined(size_t node);

  /// \brief Correction entered for window `w`: accepted data regions of
  /// windows >= `w` are discarded (mirrors `WindowAssembler::
  /// BeginCorrection`); `w` itself owes no further data region.
  void OnCorrectionBegin(uint64_t w);

  /// \brief A correction request (one round) was sent to `node` for `w`.
  void OnCorrectionSolicit(uint64_t w, size_t node);

  // --- data plane (assembler accept path) -------------------------------

  /// \brief The assembler accepted a data region. `create_mean_nanos` is
  /// the region's mean event-creation wall time (0 when absent).
  void OnRegion(uint64_t w, size_t node, ProvRegion region,
                double create_mean_nanos);

  /// \brief A region arrived again after having been accepted.
  void OnDuplicate(uint64_t w, size_t node, ProvRegion region);

  /// \brief The assembler accepted a correction response (or top-up).
  void OnCorrectionResponse(uint64_t w, size_t node, double create_mean_nanos);

  // --- emission ----------------------------------------------------------

  /// \brief Window `protocol_window` was assembled and emitted as report
  /// window `report_index`. Finalizes the record: missing counts, EOS
  /// waivers, incarnations, the terminal transition.
  void OnWindowEmitted(uint64_t protocol_window, uint64_t report_index,
                       bool corrected, TimeNanos emit_nanos);

  /// \brief Single-partial emission for baseline roots (Central / Scotty /
  /// Disco): every node in `live` contributed its merged stream directly,
  /// so expected == received == 1 per live node. `create_mean_nanos`
  /// yields a shared staleness sample per part.
  void OnSynthesizedWindow(uint64_t report_index,
                           const std::vector<bool>& live,
                           double create_mean_nanos, TimeNanos emit_nanos);

  /// \brief A composed query window was emitted (serving layer): query
  /// `query_id`'s window `window_index` covers protocol panes
  /// `[first_pane, last_pane]`. Not subject to the window retention cap
  /// (the record is a few words, and per-query window counts are what the
  /// multi-query tests assert on).
  void OnQueryWindowEmitted(uint32_t query_id, uint64_t window_index,
                            uint64_t first_pane, uint64_t last_pane,
                            bool corrected);

  /// \brief Collected records (accuracy is appended later by the harness).
  ProvenanceLog TakeLog();

  const ProvenanceLog& log() const { return log_; }

 private:
  struct PartSlot {
    uint64_t expected_data = 0;
    uint64_t received_data = 0;
    uint64_t expected_corr = 0;
    uint64_t received_corr = 0;
    uint64_t duplicates = 0;
    uint64_t discarded = 0;
    double staleness_sum_nanos = 0.0;
    uint64_t staleness_samples = 0;
    bool touched = false;  ///< node appears in the emitted record
  };

  struct WindowSlot {
    std::vector<PartSlot> parts;
    std::vector<ProvTransition> transitions;
    bool correcting = false;
    uint64_t correction_rounds = 0;
  };

  WindowSlot& GetSlot(uint64_t w);
  void AddStaleness(PartSlot* part, double create_mean_nanos);
  uint64_t IncarnationOf(size_t node) const;

  size_t num_nodes_;
  uint64_t regions_per_window_;
  TimeNanos now_nanos_ = 0;
  size_t max_windows_ = 0;
  ObsGovernance governance_;

  const NetworkFabric* fabric_ = nullptr;
  std::vector<NodeId> node_ids_;
  std::vector<uint64_t> reported_incarnation_;
  std::vector<bool> has_reported_incarnation_;

  std::vector<bool> eos_;
  std::vector<bool> removed_;

  std::map<uint64_t, WindowSlot> open_;
  ProvenanceLog log_;
};

/// \brief Aggregates a log into the `RunReport::provenance` summary POD
/// (metrics/report.h keeps the POD so it need not depend on this header).
ProvenanceSummary ComputeProvenanceSummary(const ProvenanceLog& log);

/// \brief Deterministic JSON object rendering of a log (the `provenance`
/// section of telemetry schema v4 and of `deco_run --provenance_out`).
std::string ProvenanceJson(const ProvenanceLog& log);

/// \brief Writes `{"schema_version": 1, "scheme": ..., "provenance": ...}`
/// to `path`.
Status WriteProvenanceJson(const std::string& path, const std::string& scheme,
                           const ProvenanceLog& log);

}  // namespace deco
