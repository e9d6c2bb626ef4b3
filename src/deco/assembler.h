#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "agg/aggregate.h"
#include "common/result.h"
#include "event/event.h"
#include "net/message.h"
#include "node/protocol.h"
#include "serve/slice_store.h"

/// \file assembler.h
/// \brief Root-side assembly of global count windows from local slices and
/// raw edge regions — the heart of Deco's verification step
/// (paper §4.2.2/§4.2.3, Algorithms 3 and 5; exact semantics per
/// DESIGN.md §4.1).
///
/// For global window `w` the root holds, per local node, in the node's
/// stream order:
///
///   [ leftover raw (carried from window w-1) | Fbuffer raw | slice | Ebuffer raw ]
///   `------------------ forced -------------------------'   `- selectable -'
///
/// Forced events *must* belong to window `w` (the aggregated slice cannot
/// be split, and everything before it in the node's stream precedes it).
/// The remaining `l_global − forced` events are selected from the
/// selectable raw regions in the deterministic global order. The window is
/// *verified* — provably identical to the Central ground truth — iff
///  (1) `forced <= l_global`                          (Eq. 6 / Eq. 14),
///  (2) enough selectable events exist                (Eq. 5 / Eq. 15),
///  (3) every non-finished node keeps at least one selectable event
///      excluded (the cut is bounded below the node's unshipped stream),
///  (4) the largest forced key precedes the first excluded key (the cut
///      did not fall inside any slice or forced region).
/// Any violation is a prediction error and triggers the correction step.

namespace deco {

class ProvenanceTracker;

/// \brief Total-order key of an event: `(timestamp, stream, id)`.
struct EventKey {
  EventTime ts = INT64_MIN;
  StreamId stream = 0;
  EventId id = 0;

  static EventKey Of(const Event& e) {
    return EventKey{e.timestamp, e.stream_id, e.id};
  }

  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.stream != b.stream) return a.stream < b.stream;
    return a.id < b.id;
  }
  friend bool operator==(const EventKey& a, const EventKey& b) {
    return a.ts == b.ts && a.stream == b.stream && a.id == b.id;
  }
  friend bool operator<=(const EventKey& a, const EventKey& b) {
    return a < b || a == b;
  }
};

/// \brief Raw event plus its latency side-channel creation time.
struct TimedEvent {
  Event event;
  double create_nanos = 0.0;
};

/// \brief A fully assembled (verified or corrected) global window.
struct WindowAssembly {
  Partial partial;

  /// Per-slot partials of the multi-query serving layer (DESIGN.md §11);
  /// empty unless a `SlotBank` is installed. `slots[0]` mirrors `partial`;
  /// slots inactive at this window hold an empty partial.
  std::vector<Partial> slots;

  uint64_t event_count = 0;

  /// Events consumed from each local node (the "actual local window
  /// sizes" l_{a,Gi} of the paper).
  std::vector<uint64_t> consumed;

  /// Key of the window's last event — becomes the watermark sent to the
  /// local nodes.
  EventKey watermark;

  /// Latency side-channel: weighted mean creation time of covered events
  /// and the number of events with meta available.
  double create_mean = 0.0;
  uint64_t create_count = 0;
};

/// \brief Streaming assembler for consecutive global windows.
///
/// Inputs arrive tagged with their global window index; `TryAssemble`
/// processes windows strictly in order. Not thread-safe (lives on the root
/// actor thread).
class WindowAssembler {
 public:
  /// \param num_nodes local node count
  /// \param func aggregation function; not owned
  /// \param global_size the query's global window length in events
  WindowAssembler(size_t num_nodes, const AggregateFunction* func,
                  uint64_t global_size);

  /// \brief Adds the slice summary of node `node` for window `w`.
  Status AddSlice(uint64_t w, size_t node, SliceSummary slice,
                  double create_mean);

  /// \brief Adds raw events of the given role for window `w`. An empty
  /// vector still marks the region as received.
  Status AddRaw(uint64_t w, size_t node, BatchRole role, EventVec events,
                double create_mean);

  /// \brief Marks a node as end-of-stream: missing regions no longer block
  /// assembly and the cut-bounding check is waived for it.
  void MarkEos(size_t node);

  /// \brief Removes a failed node: pending contributions and leftovers are
  /// dropped; subsequent windows are assembled from the remaining nodes.
  void RemoveNode(size_t node);

  /// \brief Re-admits a previously removed node (rejoin protocol,
  /// DESIGN.md §6): clears its removed/EOS flags and discards any stale
  /// per-window state so the correction step rebuilds its contribution
  /// from the node's full retained resend.
  void ReadmitNode(size_t node);

  bool IsEos(size_t node) const { return eos_[node]; }
  bool IsRemoved(size_t node) const { return removed_[node]; }

  /// \brief Index of the next window to assemble.
  uint64_t next_window() const { return next_window_; }

  /// \brief True when node `node` has delivered its slice and end region
  /// for the window currently being assembled — used by failure detection
  /// to distinguish a dead node (missing inputs) from a merely idle one.
  bool HasWindowInputs(size_t node) const {
    auto it = pending_.find(next_window_);
    if (it == pending_.end() || it->second.nodes.empty()) return false;
    const NodeWindowState& st = it->second.nodes[node];
    return st.slice.has_value() && st.end_done;
  }

  /// \brief Declares that local nodes ship front buffers (Deco_async):
  /// the selectable cut region of window `w` then extends into window
  /// `w+1`'s front buffer, and assembly waits for it when the cut cannot
  /// be bounded otherwise.
  void set_expect_front(bool expect) { expect_front_ = expect; }

  enum class Outcome {
    kNotReady,         ///< waiting for more input
    kAssembled,        ///< verified window produced
    kNeedCorrection,   ///< prediction error (paper Eq. 5/6/14/15 violated)
    kEndOfStream,      ///< all nodes EOS; remaining events < one window
  };

  /// \brief Attempts to assemble and verify `next_window()`. On
  /// `kAssembled` the internal state advances (leftovers carried over,
  /// window counter incremented).
  Outcome TryAssemble(WindowAssembly* out);

  // --- Correction step (paper §4.3.1/§4.3.2) ---------------------------

  /// \brief Enters correction mode for `next_window()`: all pending
  /// per-window inputs and leftovers are discarded (local nodes will
  /// resend the full raw region and re-plan subsequent windows).
  void BeginCorrection();

  /// \brief Installs node `node`'s full retained raw region (its
  /// `CorrectionResponse`). Appends on repeated calls (top-ups).
  Status AddCandidates(size_t node, const EventVec& events,
                       double create_mean);

  /// \brief Declares that node `node`'s candidate list is its complete
  /// remaining stream (its budget is exhausted): no top-up can extend it,
  /// and the cut-bounding requirement is waived for it. Scoped to the
  /// current correction.
  void MarkCandidatesComplete(size_t node);

  /// \brief Discards node `node`'s candidate state so the root can
  /// re-solicit its full retained region after a lost request/response
  /// (drop or partition chaos); the fresh full response replaces, not
  /// appends to, whatever this round had accumulated.
  void ClearCandidates(size_t node);

  enum class CorrectionOutcome {
    kAssembled,  ///< exact window produced
    kNeedMore,   ///< request top-up batches from the nodes in `need_more`
    kEndOfStream,///< all nodes EOS; cannot fill a window
  };

  /// \brief Attempts the centralized fallback assembly from candidates.
  /// On `kNeedMore`, `need_more` lists nodes whose candidate list must be
  /// extended (they have no excluded event bounding the cut).
  CorrectionOutcome TryAssembleCorrected(WindowAssembly* out,
                                         std::vector<size_t>* need_more);

  /// \brief True when in correction mode.
  bool correcting() const { return correcting_; }

  /// \brief Events currently buffered at the root (leftovers + pending raw
  /// + candidates); memory accounting for tests.
  size_t buffered_events() const;

  /// \brief Raw events of `node` carried over into the next window (the
  /// paper's per-node share of the previous root buffer). The root
  /// subtracts this from the node's next assignment: those events are
  /// already at the root, so the local node must only supply the rest.
  uint64_t leftover_size(size_t node) const {
    return node < leftover_.size() ? leftover_[node].size() : 0;
  }

  /// \brief Installs the multi-query slot bank (serve layer, DESIGN.md
  /// §11); may be null (the default — single-aggregate assembly, `slots`
  /// left empty). Not owned. When set, every verified or corrected window
  /// also carries per-slot partials: raw events are accumulated into every
  /// slot active at the window's pane, slice extras are merged into their
  /// slots, and a slice missing an expected active slot triggers the
  /// correction fallback (which recomputes every slot exactly from raws).
  void set_slot_bank(const SlotBank* bank) { slot_bank_ = bank; }

  /// \brief Provenance collection point (src/obs/provenance.h); may be
  /// null (the default — no recording). Not owned. Region acceptance,
  /// duplicates, EOS, removal/readmission and correction restarts are
  /// reported exactly where this assembler acts on them, so a provenance
  /// record can never claim an input the assembly did not use.
  void set_provenance(ProvenanceTracker* tracker) { provenance_ = tracker; }

  /// \brief Signed carryover of `node` after the last assembled window:
  /// positive = unselected end events held at the root; negative = the cut
  /// extended into the next window's front buffer by that many events.
  /// The async recentering control uses this uncensored value.
  int64_t carry(size_t node) const {
    return node < carry_.size() ? carry_[node] : 0;
  }

 private:
  struct NodeWindowState {
    std::optional<SliceSummary> slice;
    double slice_create = 0.0;
    bool front_done = false;
    std::vector<TimedEvent> front;
    double front_create = 0.0;
    bool end_done = false;
    std::vector<TimedEvent> end;
    double end_create = 0.0;
  };

  struct PendingWindow {
    std::vector<NodeWindowState> nodes;
  };

  PendingWindow& GetWindow(uint64_t w);

  size_t num_nodes_;
  const AggregateFunction* func_;
  uint64_t global_size_;
  uint64_t next_window_ = 0;
  bool expect_front_ = false;
  ProvenanceTracker* provenance_ = nullptr;
  const SlotBank* slot_bank_ = nullptr;

  std::vector<std::deque<TimedEvent>> leftover_;
  std::vector<int64_t> carry_;
  std::map<uint64_t, PendingWindow> pending_;
  std::vector<bool> eos_;
  std::vector<bool> removed_;

  // Correction state.
  bool correcting_ = false;
  std::vector<std::vector<TimedEvent>> candidates_;
  std::vector<bool> candidates_present_;
  std::vector<bool> candidates_complete_;
};

}  // namespace deco
