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
/// Any violation is a prediction error, and the root repairs the held
/// window in place (`BeginRepair`): it asks the locals the failed check
/// names for the next events past what it holds (2)/(3) or for the raw
/// events of their slice (1)/(4), and reruns the same verification. A
/// fault that leaves nothing worth holding (a removal, a rejoin, a stall, a
/// repair that cannot advance) first empties the window
/// (`BeginCorrection`), which the same loop then refills from index 0.

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

/// \brief One local's part of an in-place repair (DESIGN.md §4.1): the
/// local ships retained events `[from_index, from_index + count)` through
/// the ordinary `CorrectionRequest`. Index 0 is the first event the root
/// holds for the local in the held window (its leftover, else its front,
/// else its slice), which is the local's first retained event after the
/// last verified watermark.
struct RepairRequest {
  enum class Kind : uint8_t {
    /// Check (3): the local's selectable region was fully selected; ship
    /// the next events past everything the root holds for it.
    kTopUp,
    /// Checks (1)/(4): the cut needs the local's slice split; ship the
    /// slice's raw events, which then join one selectable region with the
    /// local's leftover, front and end.
    kOpenSlice,
  };

  size_t node = 0;
  Kind kind = Kind::kTopUp;
  uint64_t from_index = 0;
  uint64_t count = 0;
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
  /// per-window state so a correction rebuilds its contribution from the
  /// node's retained stream. In an emptied window, the node's part is
  /// emptied again and asked from index 0.
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
    kEndOfStream,      ///< every live node finished; < one window left
  };

  /// \brief Attempts to assemble and verify `next_window()`. On
  /// `kAssembled` the internal state advances (leftovers carried over,
  /// window counter incremented); a repaired window instead ends the
  /// repair and drops what `BeginCorrection` drops, since the locals roll
  /// back after it.
  Outcome TryAssemble(WindowAssembly* out);

  // --- Correction (paper §4.3.2; DESIGN.md §4.1) -----------------------

  /// \brief After `TryAssemble` returned `kNeedCorrection`: enters (or
  /// continues) the repair of the held window and lists what particular
  /// locals must ship. Returns false, changing nothing, when the failure
  /// names no local, or when a response could not advance the repair (an
  /// opened slice of the wrong size, a top-up that brought nothing before
  /// the end of the stream); the caller then empties the window with
  /// `BeginCorrection`. While repairing, inputs for the held window are
  /// stale and dropped; inputs for later windows are still accepted.
  bool BeginRepair(std::vector<RepairRequest>* requests);

  /// \brief Applies node `node`'s response to its repair request.
  /// `end_of_stream` (the response reaches the node's retained end with
  /// its source exhausted) waives the node's cut-bounding check.
  Status AddRepair(size_t node, const EventVec& events, double create_mean,
                   bool end_of_stream);

  /// \brief Empties the held window `next_window()`: drops every held
  /// input (later windows, leftovers, carries, EOS flags) and gives each
  /// live node an empty, sealed region that a top-up from index 0 of its
  /// retained stream refills through `AddRepair`. Enters repair mode.
  void BeginCorrection();

  /// \brief True while `next_window()` is under correction, held or
  /// emptied.
  bool repairing() const { return repairing_; }

  /// \brief True while the repaired window is one `BeginCorrection`
  /// emptied.
  bool emptied() const { return emptied_; }

  // Kept only for perfbench's correction layer; the next benchmark change
  // calls `AddRepair` and `TryAssemble` directly.
  enum class CorrectionOutcome { kAssembled, kNeedMore };
  /// \brief `AddRepair` of a response that does not end the stream.
  Status AddCandidates(size_t node, const EventVec& events,
                       double create_mean);
  /// \brief `TryAssemble`; on failure `BeginRepair`, with the asked nodes
  /// in `need_more`.
  CorrectionOutcome TryAssembleCorrected(WindowAssembly* out,
                                         std::vector<size_t>* need_more);

  /// \brief Events currently buffered at the root (leftovers + pending
  /// raw); memory accounting for tests.
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
  /// slots, and a slice missing an expected active slot is opened, so its
  /// raw events feed every active slot.
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
    // Repair state of the held window. A topped-up node's selectable
    // region is `end` alone: its next front was folded into it, and the
    // top-up events follow. A complete node's region reaches the end of
    // its stream, so its cut needs no bound.
    bool sealed = false;
    bool complete = false;
  };

  struct PendingWindow {
    std::vector<NodeWindowState> nodes;
  };

  PendingWindow& GetWindow(uint64_t w);

  /// Node `n`'s greatest forced key in the held window; false when it
  /// forces nothing.
  bool ForcedMax(size_t n, const NodeWindowState& st, EventKey* key) const;

  /// The repair request that opens node `n`'s slice in the held window.
  RepairRequest OpenSliceRequest(size_t n, const NodeWindowState& st) const;

  /// Replaces node `n`'s slice by its raw events: its leftover, front,
  /// `events` and end become one selectable region, in stream order.
  void OpenSlice(size_t n, NodeWindowState* st, const EventVec& events,
                 double create_mean);

  /// Gives node `n` an empty, sealed region in the held window, with a
  /// slice present that forces nothing, and marks it as asked for a top-up
  /// from index 0.
  void EmptyNode(size_t n);

  /// Drops every held input: later windows, leftovers, carries and EOS
  /// flags (the rollback that follows a correction or a repair).
  void DropHeldInputs();

  /// Leaves repair mode.
  void EndRepair();

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

  // Repair state. `repair_plan_` is the last failed `TryAssemble`'s
  // diagnosis; `asked_` the kind of each node's outstanding request;
  // `repair_failed_` marks a response that cannot advance the repair.
  bool repairing_ = false;
  bool emptied_ = false;
  bool repair_failed_ = false;
  std::vector<RepairRequest> repair_plan_;
  std::vector<std::optional<RepairRequest::Kind>> asked_;
};

}  // namespace deco
