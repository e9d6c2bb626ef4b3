#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "agg/aggregate.h"
#include "common/result.h"
#include "event/serde.h"
#include "node/protocol.h"
#include "serve/registry.h"

/// \file slice_store.h
/// \brief Shared per-pane aggregate computation for the multi-query
/// serving layer (DESIGN.md §11).
///
/// Every registered query is served from the *same* pass over each local
/// stream: a pane (protocol window of `QueryRegistry::PaneLength()`
/// events) is aggregated once per active slot, the primary slot rides in
/// `SliceSummary::partial` exactly as before, and the other slots travel
/// as tagged `SliceSummary::extras`. The root re-composes each query's
/// windows from consecutive pane partials of its slot.
///
/// Three pieces live here:
///   - `SlotSchedule`: which slots are active at which panes (half-open
///     activation intervals, updated by runtime add/remove and shipped to
///     the locals whole, as a `ServeSnapshot`);
///   - `SliceStore` (local side): accumulates one pane into every active
///     slot in a single pass;
///   - `SlotBank` (root side): the slot aggregate functions plus the
///     schedule the assembler consults when merging slices and raws.

namespace deco {

/// \brief Half-open pane intervals per slot. Slot 0 is always active.
class SlotSchedule {
 public:
  /// \brief Sizes the table; slot 0 gets an open interval from pane 0.
  void Reset(size_t num_slots);

  /// \brief Opens an activation interval `[from_pane, ...)` for `slot`.
  /// Idempotent: re-activating an already-open slot keeps the earlier
  /// start.
  void Activate(uint16_t slot, uint64_t from_pane);

  /// \brief Closes the open interval of `slot` at `until_pane`
  /// (exclusive). No-op when the slot has no open interval.
  void Retire(uint16_t slot, uint64_t until_pane);

  bool ActiveAt(uint16_t slot, uint64_t pane) const;

  size_t num_slots() const { return intervals_.size(); }

  /// \brief Replaces this schedule with `other` (registry snapshot
  /// re-sync after corrections / rejoin).
  void CopyFrom(const SlotSchedule& other) { intervals_ = other.intervals_; }

  void Encode(BinaryWriter* writer) const;
  static Result<SlotSchedule> Decode(BinaryReader* reader);

 private:
  struct Interval {
    uint64_t from = 0;
    uint64_t until = kServePaneNever;  ///< exclusive
  };
  std::vector<std::vector<Interval>> intervals_;
};

/// \brief `kQueryConfig` payload: the root's authoritative pane length +
/// slot schedule. The root sends it at startup, with every runtime
/// add/remove, on correction rollback and on rejoin; a local replaces its
/// whole schedule with it, so a lost snapshot cannot wedge a local on a
/// stale slot set for longer than the next one.
struct ServeSnapshot {
  uint64_t pane_length = 0;
  SlotSchedule schedule;
};

void EncodeServeSnapshot(const ServeSnapshot& snapshot, BinaryWriter* writer);
Result<ServeSnapshot> DecodeServeSnapshot(BinaryReader* reader);

/// \brief Root-side slot table: one aggregate function per slot plus the
/// activation schedule (the root's view — effective panes it actually
/// broadcast, not the registry's requested panes).
class SlotBank {
 public:
  /// \brief Builds functions for every slot; activates the slots of
  /// queries already active at pane 0.
  Status Init(const QueryRegistry* registry);

  size_t size() const { return funcs_.size(); }
  const AggregateFunction* func(uint16_t slot) const {
    return funcs_[slot].get();
  }
  SlotSchedule* schedule() { return &schedule_; }
  const SlotSchedule& schedule() const { return schedule_; }
  bool ActiveAt(uint16_t slot, uint64_t pane) const {
    return schedule_.ActiveAt(slot, pane);
  }

 private:
  std::vector<std::unique_ptr<AggregateFunction>> funcs_;
  SlotSchedule schedule_;
};

/// \brief Local-side shared slice computation: one pass over the pane's
/// events feeds every active slot.
class SliceStore {
 public:
  /// \brief Builds slot functions from the registry; initially activates
  /// only the slots of queries active from pane 0 — a scheduled query's
  /// slot activates when a `kQueryConfig` snapshot schedules it.
  Status Init(const QueryRegistry* registry);

  /// \brief Starts accumulation for `pane`: resolves the active slot set
  /// and resets their partials.
  void BeginPane(uint64_t pane);

  /// \brief Folds one event value into every active slot.
  void Accumulate(double value);

  /// \brief Folds `n` events into every active slot: slot by slot, each in
  /// stream order, so the partials equal `n` calls of `Accumulate(double)`.
  void Accumulate(const Event* events, size_t n);

  /// \brief Slot 0's partial for the current pane.
  const Partial& primary() const { return partials_[0]; }

  /// \brief Tagged partials of the active slots beyond 0, ascending slot
  /// order.
  std::vector<SlotPartial> TakeExtras();

  /// \brief Replaces the whole slot schedule with the root's: the one way
  /// a local learns of a runtime add or remove, and of the schedule again
  /// after a correction or a rejoin.
  void ApplySnapshot(const ServeSnapshot& snapshot);

 private:
  std::vector<std::unique_ptr<AggregateFunction>> funcs_;
  SlotSchedule schedule_;
  std::vector<Partial> partials_;
  std::vector<uint16_t> active_;  ///< active slots of the current pane
};

}  // namespace deco
