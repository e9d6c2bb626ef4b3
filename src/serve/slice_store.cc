#include "serve/slice_store.h"

#include <algorithm>

namespace deco {

void SlotSchedule::Reset(size_t num_slots) {
  intervals_.assign(num_slots, {});
  if (!intervals_.empty()) {
    intervals_[0].push_back(Interval{0, kServePaneNever});
  }
}

void SlotSchedule::Activate(uint16_t slot, uint64_t from_pane) {
  if (slot >= intervals_.size()) intervals_.resize(slot + 1);
  std::vector<Interval>& slots = intervals_[slot];
  if (!slots.empty() && slots.back().until == kServePaneNever) {
    return;  // already open; keep the earlier start
  }
  slots.push_back(Interval{from_pane, kServePaneNever});
}

void SlotSchedule::Retire(uint16_t slot, uint64_t until_pane) {
  if (slot >= intervals_.size()) return;
  std::vector<Interval>& slots = intervals_[slot];
  if (slots.empty() || slots.back().until != kServePaneNever) return;
  if (until_pane <= slots.back().from) {
    slots.pop_back();
    return;
  }
  slots.back().until = until_pane;
}

bool SlotSchedule::ActiveAt(uint16_t slot, uint64_t pane) const {
  if (slot >= intervals_.size()) return false;
  for (const Interval& interval : intervals_[slot]) {
    if (pane >= interval.from && pane < interval.until) return true;
  }
  return false;
}

void SlotSchedule::Encode(BinaryWriter* writer) const {
  writer->PutU32(static_cast<uint32_t>(intervals_.size()));
  for (const std::vector<Interval>& slots : intervals_) {
    writer->PutU32(static_cast<uint32_t>(slots.size()));
    for (const Interval& interval : slots) {
      writer->PutU64(interval.from);
      writer->PutU64(interval.until);
    }
  }
}

Result<SlotSchedule> SlotSchedule::Decode(BinaryReader* reader) {
  SlotSchedule schedule;
  // Each count is bounded by the bytes left before allocating for it: a
  // slot takes at least its 4-byte interval count, an interval 16 bytes.
  DECO_ASSIGN_OR_RETURN(uint32_t num_slots, reader->GetU32());
  if (num_slots > reader->remaining() / sizeof(uint32_t)) {
    return Status::OutOfRange("slot count exceeds buffer");
  }
  schedule.intervals_.resize(num_slots);
  for (uint32_t s = 0; s < num_slots; ++s) {
    DECO_ASSIGN_OR_RETURN(uint32_t count, reader->GetU32());
    if (count > reader->remaining() / (2 * sizeof(uint64_t))) {
      return Status::OutOfRange("slot interval count exceeds buffer");
    }
    schedule.intervals_[s].reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      Interval interval;
      DECO_ASSIGN_OR_RETURN(interval.from, reader->GetU64());
      DECO_ASSIGN_OR_RETURN(interval.until, reader->GetU64());
      schedule.intervals_[s].push_back(interval);
    }
  }
  return schedule;
}

void EncodeServeSnapshot(const ServeSnapshot& snapshot,
                         BinaryWriter* writer) {
  writer->PutU64(snapshot.pane_length);
  snapshot.schedule.Encode(writer);
}

Result<ServeSnapshot> DecodeServeSnapshot(BinaryReader* reader) {
  ServeSnapshot snapshot;
  DECO_ASSIGN_OR_RETURN(snapshot.pane_length, reader->GetU64());
  DECO_ASSIGN_OR_RETURN(snapshot.schedule, SlotSchedule::Decode(reader));
  return snapshot;
}

namespace {

Status BuildSlotFuncs(const QueryRegistry* registry,
                      std::vector<std::unique_ptr<AggregateFunction>>* out) {
  out->clear();
  for (const SlotSpec& spec : registry->slots()) {
    DECO_ASSIGN_OR_RETURN(std::unique_ptr<AggregateFunction> func,
                          MakeAggregate(spec.kind, spec.quantile_q));
    out->push_back(std::move(func));
  }
  if (out->empty()) {
    return Status::InvalidArgument("serve registry has no queries");
  }
  return Status::OK();
}

// Activation intervals for the slots of queries active from pane 0. The
// scheduled queries stay inactive until the root's schedule announces
// their root-chosen effective pane.
void SeedSchedule(const QueryRegistry* registry, SlotSchedule* schedule) {
  schedule->Reset(registry->slots().size());
  for (const ServedQuery& q : registry->queries()) {
    if (q.add_pane != 0) continue;
    schedule->Activate(q.slot, 0);
  }
}

}  // namespace

Status SlotBank::Init(const QueryRegistry* registry) {
  DECO_RETURN_NOT_OK(BuildSlotFuncs(registry, &funcs_));
  SeedSchedule(registry, &schedule_);
  return Status::OK();
}

Status SliceStore::Init(const QueryRegistry* registry) {
  DECO_RETURN_NOT_OK(BuildSlotFuncs(registry, &funcs_));
  SeedSchedule(registry, &schedule_);
  partials_.resize(funcs_.size());
  return Status::OK();
}

void SliceStore::BeginPane(uint64_t pane) {
  active_.clear();
  for (size_t s = 0; s < funcs_.size(); ++s) {
    const uint16_t slot = static_cast<uint16_t>(s);
    if (!schedule_.ActiveAt(slot, pane)) continue;
    active_.push_back(slot);
    partials_[slot] = funcs_[slot]->CreatePartial();
  }
}

void SliceStore::Accumulate(double value) {
  for (uint16_t slot : active_) {
    funcs_[slot]->Accumulate(&partials_[slot], value);
  }
}

void SliceStore::Accumulate(const Event* events, size_t n) {
  for (uint16_t slot : active_) {
    const AggregateFunction& func = *funcs_[slot];
    Partial* partial = &partials_[slot];
    for (size_t i = 0; i < n; ++i) func.Accumulate(partial, events[i].value);
  }
}

std::vector<SlotPartial> SliceStore::TakeExtras() {
  std::vector<SlotPartial> extras;
  for (uint16_t slot : active_) {
    if (slot == 0) continue;
    SlotPartial extra;
    extra.slot = slot;
    extra.partial = partials_[slot];
    extras.push_back(std::move(extra));
  }
  return extras;
}

void SliceStore::ApplySnapshot(const ServeSnapshot& snapshot) {
  schedule_.CopyFrom(snapshot.schedule);
  if (schedule_.num_slots() > partials_.size()) {
    partials_.resize(schedule_.num_slots());
  }
}

}  // namespace deco
