#include "deco/assembler.h"

#include <algorithm>
#include <queue>

#include "common/logging.h"
#include "obs/provenance.h"

namespace deco {
namespace {

struct HeadEntry {
  EventKey key;
  size_t node;
};
struct HeadGreater {
  bool operator()(const HeadEntry& a, const HeadEntry& b) const {
    return b.key < a.key;
  }
};

}  // namespace

WindowAssembler::WindowAssembler(size_t num_nodes,
                                 const AggregateFunction* func,
                                 uint64_t global_size)
    : num_nodes_(num_nodes),
      func_(func),
      global_size_(global_size),
      leftover_(num_nodes),
      carry_(num_nodes, 0),
      eos_(num_nodes, false),
      removed_(num_nodes, false),
      asked_(num_nodes) {}

WindowAssembler::PendingWindow& WindowAssembler::GetWindow(uint64_t w) {
  PendingWindow& pw = pending_[w];
  if (pw.nodes.empty()) pw.nodes.resize(num_nodes_);
  return pw;
}

Status WindowAssembler::AddSlice(uint64_t w, size_t node, SliceSummary slice,
                                 double create_mean) {
  if (node >= num_nodes_) {
    return Status::InvalidArgument("slice from unknown node");
  }
  if (w < next_window_ || (repairing_ && w == next_window_) ||
      removed_[node]) {
    return Status::OK();  // stale input, dropped
  }
  NodeWindowState& st = GetWindow(w).nodes[node];
  if (st.slice.has_value()) {
    if (provenance_ != nullptr) {
      provenance_->OnDuplicate(w, node, ProvRegion::kSlice);
    }
    return Status::Internal("duplicate slice for window " +
                            std::to_string(w));
  }
  st.slice = std::move(slice);
  st.slice_create = create_mean;
  if (provenance_ != nullptr) {
    provenance_->OnRegion(w, node, ProvRegion::kSlice, create_mean);
  }
  return Status::OK();
}

Status WindowAssembler::AddRaw(uint64_t w, size_t node, BatchRole role,
                               EventVec events, double create_mean) {
  if (node >= num_nodes_) {
    return Status::InvalidArgument("raw batch from unknown node");
  }
  if (role == BatchRole::kData) {
    return Status::InvalidArgument(
        "assembler only accepts front/end raw regions");
  }
  if (w < next_window_ || (repairing_ && w == next_window_) ||
      removed_[node]) {
    return Status::OK();  // stale input, dropped
  }
  NodeWindowState& st = GetWindow(w).nodes[node];
  auto* region = role == BatchRole::kFront ? &st.front : &st.end;
  bool* done = role == BatchRole::kFront ? &st.front_done : &st.end_done;
  const ProvRegion prov_region =
      role == BatchRole::kFront ? ProvRegion::kFront : ProvRegion::kEnd;
  if (*done) {
    if (provenance_ != nullptr) provenance_->OnDuplicate(w, node, prov_region);
    return Status::Internal("duplicate raw region for window " +
                            std::to_string(w));
  }
  region->reserve(events.size());
  for (const Event& e : events) {
    region->push_back(TimedEvent{e, create_mean});
  }
  *done = true;
  if (provenance_ != nullptr) {
    provenance_->OnRegion(w, node, prov_region, create_mean);
  }
  return Status::OK();
}

void WindowAssembler::MarkEos(size_t node) {
  if (node >= num_nodes_) return;
  eos_[node] = true;
  if (provenance_ != nullptr) provenance_->OnEos(node);
}

void WindowAssembler::RemoveNode(size_t node) {
  if (node >= num_nodes_) return;
  if (provenance_ != nullptr) provenance_->OnNodeRemoved(node);
  removed_[node] = true;
  leftover_[node].clear();
  for (auto& [w, pw] : pending_) {
    if (!pw.nodes.empty()) pw.nodes[node] = NodeWindowState{};
  }
}

void WindowAssembler::ReadmitNode(size_t node) {
  if (node >= num_nodes_) return;
  if (provenance_ != nullptr) provenance_->OnNodeRejoined(node);
  removed_[node] = false;
  eos_[node] = false;
  leftover_[node].clear();
  carry_[node] = 0;
  for (auto& [w, pw] : pending_) {
    if (!pw.nodes.empty()) pw.nodes[node] = NodeWindowState{};
  }
  if (emptied_) EmptyNode(node);
}

WindowAssembler::Outcome WindowAssembler::TryAssemble(WindowAssembly* out) {
  repair_plan_.clear();
  // A repair response that cannot advance the repair leaves the held
  // window to be emptied.
  if (repair_failed_) return Outcome::kNeedCorrection;
  auto it = pending_.find(next_window_);
  PendingWindow* pw = it == pending_.end() ? nullptr : &it->second;

  // Readiness: every live node must have delivered slice + raw regions.
  bool all_eos = true;
  for (size_t n = 0; n < num_nodes_; ++n) {
    if (removed_[n]) continue;
    if (!eos_[n]) {
      all_eos = false;
      if (pw == nullptr) return Outcome::kNotReady;
      const NodeWindowState& st = pw->nodes[n];
      if (!st.slice.has_value() || !st.end_done) return Outcome::kNotReady;
      // Front regions are only shipped by schemes that use them; a window
      // whose slice arrived without a front region simply has none.
    }
  }

  // Forced contribution: leftovers, front regions, slices.
  uint64_t forced = 0;
  EventKey forced_max;  // defaults to minimal key
  double create_mean = 0.0;
  uint64_t create_count = 0;
  auto fold_create = [&](double mean, uint64_t count) {
    if (count == 0) return;
    const uint64_t total = create_count + count;
    create_mean = (create_mean * static_cast<double>(create_count) +
                   mean * static_cast<double>(count)) /
                  static_cast<double>(total);
    create_count = total;
  };

  for (size_t n = 0; n < num_nodes_; ++n) {
    if (removed_[n]) continue;
    forced += leftover_[n].size();
    if (!leftover_[n].empty()) {
      forced_max =
          std::max(forced_max, EventKey::Of(leftover_[n].back().event),
                   [](const EventKey& a, const EventKey& b) { return a < b; });
    }
    if (pw == nullptr) continue;
    const NodeWindowState& st = pw->nodes[n];
    forced += st.front.size();
    if (!st.front.empty()) {
      forced_max =
          std::max(forced_max, EventKey::Of(st.front.back().event),
                   [](const EventKey& a, const EventKey& b) { return a < b; });
    }
    if (st.slice.has_value() && st.slice->event_count > 0) {
      forced += st.slice->event_count;
      const EventKey slice_max{st.slice->max_ts, st.slice->max_stream_id,
                               st.slice->max_event_id};
      forced_max =
          std::max(forced_max, slice_max,
                   [](const EventKey& a, const EventKey& b) { return a < b; });
    }
  }

  if (forced > global_size_) {
    DECO_LOG(DEBUG) << "assembler w" << next_window_
                    << ": overestimate, forced=" << forced << " > "
                    << global_size_;
    // Repair: open the slice of the node holding the greatest forced key.
    size_t worst = num_nodes_;
    EventKey worst_key;
    for (size_t n = 0; pw != nullptr && n < num_nodes_; ++n) {
      EventKey key;
      if (removed_[n] || !ForcedMax(n, pw->nodes[n], &key)) continue;
      if (worst == num_nodes_ || worst_key < key) {
        worst = n;
        worst_key = key;
      }
    }
    if (worst < num_nodes_) {
      repair_plan_.push_back(OpenSliceRequest(worst, pw->nodes[worst]));
    }
    return Outcome::kNeedCorrection;
  }

  // Selectable region per node: this window's end buffer, extended by the
  // NEXT window's front buffer when the scheme ships one (Deco_async).
  // The two regions are contiguous in the node's stream, so the cut may
  // legally fall anywhere inside their union; the extension doubles the
  // slack around the predicted cut without changing steady-state volumes.
  auto next_it = pending_.find(next_window_ + 1);
  PendingWindow* pw_next =
      next_it == pending_.end() ? nullptr : &next_it->second;
  // A sealed node (topped up by a repair) holds its whole selectable
  // region in its end buffer: its next front was folded in.
  auto sealed = [&](size_t n) { return pw != nullptr && pw->nodes[n].sealed; };
  auto next_front = [&](size_t n) -> std::vector<TimedEvent>* {
    if (!expect_front_ || pw_next == nullptr || sealed(n)) return nullptr;
    NodeWindowState& st = pw_next->nodes[n];
    return st.front_done ? &st.front : nullptr;
  };
  auto avail_count = [&](size_t n) -> size_t {
    if (removed_[n] || pw == nullptr) return 0;
    size_t total = pw->nodes[n].end.size();
    const auto* front = next_front(n);
    if (front != nullptr) total += front->size();
    return total;
  };
  auto avail_event = [&](size_t n, size_t i) -> const TimedEvent& {
    const auto& end = pw->nodes[n].end;
    if (i < end.size()) return end[i];
    return (*next_front(n))[i - end.size()];
  };
  // True when node n could still extend its selectable region (its next
  // front buffer has not arrived yet).
  auto can_extend = [&](size_t n) {
    return expect_front_ && !eos_[n] && !removed_[n] && !sealed(n) &&
           next_front(n) == nullptr;
  };

  // A finished node may still hold events for *later* windows (async runs
  // ahead: its next slices are already pending). The end-of-stream waiver
  // of the cut-bounding check is only sound when nothing of the node's
  // stream lies beyond this window's selectable region.
  auto node_has_later_input = [&](size_t n) {
    for (const auto& [w, win] : pending_) {
      if (w <= next_window_) continue;
      if (win.nodes.empty()) continue;
      const NodeWindowState& st = win.nodes[n];
      if (w == next_window_ + 1) {
        // The front buffer of w+1 is part of this window's selectable
        // region; anything else is beyond it.
        if (st.slice.has_value() || st.end_done || !st.end.empty()) {
          return true;
        }
      } else if (st.slice.has_value() || st.front_done || st.end_done) {
        return true;
      }
    }
    return false;
  };
  // A finished node's selectable region reaches the end of its stream, so
  // nothing it has not shipped can join this window.
  auto finished = [&](size_t n) {
    return removed_[n] || (pw != nullptr && pw->nodes[n].complete) ||
           (eos_[n] && !node_has_later_input(n));
  };
  // A top-up of node k: its next `count` events past everything the root
  // holds for it.
  auto top_up = [&](size_t k, uint64_t count) {
    const NodeWindowState& st = pw->nodes[k];
    RepairRequest request;
    request.node = k;
    request.kind = RepairRequest::Kind::kTopUp;
    request.from_index = leftover_[k].size() + st.front.size() +
                         (st.slice ? st.slice->event_count : 0) +
                         avail_count(k);
    request.count = count;
    return request;
  };

  uint64_t selectable = 0;
  for (size_t n = 0; n < num_nodes_; ++n) selectable += avail_count(n);
  if (forced + selectable < global_size_) {
    for (size_t n = 0; n < num_nodes_; ++n) {
      if (can_extend(n)) return Outcome::kNotReady;  // await next Fbuffer
    }
    // Check (2): every held selectable event is selected and the window is
    // still `shortfall` events short. Each unfinished node is topped up by
    // one more than the whole shortfall, so unless its new events displace
    // held ones, one of them stays excluded and bounds its cut.
    const uint64_t shortfall = global_size_ - forced - selectable;
    bool unfinished = false;
    for (size_t n = 0; n < num_nodes_; ++n) {
      if (finished(n)) continue;
      unfinished = true;
      if (pw != nullptr) repair_plan_.push_back(top_up(n, shortfall + 1));
    }
    if (!unfinished) {
      DECO_LOG(DEBUG) << "assembler w" << next_window_
                      << ": end of stream, forced=" << forced
                      << " selectable=" << selectable;
      return Outcome::kEndOfStream;
    }
    DECO_LOG(DEBUG) << "assembler w" << next_window_
                    << ": underestimate, forced=" << forced
                    << " selectable=" << selectable << " < "
                    << global_size_;
    return Outcome::kNeedCorrection;
  }

  // Select the smallest `R` events from the selectable regions in global
  // order.
  const uint64_t R = global_size_ - forced;
  std::vector<uint64_t> sel(num_nodes_, 0);
  std::priority_queue<HeadEntry, std::vector<HeadEntry>, HeadGreater> heap;
  for (size_t n = 0; n < num_nodes_; ++n) {
    if (avail_count(n) > 0) {
      heap.push(HeadEntry{EventKey::Of(avail_event(n, 0).event), n});
    }
  }
  EventKey last_selected;
  for (uint64_t i = 0; i < R; ++i) {
    const HeadEntry top = heap.top();
    heap.pop();
    last_selected = top.key;
    const size_t n = top.node;
    ++sel[n];
    if (sel[n] < avail_count(n)) {
      heap.push(HeadEntry{EventKey::Of(avail_event(n, sel[n]).event), n});
    }
  }

  const bool has_excluded = !heap.empty();
  if (!has_excluded && !all_eos) {
    for (size_t n = 0; n < num_nodes_; ++n) {
      if (can_extend(n)) return Outcome::kNotReady;
    }
    // Every live node's region is fully selected: check (3) below tops up
    // each one whose cut needs a bound (at a stream's end, each answers
    // with nothing but its end-of-stream mark).
    DECO_LOG(DEBUG) << "assembler w" << next_window_
                    << ": no excluded event to bound the cut";
  }

  // D_k for a fully selected node k: one more than the selected events of
  // other nodes after k's last held event. k's new events can displace
  // only those, so one of the D_k stays excluded.
  auto bound = [&](size_t k) {
    const size_t avail = avail_count(k);
    EventKey last;  // k holds nothing: every selected event follows
    if (avail > 0) {
      last = EventKey::Of(avail_event(k, avail - 1).event);
    } else {
      ForcedMax(k, pw->nodes[k], &last);
    }
    uint64_t count = 1;
    for (size_t j = 0; j < num_nodes_; ++j) {
      if (j == k) continue;
      // j's selected events are the sorted prefix [0, sel[j]).
      size_t lo = 0;
      size_t hi = sel[j];
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (EventKey::Of(avail_event(j, mid).event) <= last) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      count += sel[j] - lo;
    }
    return count;
  };

  // Check (3): the cut must be bounded below every live node's unshipped
  // stream — at least one of its shipped selectable events stays excluded.
  // The first unbounded node decides: it waits for its next front if one
  // can still come, else every unbounded node that cannot extend is
  // topped up by D.
  bool unbounded = false;
  for (size_t n = 0; n < num_nodes_; ++n) {
    if (sel[n] < avail_count(n) || finished(n)) continue;
    if (can_extend(n)) {
      if (!unbounded) return Outcome::kNotReady;
      continue;
    }
    DECO_LOG(DEBUG) << "assembler w" << next_window_ << ": node " << n
                    << " selectable region fully selected (" << sel[n]
                    << ")";
    unbounded = true;
    if (pw != nullptr) repair_plan_.push_back(top_up(n, bound(n)));
  }
  if (unbounded) return Outcome::kNeedCorrection;

  // Check (4): no forced event may follow the first excluded event.
  if (has_excluded) {
    const EventKey first_excluded = heap.top().key;
    if (!(forced_max < first_excluded)) {
      DECO_LOG(DEBUG) << "assembler w" << next_window_
                      << ": cut inside forced region (forced_max ts="
                      << forced_max.ts << " >= first_excluded ts="
                      << first_excluded.ts << ")";
      for (size_t n = 0; n < num_nodes_; ++n) {
        if (removed_[n] || pw == nullptr) continue;
        const NodeWindowState& st = pw->nodes[n];
        DECO_LOG(DEBUG) << "  node " << n << ": leftover="
                        << leftover_[n].size() << " front=" << st.front.size()
                        << " slice="
                        << (st.slice ? st.slice->event_count : 0)
                        << " sliceMaxTs=" << (st.slice ? st.slice->max_ts : -1)
                        << " end=" << st.end.size() << " sel=" << sel[n]
                        << " endFirstTs="
                        << (st.end.empty() ? -1 : st.end[0].event.timestamp)
                        << " frontLastTs="
                        << (st.front.empty() ? -1
                                             : st.front.back().event.timestamp);
      }
      // Repair: open the slice of every node whose forced events reach
      // the first excluded key.
      for (size_t n = 0; pw != nullptr && n < num_nodes_; ++n) {
        EventKey key;
        if (removed_[n] || !ForcedMax(n, pw->nodes[n], &key)) continue;
        if (!(key < first_excluded)) {
          repair_plan_.push_back(OpenSliceRequest(n, pw->nodes[n]));
        }
      }
      return Outcome::kNeedCorrection;
    }
  }

  // Multi-query serving: a slice that should carry an active extra slot
  // but does not (a local missed the schedule snapshot) is opened, so its
  // raw events feed every active slot; the root re-broadcasts the slot
  // schedule with the repaired window.
  const size_t nslots = slot_bank_ == nullptr ? 0 : slot_bank_->size();
  std::vector<bool> slot_active(nslots, false);
  for (size_t s = 1; s < nslots; ++s) {
    slot_active[s] =
        slot_bank_->ActiveAt(static_cast<uint16_t>(s), next_window_);
  }
  if (nslots > 1 && pw != nullptr) {
    for (size_t n = 0; n < num_nodes_; ++n) {
      if (removed_[n]) continue;
      const NodeWindowState& st = pw->nodes[n];
      if (!st.slice.has_value() || st.slice->event_count == 0) continue;
      for (size_t s = 1; s < nslots; ++s) {
        const auto& extras = st.slice->extras;
        if (slot_active[s] &&
            std::none_of(extras.begin(), extras.end(),
                         [s](const SlotPartial& e) { return e.slot == s; })) {
          DECO_LOG(DEBUG) << "assembler w" << next_window_ << ": node " << n
                          << " slice missing active slot " << s
                          << " partial; opening it";
          repair_plan_.push_back(OpenSliceRequest(n, st));
          break;
        }
      }
    }
    if (!repair_plan_.empty()) return Outcome::kNeedCorrection;
  }

  // Verified: build the window.
  out->partial = func_->CreatePartial();
  out->slots.clear();
  out->slots.resize(nslots);
  for (size_t s = 1; s < nslots; ++s) {
    if (slot_active[s]) {
      out->slots[s] =
          slot_bank_->func(static_cast<uint16_t>(s))->CreatePartial();
    }
  }
  auto accumulate_slots = [&](double value) {
    for (size_t s = 1; s < nslots; ++s) {
      if (slot_active[s]) {
        slot_bank_->func(static_cast<uint16_t>(s))
            ->Accumulate(&out->slots[s], value);
      }
    }
  };
  out->consumed.assign(num_nodes_, 0);
  for (size_t n = 0; n < num_nodes_; ++n) {
    if (removed_[n]) continue;
    uint64_t consumed = 0;
    for (const TimedEvent& te : leftover_[n]) {
      func_->Accumulate(&out->partial, te.event.value);
      accumulate_slots(te.event.value);
      fold_create(te.create_nanos, 1);
      ++consumed;
    }
    leftover_[n].clear();
    if (pw != nullptr) {
      NodeWindowState& st = pw->nodes[n];
      for (const TimedEvent& te : st.front) {
        func_->Accumulate(&out->partial, te.event.value);
        accumulate_slots(te.event.value);
        fold_create(te.create_nanos, 1);
        ++consumed;
      }
      if (st.slice.has_value() && st.slice->event_count > 0) {
        Status merge = func_->Merge(&out->partial, st.slice->partial);
        if (!merge.ok()) {
          // Cannot happen with homogeneous queries; treat as corruption.
          return Outcome::kNeedCorrection;
        }
        for (const SlotPartial& extra : st.slice->extras) {
          if (extra.slot < nslots && slot_active[extra.slot]) {
            Status slot_merge =
                slot_bank_->func(extra.slot)
                    ->Merge(&out->slots[extra.slot], extra.partial);
            if (!slot_merge.ok()) return Outcome::kNeedCorrection;
          }
          // Extras for slots the root has since retired are ignored.
        }
        fold_create(st.slice_create, st.slice->event_count);
        consumed += st.slice->event_count;
      }
      const size_t end_size = st.end.size();
      const size_t from_end = std::min<size_t>(sel[n], end_size);
      const size_t from_front = sel[n] - from_end;
      for (size_t i = 0; i < from_end; ++i) {
        func_->Accumulate(&out->partial, st.end[i].event.value);
        accumulate_slots(st.end[i].event.value);
        fold_create(st.end[i].create_nanos, 1);
        ++consumed;
      }
      // Unselected end events carry over into the next window.
      for (size_t i = from_end; i < end_size; ++i) {
        leftover_[n].push_back(st.end[i]);
      }
      if (from_front > 0) {
        // The cut extended into the next window's front buffer: consume
        // its prefix here and shrink the stored region accordingly.
        auto* front = next_front(n);
        for (size_t i = 0; i < from_front; ++i) {
          func_->Accumulate(&out->partial, (*front)[i].event.value);
          accumulate_slots((*front)[i].event.value);
          fold_create((*front)[i].create_nanos, 1);
          ++consumed;
        }
        front->erase(front->begin(), front->begin() + from_front);
      }
      carry_[n] = static_cast<int64_t>(leftover_[n].size()) -
                  static_cast<int64_t>(from_front);
    }
    out->consumed[n] = consumed;
  }
  if (nslots > 0) out->slots[0] = out->partial;
  out->event_count = global_size_;
  out->watermark = R > 0 ? std::max(forced_max, last_selected,
                                    [](const EventKey& a, const EventKey& b) {
                                      return a < b;
                                    })
                         : forced_max;
  out->create_mean = create_mean;
  out->create_count = create_count;

  pending_.erase(next_window_);
  ++next_window_;
  if (repairing_) {
    // The locals roll back after a repaired window exactly as after a
    // correction: whatever arrived for later windows is discarded.
    if (provenance_ != nullptr) {
      provenance_->OnCorrectionBegin(next_window_ - 1);
    }
    DropHeldInputs();
    EndRepair();
  }
  return Outcome::kAssembled;
}

bool WindowAssembler::ForcedMax(size_t n, const NodeWindowState& st,
                                EventKey* key) const {
  // A node's leftover, front and slice follow each other in its stream, so
  // the last non-empty one holds its greatest forced key.
  if (st.slice.has_value() && st.slice->event_count > 0) {
    *key = EventKey{st.slice->max_ts, st.slice->max_stream_id,
                    st.slice->max_event_id};
    return true;
  }
  if (!st.front.empty()) {
    *key = EventKey::Of(st.front.back().event);
    return true;
  }
  if (!leftover_[n].empty()) {
    *key = EventKey::Of(leftover_[n].back().event);
    return true;
  }
  return false;
}

RepairRequest WindowAssembler::OpenSliceRequest(
    size_t n, const NodeWindowState& st) const {
  RepairRequest request;
  request.node = n;
  request.kind = RepairRequest::Kind::kOpenSlice;
  request.from_index = leftover_[n].size() + st.front.size();
  request.count = st.slice ? st.slice->event_count : 0;
  return request;
}

void WindowAssembler::OpenSlice(size_t n, NodeWindowState* st,
                                const EventVec& events, double create_mean) {
  std::vector<TimedEvent> region;
  region.reserve(leftover_[n].size() + st->front.size() + events.size() +
                 st->end.size());
  region.insert(region.end(), leftover_[n].begin(), leftover_[n].end());
  region.insert(region.end(), st->front.begin(), st->front.end());
  for (const Event& e : events) region.push_back(TimedEvent{e, create_mean});
  region.insert(region.end(), st->end.begin(), st->end.end());
  leftover_[n].clear();
  st->front.clear();
  // The slice stays present (its inputs arrived) but forces nothing: its
  // partial and serve extras are dropped, and its raw events feed every
  // active slot like any selectable event.
  if (st->slice.has_value()) {
    st->slice->event_count = 0;
    st->slice->extras.clear();
  }
  st->end = std::move(region);
}

bool WindowAssembler::BeginRepair(std::vector<RepairRequest>* requests) {
  requests->clear();
  auto it = pending_.find(next_window_);
  if (repair_plan_.empty() || it == pending_.end()) return false;
  auto next_it = pending_.find(next_window_ + 1);
  for (const RepairRequest& request : repair_plan_) {
    NodeWindowState& st = it->second.nodes[request.node];
    if (request.kind == RepairRequest::Kind::kTopUp) {
      if (!st.sealed && expect_front_ && next_it != pending_.end()) {
        // The top-up follows the next front in the node's stream, so the
        // front joins this window's region ahead of it.
        std::vector<TimedEvent>& front =
            next_it->second.nodes[request.node].front;
        st.end.insert(st.end.end(), front.begin(), front.end());
        front.clear();
      }
      st.sealed = true;
    }
    asked_[request.node] = request.kind;
    requests->push_back(request);
  }
  if (!repairing_) {
    if (provenance_ != nullptr) provenance_->OnCorrectionBegin(next_window_);
    repairing_ = true;
  }
  return true;
}

Status WindowAssembler::AddRepair(size_t node, const EventVec& events,
                                  double create_mean, bool end_of_stream) {
  if (node >= num_nodes_) {
    return Status::InvalidArgument("repair response from unknown node");
  }
  if (!repairing_) return Status::Internal("AddRepair outside repair mode");
  auto it = pending_.find(next_window_);
  if (removed_[node] || !asked_[node].has_value() || it == pending_.end()) {
    return Status::OK();
  }
  NodeWindowState& st = it->second.nodes[node];
  const RepairRequest::Kind kind = *asked_[node];
  asked_[node].reset();
  if (provenance_ != nullptr) {
    provenance_->OnCorrectionResponse(next_window_, node, create_mean);
  }
  if (kind == RepairRequest::Kind::kOpenSlice) {
    // A slice's raw events replace it only when they are all of them.
    if (events.size() != (st.slice ? st.slice->event_count : 0)) {
      repair_failed_ = true;
      return Status::OK();
    }
    OpenSlice(node, &st, events, create_mean);
  } else {
    // A top-up that brings nothing before the end of the stream would be
    // asked again unchanged.
    if (events.empty() && !end_of_stream) repair_failed_ = true;
    st.end.reserve(st.end.size() + events.size());
    for (const Event& e : events) st.end.push_back(TimedEvent{e, create_mean});
  }
  if (end_of_stream) st.sealed = st.complete = true;
  return Status::OK();
}

void WindowAssembler::DropHeldInputs() {
  pending_.clear();
  for (auto& q : leftover_) q.clear();
  std::fill(carry_.begin(), carry_.end(), 0);
  // The rollback makes every local re-produce its retained events and
  // re-announce end-of-stream.
  std::fill(eos_.begin(), eos_.end(), false);
}

void WindowAssembler::EndRepair() {
  repairing_ = false;
  emptied_ = false;
  repair_failed_ = false;
  std::fill(asked_.begin(), asked_.end(), std::nullopt);
}

void WindowAssembler::EmptyNode(size_t n) {
  NodeWindowState& st = GetWindow(next_window_).nodes[n];
  st = NodeWindowState{};
  st.slice.emplace();
  st.end_done = true;
  st.sealed = true;
  asked_[n] = RepairRequest::Kind::kTopUp;
}

void WindowAssembler::BeginCorrection() {
  if (provenance_ != nullptr) provenance_->OnCorrectionBegin(next_window_);
  EndRepair();
  DropHeldInputs();
  for (size_t n = 0; n < num_nodes_; ++n) {
    if (!removed_[n]) EmptyNode(n);
  }
  repairing_ = true;
  emptied_ = true;
}

Status WindowAssembler::AddCandidates(size_t node, const EventVec& events,
                                      double create_mean) {
  return AddRepair(node, events, create_mean, /*end_of_stream=*/false);
}

WindowAssembler::CorrectionOutcome WindowAssembler::TryAssembleCorrected(
    WindowAssembly* out, std::vector<size_t>* need_more) {
  need_more->clear();
  if (TryAssemble(out) == Outcome::kAssembled) {
    return CorrectionOutcome::kAssembled;
  }
  std::vector<RepairRequest> requests;
  BeginRepair(&requests);
  for (const RepairRequest& request : requests) {
    need_more->push_back(request.node);
  }
  return CorrectionOutcome::kNeedMore;
}

size_t WindowAssembler::buffered_events() const {
  size_t total = 0;
  for (const auto& q : leftover_) total += q.size();
  for (const auto& [w, pw] : pending_) {
    for (const auto& st : pw.nodes) {
      total += st.front.size() + st.end.size();
    }
  }
  return total;
}

}  // namespace deco
