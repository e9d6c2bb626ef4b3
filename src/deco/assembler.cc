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
      candidates_(num_nodes),
      candidates_present_(num_nodes, false),
      candidates_complete_(num_nodes, false) {}

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
  if (correcting_ || w < next_window_ || removed_[node]) {
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
  if (correcting_ || w < next_window_ || removed_[node]) {
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
  candidates_[node].clear();
  candidates_present_[node] = false;
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
  candidates_[node].clear();
  candidates_present_[node] = false;
  candidates_complete_[node] = false;
  for (auto& [w, pw] : pending_) {
    if (!pw.nodes.empty()) pw.nodes[node] = NodeWindowState{};
  }
}

WindowAssembler::Outcome WindowAssembler::TryAssemble(WindowAssembly* out) {
  if (correcting_) return Outcome::kNotReady;
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
  auto next_front = [&](size_t n) -> std::vector<TimedEvent>* {
    if (!expect_front_ || pw_next == nullptr) return nullptr;
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
    return expect_front_ && !eos_[n] && !removed_[n] &&
           next_front(n) == nullptr;
  };

  uint64_t selectable = 0;
  for (size_t n = 0; n < num_nodes_; ++n) selectable += avail_count(n);
  if (forced + selectable < global_size_) {
    if (all_eos) {
      // End of stream only if the missing events do not exist anywhere —
      // later-tagged pending windows may still hold them (local plans can
      // split the tail differently from the root's window numbering), in
      // which case a correction reassembles the tail exactly.
      uint64_t known = 0;
      for (const auto& [w, win] : pending_) {
        for (const auto& st : win.nodes) {
          known += st.front.size() + st.end.size();
          if (st.slice.has_value()) known += st.slice->event_count;
        }
      }
      for (const auto& q : leftover_) known += q.size();
      if (known < global_size_) {
        DECO_LOG(DEBUG) << "assembler w" << next_window_
                        << ": end of stream, forced=" << forced
                        << " selectable=" << selectable
                        << " known=" << known;
        return Outcome::kEndOfStream;
      }
      return Outcome::kNeedCorrection;
    }
    for (size_t n = 0; n < num_nodes_; ++n) {
      if (can_extend(n)) return Outcome::kNotReady;  // await next Fbuffer
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
    DECO_LOG(DEBUG) << "assembler w" << next_window_
                    << ": no excluded event to bound the cut";
    return Outcome::kNeedCorrection;
  }

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

  // Check (3): the cut must be bounded below every live node's unshipped
  // stream — at least one of its shipped selectable events stays excluded.
  for (size_t n = 0; n < num_nodes_; ++n) {
    if (removed_[n] || (eos_[n] && !node_has_later_input(n))) continue;
    if (sel[n] == avail_count(n)) {
      if (can_extend(n)) return Outcome::kNotReady;
      DECO_LOG(DEBUG) << "assembler w" << next_window_ << ": node " << n
                      << " selectable region fully selected (" << sel[n]
                      << ")";
      return Outcome::kNeedCorrection;
    }
  }

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
      return Outcome::kNeedCorrection;
    }
  }

  // Multi-query serving: a slice that should carry an active extra slot
  // but does not (a local missed the kQueryAdd broadcast) cannot be
  // assembled — the correction fallback recomputes every slot exactly
  // from raws, and the root re-broadcasts the slot schedule.
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
        if (!slot_active[s]) continue;
        bool found = false;
        for (const SlotPartial& extra : st.slice->extras) {
          if (extra.slot == s) {
            found = true;
            break;
          }
        }
        if (!found) {
          DECO_LOG(DEBUG) << "assembler w" << next_window_ << ": node " << n
                          << " slice missing active slot " << s
                          << " partial; correcting";
          return Outcome::kNeedCorrection;
        }
      }
    }
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
  return Outcome::kAssembled;
}

void WindowAssembler::BeginCorrection() {
  if (provenance_ != nullptr) provenance_->OnCorrectionBegin(next_window_);
  correcting_ = true;
  pending_.clear();
  for (auto& q : leftover_) q.clear();
  std::fill(carry_.begin(), carry_.end(), 0);
  for (auto& c : candidates_) c.clear();
  std::fill(candidates_present_.begin(), candidates_present_.end(), false);
  std::fill(candidates_complete_.begin(), candidates_complete_.end(), false);
  // The correction rolls every local node back: nodes that had announced
  // end-of-stream will re-produce their retained events and re-announce.
  std::fill(eos_.begin(), eos_.end(), false);
}

void WindowAssembler::MarkCandidatesComplete(size_t node) {
  if (node < num_nodes_) candidates_complete_[node] = true;
}

void WindowAssembler::ClearCandidates(size_t node) {
  if (node >= num_nodes_) return;
  candidates_[node].clear();
  candidates_present_[node] = false;
  candidates_complete_[node] = false;
}

Status WindowAssembler::AddCandidates(size_t node, const EventVec& events,
                                      double create_mean) {
  if (node >= num_nodes_) {
    return Status::InvalidArgument("candidates from unknown node");
  }
  if (!correcting_) {
    return Status::Internal("AddCandidates outside correction mode");
  }
  if (removed_[node]) return Status::OK();
  auto& list = candidates_[node];
  list.reserve(list.size() + events.size());
  for (const Event& e : events) {
    list.push_back(TimedEvent{e, create_mean});
  }
  candidates_present_[node] = true;
  if (provenance_ != nullptr) {
    provenance_->OnCorrectionResponse(next_window_, node, create_mean);
  }
  return Status::OK();
}

WindowAssembler::CorrectionOutcome WindowAssembler::TryAssembleCorrected(
    WindowAssembly* out, std::vector<size_t>* need_more) {
  need_more->clear();
  uint64_t total = 0;
  bool all_complete = true;
  for (size_t n = 0; n < num_nodes_; ++n) {
    if (removed_[n]) continue;
    total += candidates_[n].size();
    if (!candidates_complete_[n]) all_complete = false;
  }
  if (total < global_size_) {
    if (all_complete) {
      DECO_LOG(DEBUG) << "assembler correction w" << next_window_
                      << ": end of stream, candidates=" << total;
      return CorrectionOutcome::kEndOfStream;
    }
    for (size_t n = 0; n < num_nodes_; ++n) {
      if (!removed_[n] && !candidates_complete_[n]) need_more->push_back(n);
    }
    return CorrectionOutcome::kNeedMore;
  }

  // Exact distributed selection: take the `global_size_` smallest.
  std::vector<uint64_t> sel(num_nodes_, 0);
  std::priority_queue<HeadEntry, std::vector<HeadEntry>, HeadGreater> heap;
  for (size_t n = 0; n < num_nodes_; ++n) {
    if (!removed_[n] && !candidates_[n].empty()) {
      heap.push(HeadEntry{EventKey::Of(candidates_[n][0].event), n});
    }
  }
  EventKey last_selected;
  for (uint64_t i = 0; i < global_size_; ++i) {
    const HeadEntry top = heap.top();
    heap.pop();
    last_selected = top.key;
    const size_t n = top.node;
    ++sel[n];
    if (sel[n] < candidates_[n].size()) {
      heap.push(HeadEntry{EventKey::Of(candidates_[n][sel[n]].event), n});
    }
  }

  // Every live node needs one excluded candidate to bound the cut.
  for (size_t n = 0; n < num_nodes_; ++n) {
    if (removed_[n] || candidates_complete_[n]) continue;
    if (sel[n] == candidates_[n].size()) need_more->push_back(n);
  }
  if (!need_more->empty()) return CorrectionOutcome::kNeedMore;

  out->partial = func_->CreatePartial();
  // Corrections recompute every serve slot exactly from raws — slice
  // extras are unnecessary here (and were discarded with the slices).
  const size_t nslots = slot_bank_ == nullptr ? 0 : slot_bank_->size();
  out->slots.clear();
  out->slots.resize(nslots);
  std::vector<bool> slot_active(nslots, false);
  for (size_t s = 1; s < nslots; ++s) {
    slot_active[s] =
        slot_bank_->ActiveAt(static_cast<uint16_t>(s), next_window_);
    if (slot_active[s]) {
      out->slots[s] =
          slot_bank_->func(static_cast<uint16_t>(s))->CreatePartial();
    }
  }
  out->consumed.assign(num_nodes_, 0);
  out->create_mean = 0.0;
  out->create_count = 0;
  for (size_t n = 0; n < num_nodes_; ++n) {
    if (removed_[n]) continue;
    for (uint64_t i = 0; i < sel[n]; ++i) {
      const TimedEvent& te = candidates_[n][i];
      func_->Accumulate(&out->partial, te.event.value);
      for (size_t s = 1; s < nslots; ++s) {
        if (slot_active[s]) {
          slot_bank_->func(static_cast<uint16_t>(s))
              ->Accumulate(&out->slots[s], te.event.value);
        }
      }
      const uint64_t total_meta = out->create_count + 1;
      out->create_mean =
          (out->create_mean * static_cast<double>(out->create_count) +
           te.create_nanos) /
          static_cast<double>(total_meta);
      out->create_count = total_meta;
    }
    out->consumed[n] = sel[n];
    candidates_[n].clear();
    candidates_present_[n] = false;
  }
  if (nslots > 0) out->slots[0] = out->partial;
  out->event_count = global_size_;
  out->watermark = last_selected;

  correcting_ = false;
  ++next_window_;
  return CorrectionOutcome::kAssembled;
}

size_t WindowAssembler::buffered_events() const {
  size_t total = 0;
  for (const auto& q : leftover_) total += q.size();
  for (const auto& [w, pw] : pending_) {
    for (const auto& st : pw.nodes) {
      total += st.front.size() + st.end.size();
    }
  }
  for (const auto& c : candidates_) total += c.size();
  return total;
}

}  // namespace deco
