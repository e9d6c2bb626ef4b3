#include "obs/provenance.h"

#include <algorithm>
#include <cmath>

#include "common/file.h"
#include "common/json.h"

namespace deco {

const char* ProvStateToString(ProvState state) {
  switch (state) {
    case ProvState::kProvisional:
      return "provisional";
    case ProvState::kCorrecting:
      return "correcting";
    case ProvState::kCorrected:
      return "corrected";
    case ProvState::kFinal:
      return "final";
  }
  return "unknown";
}

const char* ProvRegionToString(ProvRegion region) {
  switch (region) {
    case ProvRegion::kSlice:
      return "slice";
    case ProvRegion::kFront:
      return "front";
    case ProvRegion::kEnd:
      return "end";
    case ProvRegion::kCorrection:
      return "correction";
  }
  return "unknown";
}

ProvenanceTracker::ProvenanceTracker(size_t num_nodes,
                                     uint64_t regions_per_window)
    : num_nodes_(num_nodes),
      regions_per_window_(regions_per_window),
      reported_incarnation_(num_nodes, 0),
      has_reported_incarnation_(num_nodes, false),
      eos_(num_nodes, false),
      removed_(num_nodes, false) {}

void ProvenanceTracker::SetFabric(const NetworkFabric* fabric,
                                  std::vector<NodeId> node_ids) {
  fabric_ = fabric;
  node_ids_ = std::move(node_ids);
}

ProvenanceTracker::WindowSlot& ProvenanceTracker::GetSlot(uint64_t w) {
  auto it = open_.find(w);
  if (it != open_.end()) return it->second;
  WindowSlot& slot = open_[w];
  slot.parts.resize(num_nodes_);
  for (size_t n = 0; n < num_nodes_; ++n) {
    // A node that is already gone (or finished) when the window first
    // takes shape is not planned into it; everyone else owes the scheme's
    // full region set.
    if (!removed_[n] && !eos_[n]) {
      slot.parts[n].expected_data = regions_per_window_;
      slot.parts[n].touched = true;
    }
  }
  slot.transitions.push_back(
      ProvTransition{ProvState::kProvisional, now_nanos_, 0});
  return slot;
}

void ProvenanceTracker::AddStaleness(PartSlot* part,
                                     double create_mean_nanos) {
  if (create_mean_nanos <= 0.0) return;
  part->staleness_sum_nanos +=
      static_cast<double>(now_nanos_) - create_mean_nanos;
  ++part->staleness_samples;
}

uint64_t ProvenanceTracker::IncarnationOf(size_t node) const {
  if (node < has_reported_incarnation_.size() &&
      has_reported_incarnation_[node]) {
    return reported_incarnation_[node];
  }
  if (fabric_ != nullptr && node < node_ids_.size()) {
    return fabric_->node_incarnation(node_ids_[node]);
  }
  return 0;
}

void ProvenanceTracker::OnIncarnation(size_t node, uint64_t incarnation) {
  if (node >= num_nodes_) return;
  reported_incarnation_[node] = incarnation;
  has_reported_incarnation_[node] = true;
}

void ProvenanceTracker::OnEos(size_t node) {
  if (node < num_nodes_) eos_[node] = true;
}

void ProvenanceTracker::OnNodeRemoved(size_t node) {
  if (node < num_nodes_) removed_[node] = true;
}

void ProvenanceTracker::OnNodeRejoined(size_t node) {
  if (node < num_nodes_) removed_[node] = false;
}

void ProvenanceTracker::OnCorrectionBegin(uint64_t w) {
  WindowSlot& slot = GetSlot(w);
  if (!slot.correcting) {
    slot.correcting = true;
    slot.transitions.push_back(
        ProvTransition{ProvState::kCorrecting, now_nanos_,
                       slot.correction_rounds});
  }
  // Mirror WindowAssembler::BeginCorrection: every accepted data region of
  // this and later windows is discarded, and EOS flags reset (the rollback
  // makes locals re-produce retained events and re-announce end-of-stream).
  // The correction window itself owes no further data region; later
  // windows are re-planned and their regions resent under the new epoch,
  // so they owe the full set again.
  std::fill(eos_.begin(), eos_.end(), false);
  for (auto& [index, open] : open_) {
    if (index < w) continue;
    for (size_t n = 0; n < num_nodes_; ++n) {
      PartSlot& part = open.parts[n];
      part.discarded += part.received_data;
      part.received_data = 0;
      part.expected_data =
          (index == w || removed_[n] || eos_[n]) ? 0 : regions_per_window_;
    }
  }
}

void ProvenanceTracker::OnCorrectionSolicit(uint64_t w, size_t node) {
  if (node >= num_nodes_) return;
  WindowSlot& slot = GetSlot(w);
  PartSlot& part = slot.parts[node];
  ++part.expected_corr;
  part.touched = true;
  slot.correction_rounds =
      std::max(slot.correction_rounds, part.expected_corr);
}

void ProvenanceTracker::OnRegion(uint64_t w, size_t node, ProvRegion region,
                                 double create_mean_nanos) {
  (void)region;
  if (node >= num_nodes_) return;
  PartSlot& part = GetSlot(w).parts[node];
  ++part.received_data;
  part.touched = true;
  AddStaleness(&part, create_mean_nanos);
}

void ProvenanceTracker::OnDuplicate(uint64_t w, size_t node,
                                    ProvRegion region) {
  (void)region;
  if (node >= num_nodes_) return;
  PartSlot& part = GetSlot(w).parts[node];
  ++part.duplicates;
  part.touched = true;
}

void ProvenanceTracker::OnCorrectionResponse(uint64_t w, size_t node,
                                             double create_mean_nanos) {
  if (node >= num_nodes_) return;
  PartSlot& part = GetSlot(w).parts[node];
  ++part.received_corr;
  part.touched = true;
  AddStaleness(&part, create_mean_nanos);
}

void ProvenanceTracker::OnWindowEmitted(uint64_t protocol_window,
                                        uint64_t report_index, bool corrected,
                                        TimeNanos emit_nanos) {
  WindowSlot& slot = GetSlot(protocol_window);

  WindowProvenance record;
  record.window_index = report_index;
  record.corrected = corrected;
  record.correction_rounds = slot.correction_rounds;
  record.emit_nanos = emit_nanos;
  record.transitions = std::move(slot.transitions);
  if (corrected) {
    record.transitions.push_back(
        ProvTransition{ProvState::kCorrected, emit_nanos,
                       slot.correction_rounds});
  }
  record.transitions.push_back(
      ProvTransition{ProvState::kFinal, emit_nanos, slot.correction_rounds});

  record.compact = governance_.Collapsed(num_nodes_);
  if (record.compact) {
    record.contributor_bits.assign((num_nodes_ + 63) / 64, 0);
  }
  // Exemplar budget: room for a top-k of missing-heavy and a top-k of
  // duplicate-heavy nodes; anomalies beyond it only bump the drop counter
  // (the window totals already carry their weight).
  const size_t exemplar_cap = governance_.top_k * 2;

  for (size_t n = 0; n < num_nodes_; ++n) {
    PartSlot& part = slot.parts[n];
    // A node that reached end-of-stream owes nothing it did not send: its
    // unshipped regions are waived, never counted missing. The defensive
    // max() below keeps expected >= received even for regions that were
    // in flight when the node's planned set was established.
    if (eos_[n] && part.received_data < part.expected_data) {
      part.expected_data = part.received_data;
    }
    part.expected_data = std::max(part.expected_data, part.received_data);
    part.expected_corr = std::max(part.expected_corr, part.received_corr);
    if (!part.touched && part.duplicates == 0 && part.discarded == 0) {
      continue;
    }
    PartialProvenance out;
    out.node = n;
    out.incarnation = IncarnationOf(n);
    out.expected = part.expected_data + part.expected_corr;
    out.received = part.received_data + part.received_corr;
    out.missing = out.expected - out.received;
    out.duplicates = part.duplicates;
    out.discarded = part.discarded;
    out.staleness_sum_nanos = part.staleness_sum_nanos;
    out.staleness_samples = part.staleness_samples;
    record.expected_total += out.expected;
    record.received_total += out.received;
    record.missing_total += out.missing;
    record.duplicate_total += out.duplicates;
    record.staleness_sum_nanos += out.staleness_sum_nanos;
    record.staleness_samples += out.staleness_samples;
    if (out.received > 0) ++record.contributor_count;
    if (!record.compact) {
      record.parts.push_back(out);
      continue;
    }
    if (out.received > 0) {
      record.contributor_bits[n / 64] |= uint64_t{1} << (n % 64);
    }
    const bool anomalous = out.missing > 0 || out.duplicates > 0 ||
                           out.discarded > 0 || out.incarnation != 0;
    if (!anomalous) continue;
    if (record.parts.size() < exemplar_cap) {
      record.parts.push_back(out);
    } else {
      ++record.exemplars_dropped;
    }
  }
  open_.erase(protocol_window);

  if (max_windows_ != 0 && log_.windows.size() >= max_windows_) {
    ++log_.windows_dropped;
    return;
  }
  log_.windows.push_back(std::move(record));
}

void ProvenanceTracker::OnSynthesizedWindow(uint64_t report_index,
                                            const std::vector<bool>& live,
                                            double create_mean_nanos,
                                            TimeNanos emit_nanos) {
  WindowProvenance record;
  record.window_index = report_index;
  record.emit_nanos = emit_nanos;
  record.transitions.push_back(
      ProvTransition{ProvState::kProvisional, emit_nanos, 0});
  record.transitions.push_back(
      ProvTransition{ProvState::kFinal, emit_nanos, 0});
  record.compact = governance_.Collapsed(num_nodes_);
  if (record.compact) {
    record.contributor_bits.assign((num_nodes_ + 63) / 64, 0);
  }
  const size_t exemplar_cap = governance_.top_k * 2;
  for (size_t n = 0; n < num_nodes_ && n < live.size(); ++n) {
    if (!live[n]) continue;
    PartialProvenance out;
    out.node = n;
    out.incarnation = IncarnationOf(n);
    out.expected = 1;
    out.received = 1;
    if (create_mean_nanos > 0.0) {
      out.staleness_sum_nanos =
          static_cast<double>(emit_nanos) - create_mean_nanos;
      out.staleness_samples = 1;
    }
    record.expected_total += 1;
    record.received_total += 1;
    record.staleness_sum_nanos += out.staleness_sum_nanos;
    record.staleness_samples += out.staleness_samples;
    ++record.contributor_count;
    if (!record.compact) {
      record.parts.push_back(out);
      continue;
    }
    record.contributor_bits[n / 64] |= uint64_t{1} << (n % 64);
    if (out.incarnation == 0) continue;  // only restarts are exemplar-worthy
    if (record.parts.size() < exemplar_cap) {
      record.parts.push_back(out);
    } else {
      ++record.exemplars_dropped;
    }
  }
  if (max_windows_ != 0 && log_.windows.size() >= max_windows_) {
    ++log_.windows_dropped;
    return;
  }
  log_.windows.push_back(std::move(record));
}

void ProvenanceTracker::OnQueryWindowEmitted(uint32_t query_id,
                                             uint64_t window_index,
                                             uint64_t first_pane,
                                             uint64_t last_pane,
                                             bool corrected) {
  QueryWindowProvenance record;
  record.query_id = query_id;
  record.window_index = window_index;
  record.first_pane = first_pane;
  record.last_pane = last_pane;
  record.corrected = corrected;
  log_.query_windows.push_back(record);
}

ProvenanceLog ProvenanceTracker::TakeLog() {
  ProvenanceLog out = std::move(log_);
  log_ = ProvenanceLog();
  return out;
}

ProvenanceSummary ComputeProvenanceSummary(const ProvenanceLog& log) {
  ProvenanceSummary summary;
  summary.enabled = true;
  summary.windows_tracked = log.windows.size() + log.windows_dropped;
  double staleness_sum = 0.0;
  uint64_t staleness_samples = 0;
  for (const WindowProvenance& w : log.windows) {
    if (w.corrected) ++summary.windows_corrected;
    summary.correction_rounds += w.correction_rounds;
    summary.partials_expected += w.expected_total;
    summary.partials_received += w.received_total;
    summary.partials_missing += w.missing_total;
    summary.partials_duplicate += w.duplicate_total;
    // Window-level totals, not the parts list: compact records keep only
    // exemplar parts, but their staleness totals cover every node.
    staleness_sum += w.staleness_sum_nanos;
    staleness_samples += w.staleness_samples;
  }
  if (staleness_samples > 0) {
    summary.mean_staleness_nanos =
        staleness_sum / static_cast<double>(staleness_samples);
  }
  summary.windows_estimated = log.accuracy.size();
  if (!log.accuracy.empty()) {
    double abs_sum = 0.0;
    double drop_sum = 0.0;
    double staleness_err_sum = 0.0;
    double approx_sum = 0.0;
    for (const WindowAccuracy& acc : log.accuracy) {
      const double abs_err = std::fabs(acc.observed_error);
      abs_sum += abs_err;
      summary.max_abs_error = std::max(summary.max_abs_error, abs_err);
      drop_sum += std::fabs(acc.drop_error);
      staleness_err_sum += std::fabs(acc.staleness_error);
      approx_sum += std::fabs(acc.approx_error);
    }
    const double n = static_cast<double>(log.accuracy.size());
    summary.mean_abs_error = abs_sum / n;
    summary.mean_abs_drop_error = drop_sum / n;
    summary.mean_abs_staleness_error = staleness_err_sum / n;
    summary.mean_abs_approx_error = approx_sum / n;
  }
  return summary;
}

std::string ProvenanceJson(const ProvenanceLog& log) {
  std::string out;
  out.reserve(256 + log.windows.size() * 256 + log.accuracy.size() * 192);
  out += "{\"windows_tracked\": ";
  JsonAppendU64(&out, log.windows.size());
  out += ", \"windows_dropped\": ";
  JsonAppendU64(&out, log.windows_dropped);
  out += ",\n    \"windows\": [";
  for (size_t i = 0; i < log.windows.size(); ++i) {
    const WindowProvenance& w = log.windows[i];
    out += i == 0 ? "\n      {" : ",\n      {";
    out += "\"window\": ";
    JsonAppendU64(&out, w.window_index);
    out += ", \"corrected\": ";
    out += w.corrected ? "true" : "false";
    out += ", \"correction_rounds\": ";
    JsonAppendU64(&out, w.correction_rounds);
    out += ", \"emit_nanos\": ";
    JsonAppendI64(&out, w.emit_nanos);
    out += ", \"expected\": ";
    JsonAppendU64(&out, w.expected_total);
    out += ", \"received\": ";
    JsonAppendU64(&out, w.received_total);
    out += ", \"missing\": ";
    JsonAppendU64(&out, w.missing_total);
    out += ", \"duplicates\": ";
    JsonAppendU64(&out, w.duplicate_total);
    if (w.compact) {
      // Governed form (DESIGN.md §13): added keys only — full records
      // render byte-identically to the ungoverned schema.
      out += ", \"compact\": true, \"contributors\": ";
      JsonAppendU64(&out, w.contributor_count);
      out += ", \"contributor_bits\": [";
      for (size_t b = 0; b < w.contributor_bits.size(); ++b) {
        if (b > 0) out += ", ";
        JsonAppendU64(&out, w.contributor_bits[b]);
      }
      out += "], \"exemplars_dropped\": ";
      JsonAppendU64(&out, w.exemplars_dropped);
      out += ", \"staleness_mean_nanos\": ";
      JsonAppendDouble(&out,
                       w.staleness_samples == 0
                           ? 0.0
                           : w.staleness_sum_nanos /
                                 static_cast<double>(w.staleness_samples));
      out += ", \"staleness_samples\": ";
      JsonAppendU64(&out, w.staleness_samples);
    }
    out += ", \"states\": [";
    for (size_t t = 0; t < w.transitions.size(); ++t) {
      const ProvTransition& tr = w.transitions[t];
      if (t > 0) out += ", ";
      out += "{\"state\": \"";
      out += ProvStateToString(tr.state);
      out += "\", \"at_nanos\": ";
      JsonAppendI64(&out, tr.at_nanos);
      out += ", \"round\": ";
      JsonAppendU64(&out, tr.correction_round);
      out += "}";
    }
    out += "], \"parts\": [";
    for (size_t p = 0; p < w.parts.size(); ++p) {
      const PartialProvenance& part = w.parts[p];
      if (p > 0) out += ", ";
      out += "{\"node\": ";
      JsonAppendU64(&out, part.node);
      out += ", \"incarnation\": ";
      JsonAppendU64(&out, part.incarnation);
      out += ", \"expected\": ";
      JsonAppendU64(&out, part.expected);
      out += ", \"received\": ";
      JsonAppendU64(&out, part.received);
      out += ", \"missing\": ";
      JsonAppendU64(&out, part.missing);
      out += ", \"duplicates\": ";
      JsonAppendU64(&out, part.duplicates);
      out += ", \"discarded\": ";
      JsonAppendU64(&out, part.discarded);
      out += ", \"staleness_mean_nanos\": ";
      JsonAppendDouble(&out, part.MeanStalenessNanos());
      out += ", \"staleness_samples\": ";
      JsonAppendU64(&out, part.staleness_samples);
      out += "}";
    }
    out += "]}";
  }
  out += log.windows.empty() ? "]" : "\n    ]";
  out += ",\n    \"accuracy\": [";
  for (size_t i = 0; i < log.accuracy.size(); ++i) {
    const WindowAccuracy& a = log.accuracy[i];
    out += i == 0 ? "\n      {" : ",\n      {";
    out += "\"window\": ";
    JsonAppendU64(&out, a.window_index);
    out += ", \"emitted\": ";
    JsonAppendDouble(&out, a.emitted_value);
    out += ", \"truth\": ";
    JsonAppendDouble(&out, a.truth_value);
    out += ", \"recomputed\": ";
    JsonAppendDouble(&out, a.recomputed_value);
    out += ", \"observed_error\": ";
    JsonAppendDouble(&out, a.observed_error);
    out += ", \"drop_error\": ";
    JsonAppendDouble(&out, a.drop_error);
    out += ", \"staleness_error\": ";
    JsonAppendDouble(&out, a.staleness_error);
    out += ", \"approx_error\": ";
    JsonAppendDouble(&out, a.approx_error);
    out += ", \"dropped_events\": ";
    JsonAppendU64(&out, a.dropped_events);
    out += ", \"shifted_in_events\": ";
    JsonAppendU64(&out, a.shifted_in_events);
    out += ", \"shifted_out_events\": ";
    JsonAppendU64(&out, a.shifted_out_events);
    out += "}";
  }
  out += log.accuracy.empty() ? "]" : "\n    ]";
  out += ",\n    \"query_windows\": [";
  for (size_t i = 0; i < log.query_windows.size(); ++i) {
    const QueryWindowProvenance& q = log.query_windows[i];
    out += i == 0 ? "\n      {" : ",\n      {";
    out += "\"query\": ";
    JsonAppendU64(&out, q.query_id);
    out += ", \"window\": ";
    JsonAppendU64(&out, q.window_index);
    out += ", \"first_pane\": ";
    JsonAppendU64(&out, q.first_pane);
    out += ", \"last_pane\": ";
    JsonAppendU64(&out, q.last_pane);
    out += ", \"corrected\": ";
    out += q.corrected ? "true" : "false";
    out += "}";
  }
  out += log.query_windows.empty() ? "]}" : "\n    ]}";
  return out;
}

Status WriteProvenanceJson(const std::string& path, const std::string& scheme,
                           const ProvenanceLog& log) {
  std::string out = "{\n  \"schema_version\": 1,\n  \"scheme\": ";
  JsonAppendString(&out, scheme);
  out += ",\n  \"provenance\": ";
  out += ProvenanceJson(log);
  out += "\n}\n";
  return WriteFile(path, out);
}

}  // namespace deco
