#include "deco/root_node.h"

#include <algorithm>

#include "common/logging.h"
#include "deco/planner.h"
#include "node/apportion.h"
#include "obs/provenance.h"

namespace deco {

namespace {

/// Bootstrap slack: before a node's predictor has history, its delta is
/// `max(delta_floor, share / kBootstrapSlackDivisor)`.
constexpr uint64_t kBootstrapSlackDivisor = 8;

}  // namespace

DecoRootNode::DecoRootNode(NetworkFabric* fabric, NodeId id, Clock* clock,
                           RunContext* run, const Topology& topology,
                           const QueryRegistry* registry, DecoScheme scheme,
                           RunReport* report, DecoRootOptions options)
    : Actor(fabric, id, clock, run),
      topology_(topology),
      registry_(registry),
      scheme_(scheme),
      report_(report),
      options_(options) {}

bool DecoRootNode::RatesComplete(uint64_t w) const {
  auto it = rates_received_.find(w);
  if (it == rates_received_.end()) return false;
  for (size_t n = 0; n < topology_.num_locals(); ++n) {
    if (assembler_->IsRemoved(n) || assembler_->IsEos(n)) continue;
    if (!it->second[n]) return false;
  }
  return true;
}

Status DecoRootNode::Run() {
  // Fails on an empty registry; the primary query is slot 0.
  DECO_RETURN_NOT_OK(slot_bank_.Init(registry_));
  if (!slot_bank_.func(0)->IsDecomposable()) {
    return Status::NotSupported(
        "Deco decentralizes only (self-)decomposable aggregates; holistic "
        "functions are processed centrally (paper footnote 2) — use the "
        "Central scheme");
  }
  pane_length_ = registry_->PaneLength();
  serve_sync_needed_ =
      slot_bank_.size() > 1 || registry_->HasRuntimeSchedule();
  const QueryConfig& primary = registry_->queries()[0].query;
  track_consumption_ = primary.window.type != WindowType::kSliding &&
                       pane_length_ == primary.window.length;
  serve_states_.clear();
  serve_triggers_.clear();
  report_->query_results.clear();
  for (size_t qi = 0; qi < registry_->queries().size(); ++qi) {
    const ServedQuery& q = registry_->queries()[qi];
    ServeQueryState state;
    state.composer = std::make_unique<QueryComposer>(
        q, slot_bank_.func(q.slot), pane_length_);
    serve_states_.push_back(std::move(state));
    QueryRunResult result;
    result.query_id = q.id;
    result.tenant = q.tenant;
    result.spec = q.spec;
    result.start_pane = 0;
    result.end_pane = kServePaneNever;
    result.activated = q.add_pane == 0;
    report_->query_results.push_back(std::move(result));
    if (q.add_pane != 0) serve_triggers_.push_back({q.add_pane, qi, true});
    if (q.remove_pane != kServePaneNever) {
      serve_triggers_.push_back({q.remove_pane, qi, false});
    }
  }
  std::stable_sort(serve_triggers_.begin(), serve_triggers_.end(),
                   [](const ServeTrigger& a, const ServeTrigger& b) {
                     if (a.pane != b.pane) return a.pane < b.pane;
                     return a.add && !b.add;
                   });
  const size_t m = topology_.num_locals();
  assembler_ =
      std::make_unique<WindowAssembler>(m, slot_bank_.func(0), pane_length_);
  assembler_->set_expect_front(scheme_ == DecoScheme::kAsync);
  assembler_->set_provenance(provenance_);
  assembler_->set_slot_bank(&slot_bank_);
  if (serve_sync_needed_) {
    DECO_RETURN_NOT_OK(SendServeSnapshot(SIZE_MAX));
  }
  delta_multiplier_ = options_.delta_multiplier > 0.0
                          ? options_.delta_multiplier
                          : FleetDeltaMultiplier(m);
  predictors_.assign(
      m, LocalWindowPredictor(options_.predictor_history_m,
                              options_.delta_floor, delta_multiplier_));
  last_consumed_.assign(m, 0);
  latest_rates_.assign(m, 0.0);
  bootstrap_target_.assign(m, std::nullopt);
  asks_.assign(m, Ask{});
  last_heard_.assign(m, NowNanos());
  stall_since_ = NowNanos();
  report_->consumption = ConsumptionLog(m);

  while (!stop_requested() && !finished_) {
    std::optional<Message> msg =
        options_.node_timeout_nanos > 0
            ? ReceiveWithTimeout(options_.node_timeout_nanos / 4)
            : Receive();
    if (msg.has_value()) {
      DECO_RETURN_NOT_OK(Dispatch(*msg));
    } else if (options_.node_timeout_nanos == 0) {
      break;  // mailbox closed
    }
    if (options_.node_timeout_nanos > 0) {
      // Checked on every iteration, not only on a receive timeout:
      // steady chatter (liveness heartbeats, rate reports) would
      // otherwise keep the receive from ever timing out and starve the
      // failure detector — and with it the correction retry and the
      // window-stall repair.
      DECO_RETURN_NOT_OK(CheckNodeTimeouts());
    }
    DECO_RETURN_NOT_OK(Progress());
    UpdateOpsGauges();
  }
  return BroadcastShutdown();
}

void DecoRootNode::UpdateOpsGauges() {
  if (nodes_live_gauge_ == nullptr) {
    next_window_gauge_ = metrics()->gauge("root.next_window");
    correcting_gauge_ = metrics()->gauge("root.correcting");
    nodes_live_gauge_ = metrics()->gauge("root.nodes_live");
  }
  next_window_gauge_->Set(static_cast<int64_t>(assembler_->next_window()));
  correcting_gauge_->Set(assembler_->repairing() ? 1 : 0);
  int64_t live = 0;
  for (size_t n = 0; n < topology_.num_locals(); ++n) {
    if (!assembler_->IsRemoved(n)) ++live;
  }
  nodes_live_gauge_->Set(live);
}

Status DecoRootNode::Dispatch(const Message& msg) {
  DECO_ASSIGN_OR_RETURN(size_t node, topology_.OrdinalOf(msg.src));
  last_heard_[node] = NowNanos();
  causal_msg_id_ = MessageCausalId(msg);
  if (provenance_ != nullptr) provenance_->set_now_nanos(NowNanos());
  if (assembler_->IsRemoved(node) && msg.type != MessageType::kRejoin) {
    // False suspicion: a removed node is still talking, so it was
    // partitioned or slow, not dead — and it has no way to learn of its
    // removal (only a crash victim announces kRejoin, on revival). Any
    // message proves liveness: re-admit it. The message itself is dropped
    // (its epoch predates the removal rollback); the readmission asks the
    // node for its retained stream from the watermark, so nothing it
    // buffered is lost. Found by tests/chaos_fuzz_test.cc: a healed
    // partition used to leave the victim producing into the void for the
    // rest of the run.
    RateReport report;
    report.event_rate = latest_rates_[node];
    // Synthetic report (the node never announced kRejoin): take its
    // incarnation from the fabric so provenance still attributes the
    // readmitted contribution correctly.
    report.incarnation = fabric_->node_incarnation(msg.src);
    return HandleRejoin(node, report);
  }
  switch (msg.type) {
    case MessageType::kEventRate: {
      BinaryReader reader(msg.payload);
      DECO_ASSIGN_OR_RETURN(RateReport report, DecodeRateReport(&reader));
      auto& row = rates_[report.window_index];
      if (row.empty()) row.assign(topology_.num_locals(), 0.0);
      row[node] = report.event_rate;
      latest_rates_[node] = report.event_rate;
      auto& got = rates_received_[report.window_index];
      if (got.empty()) got.assign(topology_.num_locals(), false);
      got[node] = true;
      if (provenance_ != nullptr) {
        provenance_->OnIncarnation(node, report.incarnation);
      }
      return Status::OK();
    }
    case MessageType::kPartialResult: {
      if (msg.epoch != epoch_) return Status::OK();  // stale after rollback
      DECO_TRACE_SPAN_MSG(*run_, id_, TracePhase::kPartialReceived,
                          msg.window_index, static_cast<int64_t>(node),
                          MessageCausalId(msg));
      BinaryReader reader(msg.payload);
      DECO_ASSIGN_OR_RETURN(SliceSummary slice, DecodeSliceSummary(&reader));
      if (slice.event_rate > 0.0) latest_rates_[node] = slice.event_rate;
      return assembler_->AddSlice(msg.window_index, node, std::move(slice),
                                  msg.lat_mean_create_nanos);
    }
    case MessageType::kEventBatch: {
      if (msg.epoch != epoch_) return Status::OK();
      BinaryReader reader(msg.payload);
      DECO_ASSIGN_OR_RETURN(EventBatchPayload batch,
                            DecodeEventBatch(&reader));
      return assembler_->AddRaw(msg.window_index, node, batch.role,
                                std::move(batch.events),
                                msg.lat_mean_create_nanos);
    }
    case MessageType::kCorrectionResult: {
      if (!assembler_->repairing() ||
          msg.window_index != correction_window_ || msg.epoch != epoch_) {
        DECO_LOG(DEBUG) << "root: dropping stale correction response from "
                        << node << " (w" << msg.window_index << " epoch "
                        << msg.epoch << " vs " << epoch_ << ")";
        return Status::OK();  // late response from an older correction
      }
      BinaryReader reader(msg.payload);
      DECO_ASSIGN_OR_RETURN(CorrectionResponse response,
                            DecodeCorrectionResponse(&reader));
      Ask& ask = asks_[node];
      if (response.round != ask.round || ask.responded) {
        // A delayed response overtaken by a lost-message retry (or a
        // duplicate): the latest round's response supersedes it, and
        // accepting both would double-count the overlap.
        DECO_LOG(DEBUG) << "root: dropping superseded correction response "
                        << "from " << node << " (round " << response.round
                        << " vs " << ask.round << ")";
        return Status::OK();
      }
      DECO_LOG(DEBUG) << "root: correction response from " << node
                      << " bytes=" << msg.payload.size();
      ask.responded = true;
      return assembler_->AddRepair(node, response.events,
                                   msg.lat_mean_create_nanos,
                                   response.end_of_stream);
    }
    case MessageType::kShutdown:
      if (msg.epoch != epoch_) return Status::OK();  // pre-rollback marker
      DECO_LOG(DEBUG) << "root: node " << node << " eos";
      assembler_->MarkEos(node);
      return Status::OK();
    case MessageType::kRejoin: {
      BinaryReader reader(msg.payload);
      DECO_ASSIGN_OR_RETURN(RateReport report, DecodeRateReport(&reader));
      return HandleRejoin(node, report);
    }
    default:
      DECO_LOG(WARNING) << "deco root ignoring "
                        << MessageTypeToString(msg.type);
      return Status::OK();
  }
}

Status DecoRootNode::Progress() {
  // Assemble as many consecutive windows as possible. A window under
  // correction is re-verified once every response it asked for arrived.
  while (!RepairOutstanding()) {
    const bool repairing = assembler_->repairing();
    const bool emptied = assembler_->emptied();
    WindowAssembly assembly;
    const auto outcome = assembler_->TryAssemble(&assembly);
    if (outcome == WindowAssembler::Outcome::kAssembled) {
      DECO_RETURN_NOT_OK(repairing ? FinishRepair(assembly, emptied)
                                   : FinishWindow(assembly,
                                                  /*corrected=*/false));
      continue;
    }
    if (outcome == WindowAssembler::Outcome::kNeedCorrection) {
      return StartRepair();
    }
    if (outcome == WindowAssembler::Outcome::kEndOfStream) {
      DECO_LOG(DEBUG) << "root: end of stream at window "
                      << assembler_->next_window();
      finished_ = true;
      return Status::OK();
    }
    break;  // kNotReady
  }
  return MaybeSendAssignments();
}

bool DecoRootNode::RepairOutstanding() const {
  if (!assembler_->repairing()) return false;
  for (size_t n = 0; n < topology_.num_locals(); ++n) {
    if (!assembler_->IsRemoved(n) && !asks_[n].responded) return true;
  }
  return false;
}

Status DecoRootNode::StartRepair() {
  const bool first_round = !assembler_->repairing();
  std::vector<RepairRequest> requests;
  if (!assembler_->BeginRepair(&requests)) return StartCorrection();
  if (first_round) {
    DECO_LOG(DEBUG) << "root: repairing window "
                    << assembler_->next_window();
    DECO_TRACE_SPAN_MSG(*run_, id_, TracePhase::kCorrect,
                        assembler_->next_window(),
                        static_cast<int64_t>(epoch_ + 1), causal_msg_id_);
    metrics()->counter("root.corrections")->Increment();
    ++report_->correction_steps;
    correction_window_ = assembler_->next_window();
  }
  // Repair requests go out at the current epoch: the held window and the
  // later windows' inputs stay valid until the repaired window assembles.
  for (Ask& ask : asks_) ask.responded = true;
  for (const RepairRequest& request : requests) {
    DECO_RETURN_NOT_OK(SendCorrectionRequest(
        request.node, request.from_index, request.count));
  }
  return Status::OK();
}

Status DecoRootNode::FinishRepair(const WindowAssembly& assembly,
                                  bool emptied) {
  if (!emptied) {
    // The assembler dropped every later input with the repaired window.
    // Bump the epoch so in-flight messages for them are stale; the next
    // assignment is the rollback. An emptied window did all this when it
    // was emptied.
    ++epoch_;
    metrics()->counter("root.corrections_repaired")->Increment();
    ++report_->corrections_repaired;
    if (serve_sync_needed_) {
      DECO_RETURN_NOT_OK(SendServeSnapshot(SIZE_MAX));
    }
  }
  return FinishWindow(assembly, /*corrected=*/true);
}

Status DecoRootNode::StartCorrection() {
  // A repair that escalates was counted when it began.
  const bool escalating = assembler_->repairing();
  DECO_LOG(DEBUG) << "root: correction for window "
                  << assembler_->next_window()
                  << (escalating ? " (repair escalated)" : "");
  DECO_TRACE_SPAN_MSG(*run_, id_, TracePhase::kCorrect,
                      assembler_->next_window(),
                      static_cast<int64_t>(epoch_ + 1), causal_msg_id_);
  if (!escalating) {
    metrics()->counter("root.corrections")->Increment();
    ++report_->correction_steps;
  }
  correction_window_ = assembler_->next_window();
  assembler_->BeginCorrection();
  // Roll the epoch forward: every in-flight data message for this or any
  // later window is now stale (paper §4.3.2: local nodes recalculate all
  // windows after the wrong one).
  ++epoch_;
  if (serve_sync_needed_) {
    // Re-broadcast the authoritative slot schedule with the rollback: if
    // the correction was triggered by a local that missed a schedule
    // snapshot, this heals it before the re-produced panes arrive.
    DECO_RETURN_NOT_OK(SendServeSnapshot(SIZE_MAX));
  }
  for (size_t n = 0; n < topology_.num_locals(); ++n) {
    if (assembler_->IsRemoved(n)) continue;
    DECO_RETURN_NOT_OK(SolicitCorrection(n));
  }
  return Status::OK();
}

Status DecoRootNode::SolicitCorrection(size_t node) {
  const LocalWindowPredictor& p = predictors_[node];
  const uint64_t count =
      p.Ready() ? p.PredictedSize() + 2 * p.Delta() : pane_length_ + 1;
  return SendCorrectionRequest(node, /*from_index=*/0, count);
}

Status DecoRootNode::SendCorrectionRequest(size_t node, uint64_t from_index,
                                           uint64_t count) {
  CorrectionRequest request;
  request.window_index = correction_window_;
  request.from_index = from_index;
  request.count = count;
  request.wm_ts = last_watermark_.ts;
  request.wm_stream = last_watermark_.stream;
  request.wm_id = last_watermark_.id;
  Ask& ask = asks_[node];
  ask.from_index = from_index;
  ask.count = count;
  ask.sent_at = NowNanos();
  ask.responded = false;
  request.round = ++ask.round;
  if (provenance_ != nullptr) {
    provenance_->OnCorrectionSolicit(correction_window_, node);
  }
  BinaryWriter writer;
  EncodeCorrectionRequest(request, &writer);
  Message msg;
  msg.type = MessageType::kCorrectionRequest;
  msg.dst = topology_.locals[node];
  msg.window_index = correction_window_;
  msg.epoch = epoch_;
  msg.payload = writer.Release();
  return Send(std::move(msg));
}

Status DecoRootNode::HandleRejoin(size_t node, const RateReport& report) {
  DECO_LOG(WARNING) << "deco root: local node " << topology_.locals[node]
                    << " rejoined (rate " << report.event_rate << ")";
  // Scrub every per-node trace of the pre-crash incarnation; the node's
  // durable retained queue is re-solicited by the correction below.
  assembler_->ReadmitNode(node);
  // The fresh predictor sends the node back to bootstrap assignments, and
  // so re-arms the async start-up step (`MaybeSendAssignments`).
  predictors_[node] = LocalWindowPredictor(
      options_.predictor_history_m, options_.delta_floor, delta_multiplier_);
  last_consumed_[node] = 0;
  if (report.event_rate > 0.0) latest_rates_[node] = report.event_rate;
  last_heard_[node] = NowNanos();
  if (provenance_ != nullptr) {
    provenance_->OnIncarnation(node, report.incarnation);
  }
  report_->membership.push_back(
      MembershipEvent{NowNanos(), node, /*rejoined=*/true});
  metrics()->counter("root.nodes_rejoined")->Increment();
  if (serve_sync_needed_) {
    // The reborn local lost every in-flight schedule snapshot; restore
    // its slot schedule before re-soliciting its retained stream.
    DECO_RETURN_NOT_OK(SendServeSnapshot(node));
  }
  if (assembler_->emptied()) {
    // Fold the rejoined node into the emptied window: `ReadmitNode`
    // emptied its part, and it is asked from index 0 beside the others.
    return SolicitCorrection(node);
  }
  // Empty the current window with the rejoined node contributing; the
  // epoch bump doubles as the rollback signal ending its rejoin wait.
  return StartCorrection();
}

Status DecoRootNode::EmitProtocolWindow(const WindowAssembly& assembly,
                                        bool corrected) {
  // `TryAssemble` already advanced the window counter, so the pane just
  // assembled is `next_window() - 1`.
  const uint64_t pane_index = assembler_->next_window() - 1;
  const uint64_t pane_ordinal = panes_seen_++;
  report_->events_processed += assembly.event_count;
  if (track_consumption_) report_->consumption.AddWindow(assembly.consumed);
  if (provenance_ != nullptr) {
    // One provenance record per protocol pane (the unit the protocol
    // actually assembles); per-query composed windows are tracked
    // separately below. When panes and primary windows are 1:1 the pane
    // ordinal equals the legacy emitted-window index.
    provenance_->OnWindowEmitted(pane_index, pane_ordinal, corrected,
                                 NowNanos());
  }

  for (size_t qi = 0; qi < serve_states_.size(); ++qi) {
    const ServedQuery& q = registry_->queries()[qi];
    const Partial& partial =
        assembly.slots.empty() ? assembly.partial : assembly.slots[q.slot];
    std::optional<ComposedWindow> win = serve_states_[qi].composer->AddPane(
        pane_index, partial, assembly.create_mean, assembly.create_count,
        corrected, assembly.watermark.ts);
    if (!win.has_value()) continue;

    QueryRunResult& qr = report_->query_results[qi];
    GlobalWindowRecord record;
    record.window_index = qr.windows.size();
    record.value = win->value;
    record.event_count = win->event_count;
    record.corrected = win->corrected;
    record.end_ts = win->end_ts;
    record.mean_latency_nanos =
        static_cast<double>(NowNanos()) - win->create_mean;
    qr.windows.push_back(record);
    if (provenance_ != nullptr) {
      provenance_->OnQueryWindowEmitted(q.id, record.window_index,
                                        win->first_pane, win->last_pane,
                                        win->corrected);
    }
    if (qi == 0) {
      // The primary query also feeds the legacy report surfaces.
      report_->windows.push_back(record);
      report_->latency.Record(
          static_cast<int64_t>(record.mean_latency_nanos));
      ++report_->windows_emitted;
      metrics()->counter("root.windows_emitted")->Increment();
      metrics()
          ->counter("root.events_emitted")
          ->Add(static_cast<int64_t>(record.event_count));
      DECO_TRACE_SPAN_MSG(*run_, id_, TracePhase::kEmit,
                          record.window_index,
                          static_cast<int64_t>(record.event_count),
                          causal_msg_id_);
    }
  }
  return Status::OK();
}

Status DecoRootNode::ProcessServeTriggers(uint64_t pane) {
  // The effective pane must clear every local's planning horizon: locals
  // may already be producing (async runs ahead of the assignments), so the
  // transition lands a safety margin past both the assembly frontier and
  // the assignment frontier. A local that still misses the snapshot
  // produces a slice without the expected slot partial; the root repairs
  // that window by opening the slice, whose raw events feed every slot.
  constexpr uint64_t kActivationMargin = 8;
  bool fired = false;
  while (!serve_triggers_.empty() && serve_triggers_.front().pane <= pane) {
    const ServeTrigger trigger = serve_triggers_.front();
    serve_triggers_.pop_front();
    fired = true;
    const ServedQuery& q = registry_->queries()[trigger.query];
    const uint64_t horizon =
        std::max(assignment_window_, assembler_->next_window());
    const uint64_t effective =
        std::max(trigger.pane, horizon + kActivationMargin);
    QueryRunResult& qr = report_->query_results[trigger.query];
    if (trigger.add) {
      slot_bank_.schedule()->Activate(q.slot, effective);
      serve_states_[trigger.query].composer->set_start_pane(effective);
      qr.start_pane = effective;
      qr.activated = true;
      DECO_LOG(DEBUG) << "root: query " << q.id << " (" << q.spec
                      << ") activates at pane " << effective;
    } else {
      // Retire the slot only when no other query still needs it; a query
      // scheduled to activate later re-opens it with a fresh interval.
      bool still_needed = false;
      for (size_t qj = 0; qj < serve_states_.size(); ++qj) {
        if (qj == trigger.query) continue;
        const ServedQuery& other = registry_->queries()[qj];
        if (other.slot != q.slot) continue;
        const QueryRunResult& other_r = report_->query_results[qj];
        if (other_r.activated && other_r.end_pane > effective) {
          still_needed = true;
          break;
        }
      }
      if (!still_needed) slot_bank_.schedule()->Retire(q.slot, effective);
      serve_states_[trigger.query].composer->Close(effective);
      qr.end_pane = effective;
      DECO_LOG(DEBUG) << "root: query " << q.id << " (" << q.spec
                      << ") retires at pane " << effective
                      << (still_needed ? "" : " (slot retired)");
    }
  }
  return fired ? SendServeSnapshot(SIZE_MAX) : Status::OK();
}

Status DecoRootNode::SendServeSnapshot(size_t node) {
  ServeSnapshot snapshot;
  snapshot.pane_length = pane_length_;
  snapshot.schedule.CopyFrom(*slot_bank_.schedule());
  BinaryWriter writer;
  EncodeServeSnapshot(snapshot, &writer);
  const std::string payload = writer.buffer();
  for (size_t n = 0; n < topology_.num_locals(); ++n) {
    if (node != SIZE_MAX && n != node) continue;
    if (node == SIZE_MAX && assembler_ != nullptr &&
        assembler_->IsRemoved(n)) {
      continue;
    }
    Message msg;
    msg.type = MessageType::kQueryConfig;
    msg.dst = topology_.locals[n];
    msg.epoch = epoch_;
    msg.payload = payload;
    Status status = Send(std::move(msg));
    if (!status.ok() && !status.IsNodeFailed()) return status;
  }
  return Status::OK();
}

Status DecoRootNode::FinishWindow(const WindowAssembly& assembly,
                                  bool corrected) {
  // `TryAssemble` just verified and advanced past this window.
  DECO_TRACE_SPAN_MSG(*run_, id_, TracePhase::kAssemble,
                      assembler_->next_window() - 1,
                      static_cast<int64_t>(assembly.event_count),
                      causal_msg_id_);
  if (GetLogLevel() <= LogLevel::kDebug) {
    std::string leftovers;
    for (size_t n = 0; n < topology_.num_locals(); ++n) {
      leftovers += std::to_string(assembler_->leftover_size(n)) + "/" +
                   std::to_string(assembly.consumed[n]) + " ";
    }
    DECO_LOG(DEBUG) << "root: finished window " << report_->windows_emitted
                    << (corrected ? " (corrected)" : "")
                    << " leftovers: " << leftovers;
  }
  // Fire runtime add/remove transitions whose requested pane has been
  // reached *before* feeding the pane to the composers: an activation's
  // effective pane is always in the future, so the pane emitted right now
  // must not be consumed by a query activating at it.
  DECO_RETURN_NOT_OK(
      ProcessServeTriggers(assembler_->next_window() - 1));
  DECO_RETURN_NOT_OK(EmitProtocolWindow(assembly, corrected));

  // Feed the predictors with the paper's rate-derived actual sizes
  // (§4.2.2): a verified window's consumed counts are capped to the plan
  // by construction, so they cannot reflect true drift.
  bool have_rates = true;
  for (size_t n = 0; n < topology_.num_locals(); ++n) {
    if (!assembler_->IsRemoved(n) && !(latest_rates_[n] > 0.0)) {
      have_rates = false;
      break;
    }
  }
  std::vector<uint64_t> estimates = assembly.consumed;
  if (have_rates) {
    std::vector<double> weights(topology_.num_locals(), 0.0);
    for (size_t n = 0; n < topology_.num_locals(); ++n) {
      if (!assembler_->IsRemoved(n)) weights[n] = latest_rates_[n];
    }
    auto apportioned = ApportionWindow(pane_length_, weights);
    if (apportioned.ok()) estimates = std::move(apportioned).value();
  }
  for (size_t n = 0; n < topology_.num_locals(); ++n) {
    if (assembler_->IsRemoved(n)) continue;
    last_consumed_[n] = assembly.consumed[n];
    predictors_[n].ObserveActual(estimates[n]);
  }
  last_watermark_ = assembly.watermark;
  last_window_corrected_ = corrected;
  return Status::OK();
}

Status DecoRootNode::MaybeSendAssignments() {
  if (last_window_corrected_) {
    // The first assignment after a corrected window is the rollback, and
    // the locals resume planning at its window. It must name the window
    // the root assembles next: regions planned for one it already
    // assembled are dropped as stale, and the next window's held events
    // would then no longer start at retained index 0, where every
    // correction request counts from.
    assignment_window_ =
        std::max(assignment_window_, assembler_->next_window());
  }
  while (assignment_window_ <= assembler_->next_window() &&
         !assembler_->repairing()) {
    const uint64_t w = assignment_window_;
    const size_t m = topology_.num_locals();
    std::vector<uint64_t> sizes(m, 0);
    std::vector<uint64_t> deltas(m, 0);

    const bool bootstrap = w == 0;
    const bool monitored = scheme_ == DecoScheme::kMon;
    if (scheme_ == DecoScheme::kMonLocal) {
      // Deco_monlocal: sizes are computed by the local nodes themselves;
      // the assignment only signals the window start and the watermark.
    } else if (bootstrap || monitored) {
      // Measured split: needs this window's rate reports from every node.
      // After a correction the assignment is also the rollback signal, so
      // it must go out even without fresh reports (falling back to the
      // latest known rates): exhausted locals report nothing further.
      const bool have_fresh = RatesComplete(w);
      if (!have_fresh && !last_window_corrected_) return Status::OK();
      DECO_ASSIGN_OR_RETURN(
          sizes, ApportionWindow(pane_length_,
                                 have_fresh ? rates_[w] : latest_rates_));
      rates_.erase(w);
      rates_received_.erase(w);
      for (size_t n = 0; n < m; ++n) {
        deltas[n] = predictors_[n].Ready()
                        ? predictors_[n].Delta()
                        : std::max<uint64_t>(
                              options_.delta_floor,
                              sizes[n] / kBootstrapSlackDivisor);
      }
    } else {
      // Predicted split (Algorithm 1).
      for (size_t n = 0; n < m; ++n) {
        if (predictors_[n].Ready()) {
          sizes[n] = predictors_[n].PredictedSize();
          deltas[n] = predictors_[n].Delta();
        } else {
          sizes[n] = last_consumed_[n];
          deltas[n] = std::max<uint64_t>(
              options_.delta_floor,
              sizes[n] / kBootstrapSlackDivisor);
        }
      }
    }
    // Size-relative delta floor: the cut position jitters by a few events
    // even under perfectly stable rates (discrete interleaving), so the
    // raw edge must never shrink below a small fraction of the local
    // window regardless of how calm the rate history looks.
    for (size_t n = 0; n < m; ++n) {
      deltas[n] = std::max(deltas[n], sizes[n] / 256);
    }

    // Deco_async recentering. The root's carryover has two failure axes:
    // its *distribution* across nodes drifts as a near-zero-sum random
    // walk (per-window selection tilt), and its *aggregate* level drifts
    // slowly (local nodes apply assignment versions at different times,
    // so applied region sizes do not sum to the window exactly). The
    // distribution is corrected aggressively (zero-sum component, gain
    // 0.5); the aggregate gently (uniform component, gain 0.15), because
    // it interacts with the pipeline lag and over-correcting oscillates.
    std::vector<double> adjust(m, 0.0);
    if (scheme_ == DecoScheme::kAsync) {
      std::vector<double> target(m, 0.0);
      double total_dev = 0.0;
      size_t live = 0;
      for (size_t n = 0; n < m; ++n) {
        if (assembler_->IsRemoved(n)) continue;
        const uint64_t end = AsyncEndSize(sizes[n], deltas[n]);
        const uint64_t front = AsyncFrontSize(sizes[n], deltas[n]);
        target[n] = end > front ? static_cast<double>(end - front) / 2.0 : 1.0;
        adjust[n] = target[n] - static_cast<double>(assembler_->carry(n));
        total_dev += adjust[n];
        ++live;
      }
      if (live > 0) {
        const double mean_dev = total_dev / static_cast<double>(live);
        for (size_t n = 0; n < m; ++n) {
          if (assembler_->IsRemoved(n)) continue;
          adjust[n] = 0.5 * (adjust[n] - mean_dev) + 0.15 * mean_dev;
        }
      }
      // Start-up step. The bootstrap layout (delta = share/8) targets a
      // carry of share/16, far above a predicted layout's (share/128 at a
      // calm rate). The slices follow the new layout at once, so a carry
      // that the gain above walks down over several windows overshoots the
      // first predicted ones, and their repairs open every slice. A node's
      // first predicted assignment therefore passes the whole step of its
      // target through, once. A rollback needs none: its slack window
      // plants the carry at the current target by itself.
      for (size_t n = 0; n < m; ++n) {
        if (assembler_->IsRemoved(n)) continue;
        if (!predictors_[n].Ready()) {
          bootstrap_target_[n] = target[n];
        } else if (bootstrap_target_[n].has_value()) {
          if (!last_window_corrected_) {
            adjust[n] += target[n] - *bootstrap_target_[n];
          }
          bootstrap_target_[n].reset();
        }
      }
    }

    for (size_t n = 0; n < m; ++n) {
      if (assembler_->IsRemoved(n)) continue;
      // Events already buffered at the root (carryover from the previous
      // window's raw edge) count toward this node's local window; the
      // synchronous schemes must not re-plan them. Deco_async local nodes
      // run ahead of these assignments, so their layout self-balances
      // around the standing root-buffer slack instead.
      if (scheme_ == DecoScheme::kMonLocal) {
        // Deco_monlocal: the locals compute their own sizes; ship the
        // node's root-buffer carryover so it can subtract it.
        sizes[n] = assembler_->leftover_size(n);
      } else if (scheme_ != DecoScheme::kAsync) {
        const uint64_t leftover = assembler_->leftover_size(n);
        sizes[n] = sizes[n] > leftover ? sizes[n] - leftover : 0;
      }
      WindowAssignment assignment;
      assignment.window_index = w;
      assignment.local_window_size = sizes[n];
      assignment.delta = deltas[n];
      if (scheme_ == DecoScheme::kAsync) {
        assignment.size_adjust = static_cast<int64_t>(adjust[n]);
      }
      assignment.wm_ts = last_watermark_.ts;
      assignment.wm_stream = last_watermark_.stream;
      assignment.wm_id = last_watermark_.id;
      DECO_RETURN_NOT_OK(SendAssignment(n, assignment));
    }
    DECO_LOG(DEBUG) << "root: sent assignments for window " << w;
    DECO_TRACE_SPAN(*run_, id_, TracePhase::kWindowOpen, w,
                    static_cast<int64_t>(m));
    ++assignment_window_;
  }
  return Status::OK();
}

Status DecoRootNode::SendAssignment(size_t node,
                                    const WindowAssignment& assignment) {
  BinaryWriter writer;
  EncodeWindowAssignment(assignment, &writer);
  Message msg;
  msg.type = MessageType::kWindowAssignment;
  msg.dst = topology_.locals[node];
  msg.window_index = assignment.window_index;
  msg.epoch = epoch_;
  msg.payload = writer.Release();
  return Send(std::move(msg));
}

Status DecoRootNode::BroadcastShutdown() {
  for (NodeId local : topology_.locals) {
    Message msg;
    msg.type = MessageType::kShutdown;
    msg.dst = local;
    msg.epoch = epoch_;
    Status status = Send(std::move(msg));
    if (!status.ok() && !status.IsNodeFailed()) return status;
  }
  return Status::OK();
}

Status DecoRootNode::CheckNodeTimeouts() {
  const TimeNanos now = NowNanos();
  // Timeout-driven removals/corrections can fire without a message in
  // hand, so the tracker's clock may be stale from the last dispatch.
  if (provenance_ != nullptr) provenance_->set_now_nanos(now);
  bool stalled = false;
  if (RepairOutstanding() || assembler_->next_window() != stall_window_) {
    // Progress (or an outstanding correction request, which has its own
    // per-node retry): restart the stall timer.
    stall_window_ = assembler_->next_window();
    stall_since_ = now;
  } else if (now - stall_since_ > 2 * options_.node_timeout_nanos) {
    // The current window has been unassemblable for two full timeouts
    // with every contributor alive: some data-plane message (a partial,
    // an event batch, an assignment) was lost to drop/partition chaos.
    // Emptying the window asks every live node for its retained stream
    // from the watermark, which re-covers whatever was dropped. The 2x
    // margin keeps a slow-but-progressing window (low rate, large window)
    // from paying a spurious correction. Found by tests/chaos_fuzz_test.cc:
    // a dropped deco-async partial stalled the run until the virtual-time
    // limit while heartbeats kept all nodes admitted.
    DECO_LOG(WARNING) << "deco root: window " << stall_window_
                      << " stalled with all nodes live; correcting";
    stall_since_ = now;
    stalled = true;
  }
  bool removed_any = false;
  bool repair_overdue = false;
  const bool repairing = assembler_->repairing();
  for (size_t n = 0; n < topology_.num_locals(); ++n) {
    if (assembler_->IsRemoved(n) || assembler_->IsEos(n)) continue;
    // Only a node whose input the root is actually waiting for can be
    // declared dead: synchronous local nodes legitimately go silent once
    // they have shipped their window and are awaiting the next
    // assignment.
    const bool awaited = repairing ? !asks_[n].responded
                                   : !assembler_->HasWindowInputs(n);
    if (!awaited) {
      last_heard_[n] = now;
      continue;
    }
    if (now - last_heard_[n] > options_.node_timeout_nanos) {
      DECO_LOG(WARNING) << "deco root: local node " << topology_.locals[n]
                        << " timed out; removing and correcting";
      assembler_->RemoveNode(n);
      report_->membership.push_back(
          MembershipEvent{now, n, /*rejoined=*/false});
      metrics()->counter("root.nodes_removed")->Increment();
      removed_any = true;
    } else if (repairing &&
               now - asks_[n].sent_at > options_.node_timeout_nanos) {
      if (!assembler_->emptied()) {
        // An overdue response to a held window's repair empties the
        // window, which asks every live node under a fresh epoch.
        DECO_LOG(WARNING) << "deco root: local node " << topology_.locals[n]
                          << " repair response overdue; correcting";
        repair_overdue = true;
      } else {
        // The node is alive (its heartbeats refresh `last_heard_`, so the
        // removal branch above can never fire) yet its response is
        // overdue: the request or the response was lost to drop/partition
        // chaos, and neither side will ever resend on its own. Ask again
        // for the same events under a fresh round; the round check on
        // arrival discards the original if it was merely delayed, and the
        // events that already arrived are kept. Found by
        // tests/chaos_fuzz_test.cc (seed 29): a response dropped during a
        // rejoin correction stalled deco-sync until the virtual-time limit.
        DECO_LOG(WARNING) << "deco root: local node " << topology_.locals[n]
                          << " correction response overdue; re-soliciting";
        DECO_RETURN_NOT_OK(
            SendCorrectionRequest(n, asks_[n].from_index, asks_[n].count));
      }
    }
  }
  if (stalled || repair_overdue || (removed_any && !assembler_->emptied())) {
    // Rebuild the current window from the surviving nodes (paper §4.3.4:
    // "the root node then starts the correction step"); a repair in
    // progress escalates. An emptied window just goes on without them.
    DECO_RETURN_NOT_OK(StartCorrection());
  }
  return Status::OK();
}

}  // namespace deco
