#include "baseline/approx.h"

#include <algorithm>

#include "common/logging.h"
#include "node/apportion.h"
#include "obs/provenance.h"

namespace deco {

ApproxLocalNode::ApproxLocalNode(NetworkFabric* fabric, NodeId id,
                                 Clock* clock, RunContext* run,
                                 const Topology& topology,
                                 const IngestConfig& ingest,
                                 const QueryConfig& query)
    : Actor(fabric, id, clock, run),
      topology_(topology),
      ingest_config_(ingest),
      query_(query) {}

Status ApproxLocalNode::Run() {
  IngestSource source(ingest_config_, clock_);

  // Report the observed rate once; Approx never updates it (that is the
  // point of the baseline).
  {
    RateReport report;
    report.window_index = 0;
    report.event_rate = source.TotalRate();
    report.stream_position = 0;
    report.incarnation = fabric_->node_incarnation(id_);
    BinaryWriter writer;
    EncodeRateReport(report, &writer);
    Message msg;
    msg.type = MessageType::kEventRate;
    msg.dst = topology_.root;
    msg.payload = writer.Release();
    DECO_RETURN_NOT_OK(Send(std::move(msg)));
  }

  // Wait for the static local window size.
  uint64_t local_window = 0;
  while (!stop_requested()) {
    std::optional<Message> msg = Receive();
    if (!msg.has_value()) return Status::OK();  // shut down while waiting
    if (msg->type == MessageType::kWindowAssignment) {
      BinaryReader reader(msg->payload);
      DECO_ASSIGN_OR_RETURN(WindowAssignment assignment,
                            DecodeWindowAssignment(&reader));
      local_window = assignment.local_window_size;
      break;
    }
  }
  DECO_ASSIGN_OR_RETURN(auto func,
                        MakeAggregate(query_.aggregate, query_.quantile_q));

  uint64_t window_index = 0;
  EventVec batch;
  while (!stop_requested() && !source.exhausted()) {
    // One fixed-size local window: aggregate `local_window` events.
    DECO_TRACE_SPAN(*run_, id_, TracePhase::kWindowOpen, window_index,
                    static_cast<int64_t>(local_window));
    Partial partial = func->CreatePartial();
    SliceSummary summary;
    double create_mean = 0.0;
    uint64_t covered = 0;
    uint64_t remaining = local_window;
    bool first = true;
    while (remaining > 0) {
      batch.clear();
      TimeNanos create_time = 0;
      const size_t pulled = source.Pull(
          std::min<uint64_t>(remaining, ingest_config_.batch_size), &batch,
          &create_time);
      if (pulled == 0) break;  // budget exhausted mid-window
      metrics()->counter("local.events_ingested")->Add(
          static_cast<int64_t>(pulled));
      for (const Event& e : batch) func->Accumulate(&partial, e.value);
      if (first) {
        summary.min_ts = batch.front().timestamp;
        first = false;
      }
      summary.max_ts = batch.back().timestamp;
      summary.max_stream_id = batch.back().stream_id;
      summary.max_event_id = batch.back().id;
      // Weighted mean creation time across batches.
      const uint64_t total = covered + pulled;
      create_mean = (create_mean * static_cast<double>(covered) +
                     static_cast<double>(create_time) *
                         static_cast<double>(pulled)) /
                    static_cast<double>(total);
      covered = total;
      remaining -= pulled;
    }
    if (remaining > 0) break;  // incomplete local window: drop it

    summary.partial = std::move(partial);
    summary.event_count = covered;
    summary.event_rate = source.TotalRate();
    BinaryWriter writer;
    EncodeSliceSummary(summary, &writer);
    Message msg;
    msg.type = MessageType::kPartialResult;
    msg.dst = topology_.root;
    msg.window_index = window_index++;
    msg.payload = writer.Release();
    msg.MergeLatencyMeta(create_mean, covered);
    DECO_RETURN_NOT_OK(SendRetryingCrash(std::move(msg)));
  }

  Message eos;
  eos.type = MessageType::kShutdown;
  eos.dst = topology_.root;
  return SendRetryingCrash(std::move(eos));
}

ApproxRoot::ApproxRoot(NetworkFabric* fabric, NodeId id, Clock* clock,
                       RunContext* run, const Topology& topology,
                       const QueryConfig& query, RunReport* report)
    : Actor(fabric, id, clock, run),
      topology_(topology),
      query_(query),
      report_(report) {}

Status ApproxRoot::Run() {
  DECO_ASSIGN_OR_RETURN(func_,
                        MakeAggregate(query_.aggregate, query_.quantile_q));
  report_->consumption = ConsumptionLog(topology_.num_locals());

  // Initialization: collect one rate report per local node.
  std::vector<double> rates(topology_.num_locals(), 0.0);
  size_t reported = 0;
  while (reported < topology_.num_locals() && !stop_requested()) {
    std::optional<Message> msg = Receive();
    if (!msg.has_value()) return Status::OK();
    if (msg->type != MessageType::kEventRate) continue;
    BinaryReader reader(msg->payload);
    DECO_ASSIGN_OR_RETURN(RateReport report, DecodeRateReport(&reader));
    DECO_ASSIGN_OR_RETURN(size_t ordinal, topology_.OrdinalOf(msg->src));
    rates[ordinal] = report.event_rate;
    if (provenance_ != nullptr) {
      provenance_->OnIncarnation(ordinal, report.incarnation);
    }
    ++reported;
  }
  DECO_RETURN_NOT_OK(BroadcastAssignments(rates));

  while (!stop_requested()) {
    std::optional<Message> msg = Receive();
    if (!msg.has_value()) break;
    if (provenance_ != nullptr) provenance_->set_now_nanos(NowNanos());
    if (msg->type == MessageType::kShutdown) {
      if (provenance_ != nullptr) {
        auto ordinal = topology_.OrdinalOf(msg->src);
        if (ordinal.ok()) provenance_->OnEos(*ordinal);
      }
      if (++eos_count_ == topology_.num_locals()) break;
      continue;
    }
    if (msg->type != MessageType::kPartialResult) continue;
    causal_msg_id_ = MessageCausalId(*msg);
    DECO_RETURN_NOT_OK(HandlePartial(*msg));
    TryEmitWindows();
  }
  return Status::OK();
}

Status ApproxRoot::BroadcastAssignments(const std::vector<double>& rates) {
  DECO_ASSIGN_OR_RETURN(shares_,
                        ApportionWindow(query_.window.length, rates));
  for (size_t i = 0; i < topology_.num_locals(); ++i) {
    WindowAssignment assignment;
    assignment.window_index = 0;
    assignment.local_window_size = shares_[i];
    BinaryWriter writer;
    EncodeWindowAssignment(assignment, &writer);
    Message msg;
    msg.type = MessageType::kWindowAssignment;
    msg.dst = topology_.locals[i];
    msg.payload = writer.Release();
    DECO_RETURN_NOT_OK(Send(std::move(msg)));
  }
  return Status::OK();
}

Status ApproxRoot::HandlePartial(const Message& msg) {
  BinaryReader reader(msg.payload);
  DECO_ASSIGN_OR_RETURN(SliceSummary summary, DecodeSliceSummary(&reader));
  DECO_ASSIGN_OR_RETURN(size_t ordinal, topology_.OrdinalOf(msg.src));
  PendingWindow& pending = pending_[msg.window_index];
  if (pending.parts.empty()) {
    pending.parts.resize(topology_.num_locals());
  }
  if (pending.parts[ordinal].has_value()) {
    if (provenance_ != nullptr) {
      provenance_->OnDuplicate(msg.window_index, ordinal,
                               ProvRegion::kSlice);
    }
    return Status::Internal("duplicate partial for window " +
                            std::to_string(msg.window_index));
  }
  pending.parts[ordinal] = std::move(summary);
  ++pending.received;
  if (provenance_ != nullptr) {
    provenance_->OnRegion(msg.window_index, ordinal, ProvRegion::kSlice,
                          msg.lat_mean_create_nanos);
  }
  // Fold the partial's latency side-channel into the window's weighted
  // mean creation time.
  if (msg.lat_event_count > 0) {
    const uint64_t total = pending.create_count + msg.lat_event_count;
    pending.create_mean =
        (pending.create_mean * static_cast<double>(pending.create_count) +
         msg.lat_mean_create_nanos *
             static_cast<double>(msg.lat_event_count)) /
        static_cast<double>(total);
    pending.create_count = total;
  }
  return Status::OK();
}

void ApproxRoot::TryEmitWindows() {
  while (true) {
    auto it = pending_.find(next_window_);
    if (it == pending_.end() ||
        it->second.received < topology_.num_locals()) {
      return;
    }
    Partial merged = func_->CreatePartial();
    uint64_t events = 0;
    EventTime end_ts = 0;
    std::vector<uint64_t> counts(topology_.num_locals(), 0);
    for (size_t i = 0; i < it->second.parts.size(); ++i) {
      const SliceSummary& part = *it->second.parts[i];
      DECO_CHECK_OK(func_->Merge(&merged, part.partial));
      events += part.event_count;
      counts[i] = part.event_count;
      end_ts = std::max(end_ts, part.max_ts);
    }
    GlobalWindowRecord record;
    record.window_index = next_window_;
    record.end_ts = end_ts;
    record.value = func_->Finalize(merged);
    record.event_count = events;
    record.mean_latency_nanos =
        static_cast<double>(NowNanos()) - it->second.create_mean;
    report_->windows.push_back(record);
    report_->latency.Record(
        static_cast<int64_t>(record.mean_latency_nanos));
    report_->consumption.AddWindow(counts);
    report_->events_processed += events;
    ++report_->windows_emitted;
    metrics()->counter("root.windows_emitted")->Increment();
    metrics()->counter("root.events_emitted")->Add(
        static_cast<int64_t>(events));
    DECO_TRACE_SPAN_MSG(*run_, id_, TracePhase::kEmit, record.window_index,
                        static_cast<int64_t>(events), causal_msg_id_);
    if (provenance_ != nullptr) {
      provenance_->OnWindowEmitted(next_window_, record.window_index,
                                   /*corrected=*/false, NowNanos());
    }
    pending_.erase(it);
    ++next_window_;
  }
}

}  // namespace deco
