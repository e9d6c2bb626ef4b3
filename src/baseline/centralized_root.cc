#include "baseline/centralized_root.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/provenance.h"

namespace deco {

CentralizedRoot::CentralizedRoot(NetworkFabric* fabric, NodeId id,
                                 Clock* clock, RunContext* run,
                                 const Topology& topology,
                                 const QueryConfig& query,
                                 CentralizedMode mode, RunReport* report)
    : Actor(fabric, id, clock, run),
      topology_(topology),
      query_(query),
      mode_(mode),
      report_(report),
      merger_(topology.num_locals()),
      encoded_(topology.num_locals()),
      node_counts_(topology.num_locals(), 0) {}

Status CentralizedRoot::Run() {
  DECO_ASSIGN_OR_RETURN(func_,
                        MakeAggregate(query_.aggregate, query_.quantile_q));
  // The buffered sort-then-aggregate engine below emits once per `length`
  // events — tumbling semantics. Sliding windows overlap, so Central must
  // run the real window operator too (found by tests/differential_test.cc:
  // Central used to silently treat sliding specs as tumbling).
  if (mode_ != CentralizedMode::kCentral ||
      query_.window.type == WindowType::kSliding) {
    DECO_ASSIGN_OR_RETURN(windower_, MakeWindower(query_.window, func_.get()));
  }
  report_->consumption = ConsumptionLog(topology_.num_locals());

  // Scotty pipelines decode on a helper thread for wall-clock throughput.
  // Under the deterministic scheduler that inner thread would be an
  // unmanaged source of interleaving, and virtual time makes pipelining
  // free anyway — so sim mode runs the semantically identical sequential
  // loop below instead.
  if (mode_ == CentralizedMode::kScotty && fabric_->sim() == nullptr) {
    return RunPipelined();
  }

  while (!stop_requested()) {
    std::optional<Message> msg = Receive();
    if (!msg.has_value()) break;  // mailbox closed
    if (msg->type == MessageType::kShutdown) break;
    if (msg->type != MessageType::kEventBatch) {
      DECO_LOG(WARNING) << "centralized root ignoring "
                        << MessageTypeToString(msg->type);
      continue;
    }
    DECO_RETURN_NOT_OK(HandleBatch(std::move(*msg)));
    DECO_RETURN_NOT_OK(DrainMerger());
    if (eos_count_ == topology_.num_locals() && merger_.Drained()) break;
  }
  return Status::OK();
}

Status CentralizedRoot::RunPipelined() {
  // Decoded batch handed from the decode thread to the processing loop.
  struct Decoded {
    size_t ordinal = 0;
    EventVec events;
    bool eos = false;
    double create_nanos = 0.0;
    uint64_t msg_id = 0;  // causal id, carried across the decode thread
  };
  BlockingQueue<Decoded> decoded;

  std::thread decoder([&] {
    while (!stop_requested()) {
      std::optional<Message> msg = Receive();
      if (!msg.has_value() || msg->type == MessageType::kShutdown) break;
      if (msg->type != MessageType::kEventBatch) continue;
      BinaryReader reader(msg->payload);
      auto batch = DecodeEventBatch(&reader);
      if (!batch.ok()) continue;  // corrupted frame: drop
      auto ordinal = topology_.OrdinalOf(msg->src);
      if (!ordinal.ok()) continue;
      Decoded d;
      d.ordinal = *ordinal;
      d.events = std::move(batch->events);
      d.eos = batch->end_of_stream;
      d.create_nanos = msg->lat_mean_create_nanos;
      d.msg_id = MessageCausalId(*msg);
      if (!decoded.Push(std::move(d))) break;
    }
    decoded.Close();
  });

  Status status = Status::OK();
  while (!stop_requested()) {
    std::optional<Decoded> d = decoded.Pop();
    if (!d.has_value()) break;
    causal_msg_id_ = d->msg_id;
    merger_.Append(d->ordinal, std::move(d->events), d->create_nanos);
    if (d->eos) {
      ++eos_count_;
      merger_.MarkEos(d->ordinal);
    }
    status = DrainMerger();
    if (!status.ok()) break;
    if (eos_count_ == topology_.num_locals() && merger_.Drained()) break;
  }
  decoded.Close();
  Mailbox* mailbox = fabric_->mailbox(id_);
  if (mailbox != nullptr) mailbox->Close();  // wake the decoder
  decoder.join();
  return status;
}

Status CentralizedRoot::HandleBatch(Message msg) {
  causal_msg_id_ = MessageCausalId(msg);
  DECO_ASSIGN_OR_RETURN(size_t ordinal, topology_.OrdinalOf(msg.src));
  encoded_[ordinal].push_back(std::move(msg));
  return DecodeNext(ordinal);
}

Status CentralizedRoot::DecodeNext(size_t node) {
  std::deque<Message>& queue = encoded_[node];
  while (merger_.Empty(node) && !queue.empty()) {
    const Message& msg = queue.front();
    EventBatchPayload batch;
    if (mode_ == CentralizedMode::kDisco) {
      DECO_ASSIGN_OR_RETURN(batch, DecodeEventBatchText(msg.payload));
    } else {
      BinaryReader reader(msg.payload);
      DECO_ASSIGN_OR_RETURN(batch, DecodeEventBatch(&reader));
    }
    merger_.Append(node, std::move(batch.events), msg.lat_mean_create_nanos);
    if (batch.end_of_stream) {
      ++eos_count_;
      merger_.MarkEos(node);
    }
    queue.pop_front();
  }
  return Status::OK();
}

Status CentralizedRoot::DrainMerger() {
  Event event;
  double create_nanos = 0.0;
  size_t from_node = 0;
  while (merger_.PopNext(&event, &create_nanos, &from_node)) {
    DECO_RETURN_NOT_OK(DecodeNext(from_node));
    if (windower_ == nullptr) {
      DECO_RETURN_NOT_OK(
          ProcessEventBuffered(event, create_nanos, from_node));
    } else {
      DECO_RETURN_NOT_OK(
          ProcessEventIncremental(event, create_nanos, from_node));
    }
  }
  return Status::OK();
}

Status CentralizedRoot::ProcessEventBuffered(const Event& event,
                                             double create_nanos,
                                             size_t from_node) {
  window_buffer_.push_back(event);
  create_sum_ += create_nanos;
  ++open_events_;
  ++node_counts_[from_node];
  if (window_buffer_.size() < query_.window.length) return Status::OK();

  // Window ends: the straightforward engine sorts the collected events
  // (window operator model, paper §3) and aggregates them all at once.
  std::stable_sort(window_buffer_.begin(), window_buffer_.end(),
                   EventTimestampLess());
  Partial partial = func_->CreatePartial();
  for (const Event& e : window_buffer_) func_->Accumulate(&partial, e.value);
  const double value = func_->Finalize(partial);
  EmitWindow(value, window_buffer_.size(),
             create_sum_ / static_cast<double>(open_events_),
             window_buffer_.back().timestamp);
  window_buffer_.clear();
  return Status::OK();
}

Status CentralizedRoot::ProcessEventIncremental(const Event& event,
                                                double create_nanos,
                                                size_t from_node) {
  create_sum_ += create_nanos;
  ++open_events_;
  ++node_counts_[from_node];
  closed_.clear();
  DECO_RETURN_NOT_OK(windower_->Add(event, &closed_));
  for (const WindowResult& result : closed_) {
    EmitWindow(result.value, result.event_count,
               create_sum_ / static_cast<double>(open_events_),
               result.end_time);
  }
  return Status::OK();
}

void CentralizedRoot::EmitWindow(double value, uint64_t event_count,
                                 double mean_create, EventTime end_ts) {
  GlobalWindowRecord record;
  record.window_index = report_->windows_emitted;
  record.value = value;
  record.event_count = event_count;
  record.end_ts = end_ts;
  record.mean_latency_nanos =
      static_cast<double>(NowNanos()) - mean_create;
  report_->windows.push_back(record);
  report_->latency.Record(static_cast<int64_t>(record.mean_latency_nanos));
  report_->consumption.AddWindow(node_counts_);
  if (provenance_ != nullptr) {
    std::vector<bool> live(node_counts_.size());
    for (size_t n = 0; n < node_counts_.size(); ++n) {
      live[n] = node_counts_[n] > 0;
    }
    provenance_->OnSynthesizedWindow(record.window_index, live, mean_create,
                                     NowNanos());
  }
  std::fill(node_counts_.begin(), node_counts_.end(), 0);
  report_->events_processed += event_count;
  ++report_->windows_emitted;
  create_sum_ = 0.0;
  open_events_ = 0;
  metrics()->counter("root.windows_emitted")->Increment();
  metrics()->counter("root.events_emitted")->Add(
      static_cast<int64_t>(event_count));
  DECO_TRACE_SPAN_MSG(*run_, id_, TracePhase::kEmit, record.window_index,
                      static_cast<int64_t>(event_count), causal_msg_id_);
}

}  // namespace deco
