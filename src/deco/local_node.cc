#include "deco/local_node.h"

#include <algorithm>

#include "common/logging.h"
#include "node/apportion.h"

namespace deco {

namespace {

/// Deco_monlocal has no root predictor, so each local widens its raw edge
/// to `max(1, share / kPeerDeltaDivisor)`.
constexpr uint64_t kPeerDeltaDivisor = 8;

}  // namespace

DecoLocalNode::DecoLocalNode(NetworkFabric* fabric, NodeId id, Clock* clock,
                             RunContext* run, const Topology& topology,
                             const IngestConfig& ingest,
                             const QueryRegistry* registry,
                             DecoScheme scheme, DecoLocalOptions options,
                             bool account_tenants)
    : Actor(fabric, id, clock, run),
      topology_(topology),
      ingest_config_(ingest),
      registry_(registry),
      scheme_(scheme),
      options_(options),
      account_tenants_(account_tenants) {}

Status DecoLocalNode::SendOrCrash(Message msg) {
  const bool to_root = msg.dst == topology_.root;
  Status status = Send(std::move(msg));
  if (status.ok() && to_root) last_root_send_nanos_ = NowNanos();
  if (status.IsNodeFailed()) {
    // The chaos controller took this node down. A dead host doesn't see
    // its own failed sends; enter crash limbo instead of erroring out.
    crashed_ = true;
    return Status::OK();
  }
  if (status.IsCancelled()) {
    // The fabric shut down: the run ended while this send was on its way
    // (a local revived on the instant the others finished). Nobody is
    // left to hear it, so this is the end of the run, not an error.
    done_ = true;
    return Status::OK();
  }
  return status;
}

Status DecoLocalNode::HandleCrash() {
  DECO_LOG(DEBUG) << "local " << id_ << ": down, entering crash limbo";
  // A dead process consumes nothing: the mailbox fills (and is purged by
  // the fabric on revival); we only poll for the revival itself.
  while (fabric_->IsNodeDown(id_)) {
    if (stop_requested() || fabric_->mailbox(id_)->closed()) {
      done_ = true;
      return Status::OK();
    }
    SleepNanos(200 * kNanosPerMicro);
  }

  // Revived. Volatile protocol state is gone; the durable upstream queue
  // (`retained_`, the paper's §4.3.1 "queue like Kafka") and the ingest
  // position survive the reboot.
  cursor_ = 0;
  have_assignment_ = false;
  rolled_back_ = false;
  pending_size_adjust_ = 0;
  need_slack_window_ = true;
  eos_sent_ = false;
  peer_rates_.clear();
  peer_rates_received_.clear();
  crashed_ = false;
  awaiting_rejoin_ = true;

  // Announce the restart; the root re-admits us and starts a correction,
  // whose epoch bump is the signal that re-synchronizes planning.
  RateReport report;
  report.window_index = last_assignment_window_;
  report.event_rate = source_->TotalRate();
  report.stream_position = source_->position();
  report.incarnation = fabric_->node_incarnation(id_);
  BinaryWriter writer;
  EncodeRateReport(report, &writer);
  Message msg;
  msg.type = MessageType::kRejoin;
  msg.dst = topology_.root;
  msg.epoch = epoch_;
  msg.payload = writer.Release();
  DECO_LOG(DEBUG) << "local " << id_ << ": revived, announcing rejoin";
  return SendOrCrash(std::move(msg));
}

bool DecoLocalNode::PullIntoRetained(size_t limit) {
  if (source_->exhausted()) return false;
  const size_t n = std::min(limit, ingest_config_.batch_size);
  if (retained_front_ > 0 && retained_.size() + n > retained_.capacity()) {
    CompactRetained();  // reuse the dropped prefix rather than grow
  }
  TimeNanos create_time = 0;
  const size_t pulled = source_->Pull(n, &retained_, &create_time);
  if (pulled == 0) return false;
  metrics()->counter("local.events_ingested")->Add(
      static_cast<int64_t>(pulled));
  create_runs_.push_back({retained_.size(), static_cast<double>(create_time)});
  return true;
}

Status DecoLocalNode::HeartbeatIfQuiet() {
  if (options_.heartbeat_nanos <= 0 || crashed_ || done_ ||
      NowNanos() - last_root_send_nanos_ < options_.heartbeat_nanos) {
    return Status::OK();
  }
  // A slow source can take longer to fill a region than the root's
  // failure timeout; without this the root would remove a local that is
  // only busy producing the input it awaits.
  return SendRateReport(last_assignment_window_);
}

Result<size_t> DecoLocalNode::TakeRegion(size_t want) {
  while (retained_size() - cursor_ < want) {
    if (!PullIntoRetained(want - (retained_size() - cursor_))) break;
    DECO_RETURN_NOT_OK(HeartbeatIfQuiet());
  }
  const size_t served = std::min(want, retained_size() - cursor_);
  cursor_ += served;
  return served;
}

size_t DecoLocalNode::DropRetained(const EventKey& wm, size_t limit) {
  // The retained buffer is this node's merged stream, sorted by key.
  const Event* events = retained_events();
  const Event* kept = std::partition_point(
      events, events + std::min(limit, retained_size()),
      [&wm](const Event& e) { return EventKey::Of(e) <= wm; });
  const size_t dropped = static_cast<size_t>(kept - events);
  retained_front_ += dropped;
  if (dropped > 0 && retained_front_ >= retained_size()) CompactRetained();
  return dropped;
}

std::vector<DecoLocalNode::CreateRun>::const_iterator
DecoLocalNode::CreateRunAt(size_t i) const {
  return std::upper_bound(
      create_runs_.begin(), create_runs_.end(), i,
      [](size_t index, const CreateRun& run) { return index < run.end; });
}

void DecoLocalNode::CompactRetained() {
  retained_.erase(retained_.begin(), retained_.begin() + retained_front_);
  create_runs_.erase(create_runs_.begin(), CreateRunAt(retained_front_));
  for (CreateRun& run : create_runs_) run.end -= retained_front_;
  retained_front_ = 0;
}

double DecoLocalNode::CreateMean(size_t begin, size_t n) const {
  size_t i = retained_front_ + begin;
  const size_t end = i + n;
  double sum = 0.0;
  for (auto run = CreateRunAt(i); i < end; ++run) {
    for (const size_t stop = std::min(end, run->end); i < stop; ++i) {
      sum += run->stamp;
    }
  }
  return sum / static_cast<double>(n);
}

Status DecoLocalNode::SendEdge(uint64_t w, BatchRole role, size_t begin,
                               size_t n) {
  Message msg;
  if (n > 0) msg.MergeLatencyMeta(CreateMean(begin, n), n);
  BinaryWriter writer;
  EncodeEventBatch(/*from_offset=*/0, /*end_of_stream=*/false, role,
                   {retained_events() + begin, n}, &writer);
  msg.type = MessageType::kEventBatch;
  msg.dst = topology_.root;
  msg.window_index = w;
  msg.epoch = epoch_;
  msg.payload = writer.Release();
  return SendOrCrash(std::move(msg));
}

Status DecoLocalNode::BroadcastPeerRate(uint64_t w, bool end_of_stream) {
  RateReport report;
  report.window_index = w;
  report.event_rate = end_of_stream ? 0.0 : source_->TotalRate();
  report.stream_position = source_->position();
  report.end_of_stream = end_of_stream;
  report.incarnation = fabric_->node_incarnation(id_);
  BinaryWriter writer;
  EncodeRateReport(report, &writer);
  const std::string payload = writer.buffer();
  // Record our own rate so the local apportionment covers all nodes.
  auto& row = peer_rates_[w];
  if (row.empty()) row.assign(topology_.num_locals(), 0.0);
  row[self_ordinal_] = report.event_rate;
  auto& got = peer_rates_received_[w];
  if (got.empty()) got.assign(topology_.num_locals(), false);
  got[self_ordinal_] = true;
  for (size_t n = 0; n < topology_.num_locals(); ++n) {
    if (n == self_ordinal_) continue;
    Message msg;
    msg.type = MessageType::kRateExchange;
    msg.dst = topology_.locals[n];
    msg.window_index = w;
    msg.epoch = epoch_;
    msg.payload = payload;
    DECO_RETURN_NOT_OK(SendOrCrash(std::move(msg)));
  }
  return Status::OK();
}

bool DecoLocalNode::PeerRatesComplete(uint64_t w) const {
  auto it = peer_rates_received_.find(w);
  for (size_t n = 0; n < topology_.num_locals(); ++n) {
    const bool reported =
        it != peer_rates_received_.end() && it->second[n];
    if (!reported && !peer_eos_[n]) return false;
  }
  return true;
}

Status DecoLocalNode::SendRateReport(uint64_t w) {
  RateReport report;
  report.window_index = w;
  report.event_rate = source_->TotalRate();
  report.stream_position = source_->position();
  report.incarnation = fabric_->node_incarnation(id_);
  BinaryWriter writer;
  EncodeRateReport(report, &writer);
  Message msg;
  msg.type = MessageType::kEventRate;
  msg.dst = topology_.root;
  msg.window_index = w;
  msg.epoch = epoch_;
  msg.payload = writer.Release();
  return SendOrCrash(std::move(msg));
}

Status DecoLocalNode::ProduceWindow(uint64_t w, const SlicePlan& plan) {
  DECO_TRACE_SPAN_MSG(*run_, id_, TracePhase::kWindowOpen, w,
                      static_cast<int64_t>(plan.front_buffer + plan.slice +
                                           plan.end_buffer),
                      assignment_msg_id_);
  metrics()->counter("local.windows_produced")->Increment();
  // Each region is an index range of the retained buffer: a later region's
  // pull may reallocate it, so no pointer is held across `TakeRegion`.
  // Front buffer (async layout only; empty plans ship nothing).
  if (plan.front_buffer > 0) {
    const size_t begin = cursor_;
    DECO_ASSIGN_OR_RETURN(const size_t n, TakeRegion(plan.front_buffer));
    DECO_RETURN_NOT_OK(SendEdge(w, BatchRole::kFront, begin, n));
  }

  // Slice: incremental local aggregation (the decentralized work), in
  // place over the retained buffer. The shared slice store computes every
  // active aggregate slot in the same pass; slot 0 rides in the summary's
  // `partial`, the others travel as tagged extras.
  {
    const size_t begin = cursor_;
    DECO_ASSIGN_OR_RETURN(const size_t n, TakeRegion(plan.slice));
    const Event* events = retained_events() + begin;
    slice_store_.BeginPane(w);
    slice_store_.Accumulate(events, n);
    SliceSummary summary;
    summary.partial = slice_store_.primary();
    summary.extras = slice_store_.TakeExtras();
    summary.event_count = n;
    Message msg;
    if (n > 0) {
      msg.MergeLatencyMeta(CreateMean(begin, n), n);
      summary.min_ts = events[0].timestamp;
      const Event& last = events[n - 1];
      summary.max_ts = last.timestamp;
      summary.max_stream_id = last.stream_id;
      summary.max_event_id = last.id;
    }
    summary.event_rate = source_->TotalRate();
    BinaryWriter writer;
    EncodeSliceSummary(summary, &writer);
    if (account_tenants_) {
      size_t extras_bytes = 0;
      for (const SlotPartial& extra : summary.extras) {
        extras_bytes += SlotPartialWireSize(extra);
      }
      accounting_.OnSlice(w, writer.buffer().size() - extras_bytes, n,
                          summary.extras);
    }
    msg.type = MessageType::kPartialResult;
    msg.dst = topology_.root;
    msg.window_index = w;
    msg.epoch = epoch_;
    msg.payload = writer.Release();
    DECO_RETURN_NOT_OK(SendOrCrash(std::move(msg)));
  }

  // End buffer: raw edge region for exact cut resolution at the root.
  {
    const size_t begin = cursor_;
    DECO_ASSIGN_OR_RETURN(const size_t n, TakeRegion(plan.end_buffer));
    DECO_RETURN_NOT_OK(SendEdge(w, BatchRole::kEnd, begin, n));
  }

  // End-of-stream marker once the budget is exhausted and fully shipped.
  if (source_->exhausted() && cursor_ == retained_size() && !eos_sent_) {
    eos_sent_ = true;
    Message msg;
    msg.type = MessageType::kShutdown;
    msg.dst = topology_.root;
    msg.epoch = epoch_;
    DECO_RETURN_NOT_OK(SendOrCrash(std::move(msg)));
  }
  return Status::OK();
}

Status DecoLocalNode::HandleControl(const Message& msg) {
  switch (msg.type) {
    case MessageType::kWindowAssignment: {
      BinaryReader reader(msg.payload);
      DECO_ASSIGN_OR_RETURN(WindowAssignment assignment,
                            DecodeWindowAssignment(&reader));
      const EventKey wm{assignment.wm_ts, assignment.wm_stream,
                        assignment.wm_id};
      if (awaiting_rejoin_ && msg.epoch <= epoch_) {
        // Pre-crash straggler: this assignment was computed before the
        // root learned of our restart. Our cursor was reset, so acting on
        // it would re-produce events the root already holds. The rejoin
        // always triggers a correction, whose epoch bump ends the wait.
        DECO_LOG(DEBUG) << "local " << id_
                        << ": ignoring same-epoch assignment while "
                           "awaiting rejoin";
        return Status::OK();
      }
      if (msg.epoch > epoch_) {
        awaiting_rejoin_ = false;
        // Correction rollback (paper §4.3.2): the corrected window was
        // assembled from the *complete* candidate streams, so every
        // retained event at or below its watermark was consumed exactly
        // once and must be dropped; everything after it is re-planned
        // from scratch.
        DropRetained(wm, retained_size());
        epoch_ = msg.epoch;
        cursor_ = 0;
        rolled_back_ = true;
        need_slack_window_ = true;
        eos_sent_ = false;  // re-announce once everything is re-produced
        // The slack window re-establishes the carryover at the recentering
        // target by itself; stale adjustments would overshoot it.
        pending_size_adjust_ = 0;
        resume_window_ = assignment.window_index;
      } else {
        // Normal verification watermark: drop covered events. Only events
        // already produced into regions (index < cursor_) may be dropped —
        // an event at or below the watermark that was never shipped would
        // be lost for future correction resends. For a verified window the
        // cut-bounding checks guarantee no such event exists, so the guard
        // is a defensive invariant.
        const size_t dropped = DropRetained(wm, cursor_);
        if (retained_size() > 0 && dropped == cursor_ &&
            EventKey::Of(retained_events()[0]) <= wm) {
          DECO_LOG(DEBUG) << "local " << id_
                          << ": watermark reaches beyond produced events";
        }
        cursor_ -= dropped;
      }
      assigned_size_ = assignment.local_window_size;
      assigned_delta_ = assignment.delta;
      // Accumulate rather than overwrite: several assignments may arrive
      // between two produced windows (the async pipeline runs ahead), and
      // each carries an incremental recentering step.
      pending_size_adjust_ += assignment.size_adjust;
      last_assignment_window_ = assignment.window_index;
      have_assignment_ = true;
      assignment_msg_id_ = MessageCausalId(msg);
      return Status::OK();
    }
    case MessageType::kCorrectionRequest:
      return HandleCorrectionRequest(msg);
    case MessageType::kQueryConfig: {
      // Not epoch-gated: the schedule is keyed by absolute pane indices,
      // which survive correction rollbacks, and each snapshot replaces the
      // whole schedule, so a replayed one cannot corrupt it.
      BinaryReader reader(msg.payload);
      DECO_ASSIGN_OR_RETURN(ServeSnapshot snapshot,
                            DecodeServeSnapshot(&reader));
      slice_store_.ApplySnapshot(snapshot);
      return Status::OK();
    }
    case MessageType::kRateExchange: {
      BinaryReader reader(msg.payload);
      DECO_ASSIGN_OR_RETURN(RateReport report, DecodeRateReport(&reader));
      DECO_ASSIGN_OR_RETURN(size_t ordinal, topology_.OrdinalOf(msg.src));
      auto& row = peer_rates_[report.window_index];
      if (row.empty()) row.assign(topology_.num_locals(), 0.0);
      row[ordinal] = report.event_rate;
      auto& got = peer_rates_received_[report.window_index];
      if (got.empty()) got.assign(topology_.num_locals(), false);
      got[ordinal] = true;
      if (report.end_of_stream) peer_eos_[ordinal] = true;
      return Status::OK();
    }
    case MessageType::kShutdown:
      done_ = true;
      return Status::OK();
    default:
      DECO_LOG(WARNING) << "local node " << id_ << " ignoring "
                        << MessageTypeToString(msg.type);
      return Status::OK();
  }
}

Status DecoLocalNode::HandleCorrectionRequest(const Message& msg) {
  BinaryReader reader(msg.payload);
  DECO_ASSIGN_OR_RETURN(CorrectionRequest request,
                        DecodeCorrectionRequest(&reader));
  // Drop retained events the root's watermark already covers. For a
  // healthy local this is a no-op (the assignment watermark dropped them
  // first); for a rejoining local it is essential — the root emitted
  // windows from our pre-crash contributions, so resending events at or
  // below the watermark would double-count them.
  const EventKey wm{request.wm_ts, request.wm_stream, request.wm_id};
  const size_t wm_dropped = DropRetained(wm, retained_size());
  if (wm_dropped > 0) {
    cursor_ = cursor_ > wm_dropped ? cursor_ - wm_dropped : 0;
    DECO_LOG(DEBUG) << "local " << id_ << ": correction watermark dropped "
                    << wm_dropped << " retained events";
  }
  // Ship the solicited prefix `[from_index, from_index + count)` of the
  // retained stream, pulling only its shortfall: a correction costs about
  // one window, not every unverified window the node still retains.
  const size_t end = request.from_index +
                     std::min(request.count, SIZE_MAX - request.from_index);
  while (retained_size() < end) {
    if (!PullIntoRetained(end - retained_size())) break;
    DECO_RETURN_NOT_OK(HeartbeatIfQuiet());
  }
  const size_t begin = std::min<size_t>(request.from_index, retained_size());
  const size_t n = std::min<size_t>(end, retained_size()) - begin;
  DECO_LOG(DEBUG) << "local " << id_ << ": correction w"
                  << request.window_index << " ships [" << begin << ", "
                  << begin + n << ") of retained=" << retained_size()
                  << " pos=" << source_->position();
  CorrectionResponse response;
  response.window_index = request.window_index;
  response.round = request.round;
  response.from_offset = source_->position() - retained_size() + begin;
  response.events.assign(retained_events() + begin,
                         retained_events() + begin + n);
  response.end_of_stream =
      source_->exhausted() && begin + n == retained_size();
  Message out;
  if (n > 0) out.MergeLatencyMeta(CreateMean(begin, n), n);
  DECO_TRACE_SPAN_MSG(*run_, id_, TracePhase::kCorrect, request.window_index,
                      static_cast<int64_t>(response.events.size()),
                      MessageCausalId(msg));
  metrics()->counter("local.correction_replies")->Increment();
  BinaryWriter writer;
  EncodeCorrectionResponse(response, &writer);
  out.type = MessageType::kCorrectionResult;
  out.dst = topology_.root;
  out.window_index = request.window_index;
  // Echo the request's epoch: the same window index can be corrected more
  // than once, and the root must be able to discard responses that belong
  // to a superseded correction round.
  out.epoch = msg.epoch;
  out.payload = writer.Release();
  return SendOrCrash(std::move(out));
}

template <typename Pred>
Status DecoLocalNode::BlockUntil(Pred predicate) {
  TimeNanos last_heard = NowNanos();
  while (!predicate() && !done_ && !stop_requested() && !crashed_) {
    // Poll rather than block indefinitely: a chaos crash is only visible
    // through the fabric flag (messages to a down node never arrive), so a
    // blocked receive would sleep through its own death.
    std::optional<Message> msg =
        ReceiveWithTimeout(2 * kNanosPerMilli);
    if (!msg.has_value()) {
      if (fabric_->mailbox(id_)->closed()) {
        done_ = true;
        break;
      }
      if (fabric_->IsNodeDown(id_)) crashed_ = true;
      if (!crashed_ && options_.heartbeat_nanos > 0 &&
          NowNanos() - last_heard >= options_.heartbeat_nanos) {
        // Prolonged silence: either the root is mid-correction (harmless
        // to ping) or it removed this node on a false suspicion and will
        // only re-admit it when it hears from it.
        last_heard = NowNanos();
        DECO_RETURN_NOT_OK(SendRateReport(last_assignment_window_));
      }
      continue;
    }
    last_heard = NowNanos();
    DECO_RETURN_NOT_OK(HandleControl(*msg));
  }
  return Status::OK();
}

Status DecoLocalNode::Run() {
  source_ = std::make_unique<IngestSource>(ingest_config_, clock_);
  DECO_RETURN_NOT_OK(slice_store_.Init(registry_));
  if (account_tenants_) {
    DECO_RETURN_NOT_OK(accounting_.Init(registry_, metrics()));
  }
  pane_length_ = registry_->PaneLength();
  DECO_ASSIGN_OR_RETURN(self_ordinal_, topology_.OrdinalOf(id_));
  peer_eos_.assign(topology_.num_locals(), false);

  // Initialization: report the observed rate so the root can apportion the
  // first global window (all schemes; Deco_mon repeats this per window).
  DECO_RETURN_NOT_OK(SendRateReport(0));
  if (scheme_ == DecoScheme::kMonLocal) {
    DECO_RETURN_NOT_OK(BroadcastPeerRate(0));
  }

  uint64_t w = 0;
  // Wait for the first assignment.
  DECO_RETURN_NOT_OK(BlockUntil([&] { return have_assignment_; }));

  while (!done_ && !stop_requested()) {
    if (crashed_) {
      DECO_RETURN_NOT_OK(HandleCrash());
      if (done_ || stop_requested()) break;
      if (crashed_) continue;  // went down again mid-announcement
      // Hold until the root's epoch-advancing response (correction plus
      // rollback assignment) re-synchronizes planning; corrections are
      // answered from inside the wait.
      DECO_RETURN_NOT_OK(BlockUntil([&] { return rolled_back_; }));
      continue;
    }
    if (rolled_back_) {
      w = resume_window_;
      rolled_back_ = false;
    }

    // Drain pending control messages (async corrections / updates).
    while (true) {
      std::optional<Message> msg = TryReceive();
      if (!msg.has_value()) break;
      DECO_RETURN_NOT_OK(HandleControl(*msg));
    }
    if (done_ || stop_requested()) break;
    if (crashed_ || rolled_back_) continue;

    if (scheme_ == DecoScheme::kAsync) {
      // Memory bound: do not run more than `max_unverified_windows` ahead
      // of the root's verification.
      const uint64_t last = last_assignment_window_;
      if (w > last && w - last > options_.max_unverified_windows) {
        DECO_RETURN_NOT_OK(BlockUntil([&] {
          return rolled_back_ ||
                 w - last_assignment_window_ <=
                     options_.max_unverified_windows;
        }));
        if (done_ || stop_requested()) break;
        if (crashed_ || rolled_back_) continue;
      }
    } else {
      // Synchronous schemes: wait for this window's assignment.
      DECO_RETURN_NOT_OK(BlockUntil([&] {
        return rolled_back_ || last_assignment_window_ >= w;
      }));
      if (done_ || stop_requested()) break;
      if (crashed_ || rolled_back_) continue;
    }

    if (source_->exhausted() && cursor_ == retained_size()) {
      // Everything produced and shipped; tell the root and stay responsive
      // for corrections until it shuts us down.
      if (scheme_ == DecoScheme::kMonLocal && !peer_eos_sent_) {
        // Final broadcast: peers must not wait on rate reports from a
        // node that will never send another one.
        peer_eos_sent_ = true;
        DECO_RETURN_NOT_OK(BroadcastPeerRate(w, /*end_of_stream=*/true));
      }
      if (!eos_sent_) {
        eos_sent_ = true;
        Message msg;
        msg.type = MessageType::kShutdown;
        msg.dst = topology_.root;
        msg.epoch = epoch_;
        DECO_RETURN_NOT_OK(SendOrCrash(std::move(msg)));
      }
      DECO_LOG(DEBUG) << "local " << id_ << ": eos, staying responsive";
      DECO_RETURN_NOT_OK(BlockUntil([&] { return rolled_back_; }));
      if (crashed_ || rolled_back_) continue;
      break;
    }

    uint64_t size = assigned_size_;
    uint64_t delta = assigned_delta_;
    if (scheme_ == DecoScheme::kAsync && w > last_assignment_window_) {
      // The prediction is applied `lag` windows after the root computed
      // it; drift accumulates roughly linearly with the lag, so widen the
      // raw regions accordingly (bounded by the quarter window to keep
      // the slice meaningful).
      const uint64_t lag = w - last_assignment_window_;
      delta = std::min(delta * lag, size / 4 + 1);
    }
    if (pending_size_adjust_ != 0) {
      const int64_t adjusted =
          static_cast<int64_t>(size) + pending_size_adjust_;
      size = adjusted > 0 ? static_cast<uint64_t>(adjusted) : 0;
      pending_size_adjust_ = 0;
    }
    if (scheme_ == DecoScheme::kMonLocal) {
      // Deco_monlocal: every local node computes the split itself from the
      // exchanged peer rates (paper §5.1 microbenchmark).
      DECO_RETURN_NOT_OK(
          BlockUntil([&] { return rolled_back_ || PeerRatesComplete(w); }));
      if (done_ || stop_requested()) break;
      if (crashed_ || rolled_back_) continue;
      DECO_ASSIGN_OR_RETURN(
          std::vector<uint64_t> shares,
          ApportionWindow(pane_length_, peer_rates_[w]));
      // In peer mode the root's assignment carries this node's leftover
      // (events already buffered at the root) in `local_window_size`.
      const uint64_t leftover = assigned_size_;
      size = shares[self_ordinal_] > leftover
                 ? shares[self_ordinal_] - leftover
                 : 0;
      delta = std::max<uint64_t>(1, shares[self_ordinal_] /
                                        kPeerDeltaDivisor);
      peer_rates_.erase(w);
      peer_rates_received_.erase(w);
    }

    SlicePlan plan;
    if (scheme_ != DecoScheme::kAsync) {
      plan = PlanSync(size, delta);
    } else if (need_slack_window_) {
      plan = PlanAsyncSlack(size, delta);
      need_slack_window_ = false;
    } else {
      plan = PlanAsync(size, delta);
    }
    DECO_LOG(DEBUG) << "local " << id_ << ": window " << w << " plan f/s/e="
                    << plan.front_buffer << "/" << plan.slice << "/"
                    << plan.end_buffer;
    DECO_RETURN_NOT_OK(ProduceWindow(w, plan));
    ++w;

    // Deco_mon: report the fresh rate for the next window before blocking
    // (initialization step of window w+1, paper Fig. 3).
    if (scheme_ == DecoScheme::kMon || scheme_ == DecoScheme::kMonLocal) {
      DECO_RETURN_NOT_OK(SendRateReport(w));
    }
    if (scheme_ == DecoScheme::kMonLocal) {
      DECO_RETURN_NOT_OK(BroadcastPeerRate(w));
    }
  }
  return Status::OK();
}

}  // namespace deco
