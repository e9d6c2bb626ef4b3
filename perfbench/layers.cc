#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "baseline/root_merger.h"
#include "common/clock.h"
#include "deco/assembler.h"
#include "deco/planner.h"
#include "deco/predictor.h"
#include "deco/root_node.h"
#include "harness/oracle.h"
#include "node/ingest.h"
#include "node/protocol.h"
#include "node/stream_set.h"
#include "obs/metric_registry.h"
#include "obs/ops_server.h"
#include "serve/registry.h"
#include "serve/slice_store.h"
#include "window/window.h"

namespace perfbench {
namespace {

using deco::AggregateFunction;
using deco::BatchRole;
using deco::EventVec;
using deco::ExperimentConfig;
using deco::Result;
using deco::SliceSummary;
using deco::Status;
using deco::WindowAssembler;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Makes the compiler treat `value` as read, so timed work is not discarded.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

// Times one layer: a parent span named after the module, holding one child
// span per timed call (or per fixed group of calls). The per-unit cost is
// the children's total duration over the units they processed; input
// preparation between children is the parent's self time.
class LayerTimer {
 public:
  LayerTimer(SpanLog* log, const char* layer, const char* call,
             double budget_s, int max_iterations = 2000)
      : log_(log),
        call_(call),
        span_(log->Begin(layer, -1)),
        deadline_(NowNanos() + static_cast<int64_t>(budget_s * 1e9)),
        max_iterations_(max_iterations) {}

  bool More() const {
    return iterations_ < 3 ||
           (iterations_ < max_iterations_ && NowNanos() < deadline_);
  }

  /// Runs `call` in a child span; `call` returns the units it processed.
  template <typename F>
  void Time(F&& call) {
    const int span = log_->Begin(call_, span_);
    const uint64_t units = call();
    log_->End(span);
    call_ns_ += log_->DurationNanos(span);
    units_ += units;
    ++iterations_;
  }

  double Finish() {
    log_->End(span_);
    return units_ == 0 ? 0.0
                       : static_cast<double>(call_ns_) /
                             static_cast<double>(units_);
  }

 private:
  SpanLog* log_;
  const char* call_;
  int span_;
  int64_t deadline_;
  int max_iterations_;
  int iterations_ = 0;
  int64_t call_ns_ = 0;
  uint64_t units_ = 0;
};

// One local node's region of one sampled window, laid out the way the
// workload's scheme lays it out, around the window's true cut.
struct Region {
  uint64_t start = 0;  // stream position of the region's first event
  deco::SlicePlan plan;
  uint64_t retained_end = 0;  // end of the ingest batch holding the region
  SliceSummary slice;
};

// The two-tenant, eight-query set of the serving layer (pane = gcd = 50k).
// No workload serves queries end to end; the serve layer is timed with
// this set over each workload's streams.
constexpr const char* kServedQueries =
    "tenant=a,agg=sum,window=100000;"
    "tenant=a,agg=max,window=100000;"
    "tenant=a,agg=avg,window=200000;"
    "tenant=a,agg=min,window=50000;"
    "tenant=b,agg=sum,window=200000,slide=100000;"
    "tenant=b,agg=max,window=50000;"
    "tenant=b,agg=count,window=100000;"
    "tenant=b,agg=avg,window=400000";

// The workload's own inputs to every layer.
struct Inputs {
  ExperimentConfig config;
  uint64_t window = 0;  // global window the root assembles
  std::unique_ptr<AggregateFunction> func;
  std::vector<EventVec> streams;  // each local's stream prefix
  std::vector<std::vector<Region>> windows;  // sampled window -> node
};

EventVec Slice(const EventVec& stream, uint64_t from, uint64_t count) {
  return EventVec(stream.begin() + static_cast<std::ptrdiff_t>(from),
                  stream.begin() + static_cast<std::ptrdiff_t>(from + count));
}

SliceSummary Summarize(const Inputs& in, const EventVec& events) {
  SliceSummary s;
  s.partial = in.func->CreatePartial();
  for (const deco::Event& e : events) in.func->Accumulate(&s.partial, e.value);
  s.event_count = events.size();
  if (!events.empty()) {
    s.min_ts = events.front().timestamp;
    s.max_ts = events.back().timestamp;
    s.max_stream_id = events.back().stream_id;
    s.max_event_id = events.back().id;
  }
  s.event_rate = in.config.base_rate;
  return s;
}

Result<Inputs> BuildInputs(const ExperimentConfig& config) {
  Inputs in;
  in.config = config;
  const ExperimentConfig& c = in.config;
  in.window = c.query.window.length;
  DECO_ASSIGN_OR_RETURN(
      in.func, deco::MakeAggregate(c.query.aggregate, c.query.quantile_q));

  // Enough windows to average over, at most ~400k events per local.
  const size_t m = c.num_locals;
  const uint64_t local = std::max<uint64_t>(1, in.window / m);
  const uint64_t sampled =
      std::clamp<uint64_t>(400'000 / local, 4, 64);
  const uint64_t per_node = std::min<uint64_t>(
      c.events_per_local, (sampled + 4) * local + 2 * c.batch_size);
  for (size_t n = 0; n < m; ++n) {
    deco::StreamSet streams(deco::MakeIngestConfig(in.config, n).streams);
    EventVec events;
    streams.NextBatch(per_node, &events);
    in.streams.push_back(std::move(events));
  }

  // True per-node window sizes over that prefix.
  ExperimentConfig truth = in.config;
  truth.events_per_local = per_node;
  DECO_ASSIGN_OR_RETURN(deco::OracleReference oracle,
                        deco::ComputeOracleReference(truth));
  const deco::ConsumptionLog& log = oracle.consumption;

  // Deltas as the root derives them: the predictor over past true sizes,
  // floored at 1/256 of the window. Each region is laid out by the
  // scheme's planner so the true cut falls inside its raw edge.
  const deco::DecoRootOptions root;
  std::vector<deco::LocalWindowPredictor> predictors(
      m, deco::LocalWindowPredictor(root.predictor_history_m,
                                    root.delta_floor,
                                    root.delta_multiplier));
  const bool async = c.scheme == deco::Scheme::kDecoAsync;
  for (size_t w = 0; w < log.num_windows() && in.windows.size() < sampled;
       ++w) {
    std::vector<Region> regions;
    bool fits = w >= 2;
    for (size_t n = 0; n < m && fits; ++n) {
      const uint64_t actual = log.window(w)[n];
      const uint64_t delta =
          std::max(predictors[n].Delta(), actual / 256);
      Region r;
      r.start = log.CumulativeBefore(w, n);
      r.plan = async ? deco::PlanAsync(
                           actual + (deco::AsyncEndSize(actual, delta) + 1) / 2,
                           delta)
                     : deco::PlanSync(actual, delta);
      const uint64_t end = r.start + r.plan.TotalRegion();
      r.retained_end =
          std::min<uint64_t>((end + c.batch_size - 1) / c.batch_size *
                                 c.batch_size,
                             in.streams[n].size());
      fits = end < in.streams[n].size();
      if (fits) {
        r.slice = Summarize(in, Slice(in.streams[n],
                                      r.start + r.plan.front_buffer,
                                      r.plan.slice));
        regions.push_back(std::move(r));
      }
    }
    for (size_t n = 0; n < m; ++n) predictors[n].ObserveActual(log.window(w)[n]);
    if (fits) in.windows.push_back(std::move(regions));
  }
  if (in.windows.empty()) {
    return Status::Internal("workload too small to sample a window");
  }
  return in;
}

// Cycles through fixed-size chunks of one stream.
class Chunks {
 public:
  Chunks(const EventVec& stream, size_t size)
      : stream_(stream), size_(std::min(size, stream.size())) {}
  EventVec Next() {
    if (at_ + size_ > stream_.size()) at_ = 0;
    EventVec out = Slice(stream_, at_, size_);
    at_ += size_;
    return out;
  }

 private:
  const EventVec& stream_;
  size_t size_;
  size_t at_ = 0;
};

}  // namespace

int SpanLog::Begin(const char* name, int parent) {
  spans_.push_back(Span{name, NowNanos(), 0, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int span) { spans_[span].end_ns = NowNanos(); }

int64_t SpanLog::DurationNanos(int span) const {
  return spans_[span].end_ns - spans_[span].start_ns;
}

Status SpanLog::WriteJsonl(const std::string& path) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"self_ns\":%lld}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.end_ns - s.start_ns - child_ns[i]));
  }
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::IOError("short write to " + path);
}

Result<LayerTimes> MeasureLayers(const ExperimentConfig& config,
                                 double mean_message_bytes, double budget_s,
                                 SpanLog* spans) {
  DECO_ASSIGN_OR_RETURN(Inputs in, BuildInputs(config));
  const ExperimentConfig& c = in.config;
  const size_t m = c.num_locals;
  const double slice = budget_s / 14;
  const bool async = c.scheme == deco::Scheme::kDecoAsync;
  LayerTimes t;

  {  // stream: the local ingest front end, unthrottled (pacing is not CPU).
    deco::IngestConfig ingest = deco::MakeIngestConfig(c, 0);
    ingest.cpu_events_per_sec = 0;
    auto source = std::make_unique<deco::IngestSource>(
        ingest, deco::SystemClock::Default());
    LayerTimer timer(spans, "stream", "IngestSource::Pull", slice);
    EventVec out;
    while (timer.More()) {
      if (source->exhausted()) {
        source = std::make_unique<deco::IngestSource>(
            ingest, deco::SystemClock::Default());
      }
      out.clear();
      deco::TimeNanos created = 0;
      timer.Time([&] { return source->Pull(c.batch_size, &out, &created); });
    }
    t.stream_pull_ns_per_event = timer.Finish();
  }

  {  // agg: the primary aggregate over one ingest batch.
    Chunks chunks(in.streams[0], c.batch_size);
    LayerTimer timer(spans, "agg", "AggregateFunction::Accumulate x batch",
                     slice);
    while (timer.More()) {
      const EventVec batch = chunks.Next();
      deco::Partial partial = in.func->CreatePartial();
      timer.Time([&] {
        for (const deco::Event& e : batch) {
          in.func->Accumulate(&partial, e.value);
        }
        return batch.size();
      });
      Keep(partial);
    }
    t.agg_accumulate_ns_per_event = timer.Finish();
  }

  {  // serve: one local window into every slot of the served query set.
    deco::QueryRegistry registry;
    DECO_ASSIGN_OR_RETURN(std::vector<deco::ServedQuery> queries,
                          deco::ParseQueryList(kServedQueries));
    for (deco::ServedQuery& q : queries) {
      DECO_RETURN_NOT_OK(registry.Add(std::move(q)));
    }
    Chunks chunks(in.streams[0], std::max<uint64_t>(1, in.window / m));
    deco::SliceStore store;
    DECO_RETURN_NOT_OK(store.Init(&registry));
    LayerTimer timer(spans, "serve",
                     "SliceStore::BeginPane+Accumulate+TakeExtras", slice);
    for (uint64_t pane = 0; timer.More(); ++pane) {
      const EventVec events = chunks.Next();
      std::vector<deco::SlotPartial> extras;
      timer.Time([&] {
        store.BeginPane(pane);
        for (const deco::Event& e : events) store.Accumulate(e.value);
        extras = store.TakeExtras();
        return events.size();
      });
      Keep(extras);
    }
    t.serve_accumulate_ns_per_event = timer.Finish();
  }

  {  // event codec: one data-plane batch.
    Chunks chunks(in.streams[0], c.batch_size);
    std::vector<std::string> encoded;
    LayerTimer encode(spans, "event", "EncodeEventBatch", slice / 2);
    while (encode.More()) {
      deco::EventBatchPayload payload;
      payload.events = chunks.Next();
      deco::BinaryWriter writer;
      encode.Time([&] {
        deco::EncodeEventBatch(payload, &writer);
        return payload.events.size();
      });
      if (encoded.size() < 64) encoded.push_back(writer.Release());
    }
    t.event_batch_encode_ns_per_event = encode.Finish();

    Status status = Status::OK();
    LayerTimer decode(spans, "event", "DecodeEventBatch", slice / 2);
    for (size_t i = 0; decode.More(); ++i) {
      deco::BinaryReader reader(encoded[i % encoded.size()]);
      decode.Time([&]() -> size_t {
        Result<deco::EventBatchPayload> batch = deco::DecodeEventBatch(&reader);
        if (!batch.ok()) {
          status = batch.status();
          return 0;
        }
        return batch->events.size();
      });
    }
    DECO_RETURN_NOT_OK(status);
    t.event_batch_decode_ns_per_event = decode.Finish();
  }

  {  // node codecs: slice summaries and correction responses.
    constexpr size_t kGroup = 32;
    Status status = Status::OK();
    LayerTimer slices(spans, "node", "EncodeSliceSummary+Decode x32",
                      slice / 2);
    for (size_t i = 0; slices.More(); ++i) {
      const SliceSummary& s = in.windows[i % in.windows.size()][i % m].slice;
      slices.Time([&] {
        for (size_t g = 0; g < kGroup; ++g) {
          deco::BinaryWriter writer;
          deco::EncodeSliceSummary(s, &writer);
          const std::string buf = writer.Release();
          deco::BinaryReader reader(buf);
          Result<SliceSummary> decoded = deco::DecodeSliceSummary(&reader);
          if (!decoded.ok()) status = decoded.status();
        }
        return kGroup;
      });
    }
    DECO_RETURN_NOT_OK(status);
    t.node_slice_codec_ns_per_msg = slices.Finish();

    LayerTimer corrections(spans, "node", "EncodeCorrectionResponse+Decode",
                           slice / 2);
    for (size_t i = 0; corrections.More(); ++i) {
      const size_t n = i % m;
      const Region& r = in.windows[i % in.windows.size()][n];
      deco::CorrectionResponse response;
      response.window_index = i;
      response.from_offset = r.start;
      response.events =
          Slice(in.streams[n], r.start, r.retained_end - r.start);
      corrections.Time([&] {
        deco::BinaryWriter writer;
        deco::EncodeCorrectionResponse(response, &writer);
        const std::string buf = writer.Release();
        deco::BinaryReader reader(buf);
        Result<deco::CorrectionResponse> decoded =
            deco::DecodeCorrectionResponse(&reader);
        if (!decoded.ok()) status = decoded.status();
        return response.events.size();
      });
    }
    DECO_RETURN_NOT_OK(status);
    t.node_correction_codec_ns_per_event = corrections.Finish();
  }

  {  // net: one fabric hop at the run's mean message size.
    deco::NetworkFabric fabric(deco::SystemClock::Default());
    const deco::NodeId src = fabric.RegisterNode("local-0");
    const deco::NodeId dst = fabric.RegisterNode("root");
    deco::Mailbox* mailbox = fabric.mailbox(dst);
    const auto mean_bytes = static_cast<size_t>(mean_message_bytes);
    const std::string payload(
        mean_bytes > deco::Message::kHeaderBytes
            ? mean_bytes - deco::Message::kHeaderBytes
            : 0,
        'x');
    constexpr size_t kGroup = 64;
    Status status = Status::OK();
    LayerTimer timer(spans, "net", "NetworkFabric::Send+Pop x64", slice);
    while (timer.More()) {
      std::vector<deco::Message> messages(kGroup);
      for (deco::Message& msg : messages) {
        msg.type = deco::MessageType::kPartialResult;
        msg.src = src;
        msg.dst = dst;
        msg.payload = payload;
      }
      timer.Time([&] {
        for (deco::Message& msg : messages) {
          const Status sent = fabric.Send(std::move(msg));
          if (!sent.ok()) status = sent;
          Keep(mailbox->TryPop());
        }
        return kGroup;
      });
    }
    DECO_RETURN_NOT_OK(status);
    t.net_send_ns_per_msg = timer.Finish();
    fabric.Shutdown();
  }

  auto make_assembler = [&] {
    auto assembler =
        std::make_unique<WindowAssembler>(m, in.func.get(), in.window);
    assembler->set_expect_front(async);
    return assembler;
  };

  {  // deco: verification of one window from slices and raw edges.
    LayerTimer timer(spans, "deco", "AddSlice+AddRaw+TryAssemble", slice);
    for (size_t i = 0; timer.More(); ++i) {
      const std::vector<Region>& regions = in.windows[i % in.windows.size()];
      auto assembler = make_assembler();
      std::vector<EventVec> fronts(m), ends(m);
      std::vector<SliceSummary> summaries(m);
      for (size_t n = 0; n < m; ++n) {
        const Region& r = regions[n];
        fronts[n] = Slice(in.streams[n], r.start, r.plan.front_buffer);
        ends[n] = Slice(in.streams[n],
                        r.start + r.plan.front_buffer + r.plan.slice,
                        r.plan.end_buffer);
        summaries[n] = r.slice;
      }
      deco::WindowAssembly out;
      auto outcome = WindowAssembler::Outcome::kNotReady;
      Status status = Status::OK();
      timer.Time([&] {
        for (size_t n = 0; n < m && status.ok(); ++n) {
          if (async) {
            status = assembler->AddRaw(0, n, BatchRole::kFront,
                                       std::move(fronts[n]), 0.0);
          }
          if (status.ok()) {
            status = assembler->AddSlice(0, n, std::move(summaries[n]), 0.0);
          }
          if (status.ok()) {
            status = assembler->AddRaw(0, n, BatchRole::kEnd,
                                       std::move(ends[n]), 0.0);
          }
        }
        if (status.ok()) outcome = assembler->TryAssemble(&out);
        return 1;
      });
      DECO_RETURN_NOT_OK(status);
      if (outcome != WindowAssembler::Outcome::kAssembled ||
          out.event_count != in.window) {
        return Status::Internal("a laid-out window did not verify");
      }
    }
    t.deco_assemble_us_per_window = timer.Finish() / 1e3;
  }

  {  // deco: the correction fallback over every local's retained region.
    LayerTimer timer(spans, "deco",
                     "BeginCorrection+AddCandidates+TryAssembleCorrected",
                     slice);
    for (size_t i = 0; timer.More(); ++i) {
      const std::vector<Region>& regions = in.windows[i % in.windows.size()];
      auto assembler = make_assembler();
      std::vector<EventVec> candidates(m);
      for (size_t n = 0; n < m; ++n) {
        candidates[n] = Slice(in.streams[n], regions[n].start,
                              regions[n].retained_end - regions[n].start);
      }
      deco::WindowAssembly out;
      std::vector<size_t> need_more;
      auto outcome = WindowAssembler::CorrectionOutcome::kNeedMore;
      Status status = Status::OK();
      timer.Time([&] {
        assembler->BeginCorrection();
        for (size_t n = 0; n < m && status.ok(); ++n) {
          status = assembler->AddCandidates(n, candidates[n], 0.0);
        }
        if (status.ok()) {
          outcome = assembler->TryAssembleCorrected(&out, &need_more);
        }
        return 1;
      });
      DECO_RETURN_NOT_OK(status);
      if (outcome != WindowAssembler::CorrectionOutcome::kAssembled ||
          out.event_count != in.window) {
        return Status::Internal("a corrected window did not assemble");
      }
    }
    t.deco_correct_us_per_window = timer.Finish() / 1e3;
  }

  {  // baseline: the root's k-way merge of one batch from every local.
    std::vector<Chunks> chunks;
    for (size_t n = 0; n < m; ++n) {
      chunks.emplace_back(in.streams[n], c.batch_size);
    }
    auto merger = std::make_unique<deco::RootMerger>(m);
    uint64_t appended = 0;
    LayerTimer timer(spans, "baseline", "RootMerger::Append+PopNext", slice);
    while (timer.More()) {
      if (appended + c.batch_size > in.streams[0].size()) {
        merger = std::make_unique<deco::RootMerger>(m);  // chunks wrapped
        appended = 0;
      }
      std::vector<EventVec> batches;
      for (Chunks& ch : chunks) batches.push_back(ch.Next());
      appended += c.batch_size;
      timer.Time([&] {
        for (size_t n = 0; n < m; ++n) {
          merger->Append(n, std::move(batches[n]), 0.0);
        }
        uint64_t popped = 0;
        deco::Event event;
        double created = 0.0;
        size_t from = 0;
        while (merger->PopNext(&event, &created, &from)) ++popped;
        return popped;
      });
    }
    t.baseline_merge_ns_per_event = timer.Finish();
  }

  {  // window: the count windower Central runs at its root.
    Chunks chunks(in.streams[0], c.batch_size);
    DECO_ASSIGN_OR_RETURN(auto windower,
                          deco::MakeWindower(c.query.window, in.func.get()));
    std::vector<deco::WindowResult> closed;
    Status status = Status::OK();
    LayerTimer timer(spans, "window", "Windower::Add x batch", slice);
    while (timer.More()) {
      const EventVec batch = chunks.Next();
      timer.Time([&] {
        for (const deco::Event& e : batch) {
          const Status added = windower->Add(e, &closed);
          if (!added.ok()) status = added;
        }
        return batch.size();
      });
      closed.clear();
    }
    DECO_RETURN_NOT_OK(status);
    t.window_add_ns_per_event = timer.Finish();
  }

  {  // obs: a sampler tick and a /metrics render over this topology.
    deco::NetworkFabric fabric(deco::SystemClock::Default());
    const deco::NodeId root = fabric.RegisterNode("root");
    for (size_t n = 0; n < m; ++n) {
      deco::Message msg;
      msg.type = deco::MessageType::kPartialResult;
      msg.src = fabric.RegisterNode("local-" + std::to_string(n));
      msg.dst = root;
      DECO_RETURN_NOT_OK(fabric.Send(std::move(msg)));
    }
    deco::Sampler sampler(deco::SystemClock::Default(), &fabric,
                          deco::MetricRegistry::Global(),
                          50 * deco::kNanosPerMilli);
    LayerTimer sample(spans, "obs", "Sampler::SampleNow", slice, 500);
    while (sample.More()) {
      sample.Time([&] {
        Keep(sampler.SampleNow());
        return 1;
      });
    }
    t.obs_sample_us = sample.Finish() / 1e3;

    deco::OpsServer::Options options;
    options.clock = deco::SystemClock::Default();
    options.fabric = &fabric;
    options.registry = deco::MetricRegistry::Global();
    options.sampler = &sampler;
    deco::OpsServer server(options);
    std::string exposition;
    LayerTimer render(spans, "obs", "OpsServer::RenderMetrics", slice, 500);
    while (render.More()) {
      render.Time([&] {
        exposition = server.RenderMetrics();
        return 1;
      });
    }
    t.obs_render_metrics_us = render.Finish() / 1e3;
    t.obs_exposition_bytes = exposition.size();
    fabric.Shutdown();
  }
  return t;
}

}  // namespace perfbench
