#include "obs/flight_recorder.h"

#include <csignal>
#include <cstring>

#include "common/file.h"
#include "common/json.h"
#include "common/logging.h"

namespace deco {

FlightRecorder::FlightRecorder(Clock* clock, Options options)
    : clock_(clock), options_(options) {}

void FlightRecorder::RecordHop(const HopRecord& hop) {
  std::lock_guard<std::mutex> lock(hop_mu_);
  hops_.Push(options_.hop_capacity, hop);
}

void FlightRecorder::RecordSpan(NodeId node, TracePhase phase,
                                uint64_t window_index, int64_t value,
                                uint64_t msg_id) {
  TraceEvent event;
  event.t_nanos = clock_->NowNanos();
  event.node = node;
  event.phase = phase;
  event.window_index = window_index;
  event.value = value;
  event.msg_id = msg_id;

  std::lock_guard<std::mutex> lock(span_mu_);
  spans_.Push(options_.span_capacity, event);
}

void FlightRecorder::RecordAlert(const AlertTransition& transition) {
  std::lock_guard<std::mutex> lock(alert_mu_);
  alerts_.Push(options_.alert_capacity, transition);
}

namespace {

void AppendHop(std::string* out, const HopRecord& hop) {
  *out += "{\"msg_id\":";
  JsonAppendU64(out, hop.msg_id);
  *out += ",\"type\":";
  JsonAppendString(out, MessageTypeToString(hop.type));
  *out += ",\"src\":";
  JsonAppendU64(out, hop.src);
  *out += ",\"dst\":";
  JsonAppendU64(out, hop.dst);
  *out += ",\"window_index\":";
  JsonAppendU64(out, hop.window_index);
  *out += ",\"wire_bytes\":";
  JsonAppendU64(out, hop.wire_bytes);
  *out += ",\"enqueue_nanos\":";
  JsonAppendI64(out, hop.enqueue_nanos);
  *out += ",\"deliver_nanos\":";
  JsonAppendI64(out, hop.deliver_nanos);
  *out += ",\"dequeue_nanos\":";
  JsonAppendI64(out, hop.dequeue_nanos);
  *out += ",\"shaping_delay_nanos\":";
  JsonAppendI64(out, hop.shaping_delay_nanos);
  *out += "}";
}

void AppendSpan(std::string* out, const TraceEvent& event) {
  *out += "{\"t_nanos\":";
  JsonAppendI64(out, event.t_nanos);
  *out += ",\"node\":";
  JsonAppendU64(out, event.node);
  *out += ",\"phase\":";
  JsonAppendString(out, std::string(TracePhaseToString(event.phase)));
  *out += ",\"window_index\":";
  JsonAppendU64(out, event.window_index);
  *out += ",\"value\":";
  JsonAppendI64(out, event.value);
  *out += ",\"msg_id\":";
  JsonAppendU64(out, event.msg_id);
  *out += "}";
}

void AppendAlert(std::string* out, const AlertTransition& transition) {
  *out += "{\"t_nanos\":";
  JsonAppendI64(out, transition.t_nanos);
  *out += ",\"kind\":";
  JsonAppendString(out, transition.kind);
  *out += ",\"subject\":";
  JsonAppendString(out, transition.subject);
  *out += ",\"fired\":";
  *out += transition.fired ? "true" : "false";
  *out += ",\"observed\":";
  JsonAppendDouble(out, transition.observed);
  *out += ",\"threshold\":";
  JsonAppendDouble(out, transition.threshold);
  *out += "}";
}

}  // namespace

std::string FlightRecorder::ToJson(const std::string& reason) const {
  return ToJsonLocked(reason, /*best_effort=*/false);
}

std::string FlightRecorder::ToJsonLocked(const std::string& reason,
                                         bool best_effort) const {
  std::vector<HopRecord> hops;
  std::vector<TraceEvent> spans;
  std::vector<AlertTransition> alerts;
  uint64_t hop_total = 0, span_total = 0, alert_total = 0;
  {
    std::unique_lock<std::mutex> lock(hop_mu_, std::defer_lock);
    if (best_effort ? lock.try_lock() : (lock.lock(), true)) {
      hops = hops_.OldestFirst(options_.hop_capacity);
      hop_total = hops_.total;
    }
  }
  {
    std::unique_lock<std::mutex> lock(span_mu_, std::defer_lock);
    if (best_effort ? lock.try_lock() : (lock.lock(), true)) {
      spans = spans_.OldestFirst(options_.span_capacity);
      span_total = spans_.total;
    }
  }
  {
    std::unique_lock<std::mutex> lock(alert_mu_, std::defer_lock);
    if (best_effort ? lock.try_lock() : (lock.lock(), true)) {
      alerts = alerts_.OldestFirst(options_.alert_capacity);
      alert_total = alerts_.total;
    }
  }

  std::string out;
  out.reserve(1 << 16);
  out += "{\n  \"schema_version\": 1,\n  \"reason\": ";
  JsonAppendString(&out, reason);
  out += ",\n  \"t_nanos\": ";
  JsonAppendI64(&out, clock_->NowNanos());
  out += ",\n  \"hop_capacity\": ";
  JsonAppendU64(&out, options_.hop_capacity);
  out += ",\n  \"hops_recorded\": ";
  JsonAppendU64(&out, hop_total);
  out += ",\n  \"spans_recorded\": ";
  JsonAppendU64(&out, span_total);
  out += ",\n  \"alerts_recorded\": ";
  JsonAppendU64(&out, alert_total);
  out += ",\n  \"hops\": [";
  for (size_t i = 0; i < hops.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    AppendHop(&out, hops[i]);
  }
  out += "\n  ],\n  \"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    AppendSpan(&out, spans[i]);
  }
  out += "\n  ],\n  \"alerts\": [";
  for (size_t i = 0; i < alerts.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    AppendAlert(&out, alerts[i]);
  }
  out += "\n  ]\n}\n";
  return out;
}

bool FlightRecorder::DumpJson(const std::string& path,
                              const std::string& reason,
                              bool best_effort) const {
  const Status written = WriteFile(path, ToJsonLocked(reason, best_effort));
  if (!written.ok() && !best_effort) {
    DECO_LOG(ERROR) << "flight recorder: " << written.ToString();
  }
  return written.ok();
}

std::vector<HopRecord> FlightRecorder::Hops() const {
  std::lock_guard<std::mutex> lock(hop_mu_);
  return hops_.OldestFirst(options_.hop_capacity);
}

std::vector<TraceEvent> FlightRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(span_mu_);
  return spans_.OldestFirst(options_.span_capacity);
}

std::vector<AlertTransition> FlightRecorder::Alerts() const {
  std::lock_guard<std::mutex> lock(alert_mu_);
  return alerts_.OldestFirst(options_.alert_capacity);
}

uint64_t FlightRecorder::spans_recorded() const {
  std::lock_guard<std::mutex> lock(span_mu_);
  return spans_.total;
}

uint64_t FlightRecorder::alerts_recorded() const {
  std::lock_guard<std::mutex> lock(alert_mu_);
  return alerts_.total;
}

namespace {

// Crash-handler state: captured at install time so the handler itself
// only reads plain buffers and one atomic pointer.
char g_crash_dump_path[512] = {0};
std::atomic<FlightRecorder*> g_crash_dump_target{nullptr};
std::atomic<bool> g_crash_handler_installed{false};

void CrashHandler(int signo) {
  FlightRecorder* recorder = g_crash_dump_target.load();
  if (recorder != nullptr && g_crash_dump_path[0] != '\0') {
    const char* name = signo == SIGSEGV ? "SIGSEGV"
                       : signo == SIGABRT ? "SIGABRT"
                                          : "signal";
    // Best-effort: allocates and takes try_locks, so a crash inside the
    // allocator or while holding a ring lock may lose records — the
    // alternative (no artifact at all) is worse.
    recorder->DumpJson(g_crash_dump_path,
                       std::string("fatal-signal:") + name,
                       /*best_effort=*/true);
  }
  std::signal(signo, SIG_DFL);
  std::raise(signo);
}

}  // namespace

FlightRecorder::~FlightRecorder() {
  FlightRecorder* self = this;
  g_crash_dump_target.compare_exchange_strong(self, nullptr);
}

void FlightRecorder::InstallCrashHandler(const std::string& path) {
  std::strncpy(g_crash_dump_path, path.c_str(),
               sizeof(g_crash_dump_path) - 1);
  g_crash_dump_path[sizeof(g_crash_dump_path) - 1] = '\0';
  g_crash_dump_target.store(this);
  if (g_crash_handler_installed.exchange(true)) return;
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = &CrashHandler;
  sigemptyset(&action.sa_mask);
  sigaction(SIGSEGV, &action, nullptr);
  sigaction(SIGABRT, &action, nullptr);
}

}  // namespace deco
