#include "obs/ops_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>

#include "common/json.h"
#include "common/logging.h"

namespace deco {

namespace {

/// Prometheus metric names allow [a-zA-Z_:][a-zA-Z0-9_:]*; the registry's
/// dotted names map onto that with '.' (and anything else) -> '_'.
std::string PromName(const std::string& name) {
  std::string out = "deco_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Prometheus label values escape backslash, quote and newline.
std::string PromLabelValue(const std::string& value) {
  std::string out;
  for (char c : value) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

void AppendPromValue(std::string* out, double v) {
  std::ostringstream os;
  os << v;
  *out += os.str();
}

std::string HttpResponse(int code, const char* reason,
                         const char* content_type, const std::string& body) {
  std::string out = "HTTP/1.1 ";
  out += std::to_string(code);
  out += " ";
  out += reason;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

constexpr char kPromContentType[] =
    "text/plain; version=0.0.4; charset=utf-8";

void AppendSummaryQuantiles(std::string* out, const std::string& prom,
                            double p50, double p90, double p99) {
  *out += prom + "{quantile=\"0.5\"} ";
  AppendPromValue(out, p50);
  *out += "\n";
  *out += prom + "{quantile=\"0.9\"} ";
  AppendPromValue(out, p90);
  *out += "\n";
  *out += prom + "{quantile=\"0.99\"} ";
  AppendPromValue(out, p99);
  *out += "\n";
}

/// One collapsed fleet family: a summary (p50/p90/p99 + sum + count from
/// the sketch) plus `_min`/`_max` gauge companions.
void AppendFleetSummary(std::string* out, const std::string& name,
                        const char* help, const QuantileSketch& sketch,
                        uint64_t sum) {
  *out += "# HELP " + name + " " + help + "\n";
  *out += "# TYPE " + name + " summary\n";
  AppendSummaryQuantiles(out, name, sketch.Quantile(0.5), sketch.Quantile(0.9),
                         sketch.Quantile(0.99));
  *out += name + "_sum " + std::to_string(sum) + "\n";
  *out += name + "_count " + std::to_string(sketch.count()) + "\n";
  *out += "# HELP " + name + "_min Per-node minimum of " + name + ".\n";
  *out += "# TYPE " + name + "_min gauge\n";
  *out += name + "_min ";
  AppendPromValue(out, sketch.min());
  *out += "\n";
  *out += "# HELP " + name + "_max Per-node maximum of " + name + ".\n";
  *out += "# TYPE " + name + "_max gauge\n";
  *out += name + "_max ";
  AppendPromValue(out, sketch.max());
  *out += "\n";
}

/// Top-k offender series: per-node labels survive governance, capped at k.
template <typename Value>
void AppendOffenderSeries(std::string* out, const std::string& name,
                          const char* help, const NetworkFabric& fabric,
                          const std::vector<NodeId>& ids, Value value) {
  *out += "# HELP " + name + " " + help + "\n";
  *out += "# TYPE " + name + " gauge\n";
  for (NodeId id : ids) {
    *out += name + "{node=\"" + PromLabelValue(fabric.node_name(id)) +
            "\"} " + std::to_string(value(id)) + "\n";
  }
}

/// One /statusz offender list: `"key":[{"node":id,"name":s,"weight":w},..]`.
/// Weight is the space-saving cumulative count of top-k appearances (an
/// overestimate by at most the entry's inherited error).
void AppendOffenderListJson(std::string* out, const char* key,
                            const std::vector<SpaceSavingTopK::Entry>& entries,
                            const NetworkFabric& fabric, size_t n) {
  *out += "\"";
  *out += key;
  *out += "\":[";
  bool first = true;
  for (const SpaceSavingTopK::Entry& e : entries) {
    if (e.key < 0) continue;
    const auto id = static_cast<NodeId>(e.key);
    if (!first) *out += ",";
    first = false;
    *out += "{\"node\":";
    JsonAppendU64(out, id);
    *out += ",\"name\":";
    JsonAppendString(out, id < n ? fabric.node_name(id) : std::string());
    *out += ",\"weight\":";
    JsonAppendDouble(out, e.weight);
    *out += "}";
  }
  *out += "]";
}

}  // namespace

OpsServer::OpsServer(Options options) : options_(std::move(options)) {}

OpsServer::~OpsServer() { Stop(); }

Status OpsServer::Start() {
  if (running_.load()) return Status::OK();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError("ops server: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("ops server: cannot bind 127.0.0.1:" +
                           std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("ops server: listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  bound_port_ = ntohs(addr.sin_port);

  running_.store(true);
  thread_ = std::thread([this] { Serve(); });
  DECO_LOG(INFO) << "ops server listening on http://127.0.0.1:"
                 << bound_port_ << " (/metrics /healthz /statusz)";
  return Status::OK();
}

void OpsServer::Stop() {
  if (!running_.exchange(false)) return;
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void OpsServer::Serve() {
  while (running_.load(std::memory_order_relaxed)) {
    pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    // 100 ms poll bound keeps Stop() responsive without busy-waiting.
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    HandleConnection(fd);
    ::close(fd);
  }
}

QuantileSketch OpsServer::ScrapeLatency() const {
  std::lock_guard<std::mutex> lock(self_mu_);
  return scrape_wall_nanos_;
}

FleetCapture OpsServer::Capture() const {
  const NetworkFabric* fabric = options_.fabric;
  const Sampler* sampler = options_.sampler;
  if (fabric != nullptr && sampler != nullptr) return sampler->Capture(*fabric);
  const TimeNanos now =
      options_.clock != nullptr ? options_.clock->NowNanos() : 0;
  if (fabric != nullptr) {
    return CaptureFleet(*fabric, ObsGovernance(), now, 0, nullptr,
                        /*advance=*/false);
  }
  FleetCapture empty;  // no fabric: only the clock and the policy to show
  empty.t_nanos = now;
  if (sampler != nullptr) empty.governance = sampler->governance();
  return empty;
}

void OpsServer::HandleConnection(int fd) {
  const auto wall_start = std::chrono::steady_clock::now();
  // Requests of interest are single-line GETs; 4 KiB is plenty.
  char buf[4096];
  size_t have = 0;
  while (have < sizeof(buf) - 1) {
    const ssize_t n = ::recv(fd, buf + have, sizeof(buf) - 1 - have, 0);
    if (n <= 0) break;
    have += static_cast<size_t>(n);
    buf[have] = '\0';
    if (std::strstr(buf, "\r\n\r\n") != nullptr) break;
  }
  if (have == 0) return;
  buf[have] = '\0';

  std::string method, path;
  {
    std::istringstream line(std::string(buf, have));
    line >> method >> path;
  }
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  std::string response;
  if (method != "GET") {
    response = HttpResponse(405, "Method Not Allowed", "text/plain",
                            "only GET is served\n");
  } else if (path == "/metrics") {
    response = HttpResponse(200, "OK", kPromContentType, RenderMetrics());
  } else if (path == "/healthz") {
    response =
        HttpResponse(200, "OK", "application/health+json", RenderHealthz());
  } else if (path == "/statusz") {
    response =
        HttpResponse(200, "OK", "application/json", RenderStatusz());
  } else if (path == "/") {
    response = HttpResponse(200, "OK", "text/plain",
                            "deco ops server\n"
                            "endpoints: /metrics /healthz /statusz\n");
  } else {
    response = HttpResponse(404, "Not Found", "text/plain",
                            "unknown path; try /metrics /healthz /statusz\n");
  }
  requests_.fetch_add(1, std::memory_order_relaxed);

  size_t sent = 0;
  while (sent < response.size()) {
    const ssize_t n =
        ::send(fd, response.data() + sent, response.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }

  // Self-metering: scrape latency = parse + render + socket write, on the
  // wall clock (the virtual clock stands still during a scrape).
  const double scrape_nanos = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  std::lock_guard<std::mutex> lock(self_mu_);
  scrape_wall_nanos_.Add(scrape_nanos);
}

std::string OpsServer::RenderMetrics() const {
  const FleetCapture capture = Capture();
  std::string out;
  out.reserve(1 << 14);

  out += "# HELP deco_time_nanos Current run clock (virtual under --sim).\n";
  out += "# TYPE deco_time_nanos gauge\n";
  out += "deco_time_nanos " + std::to_string(capture.t_nanos) + "\n";

  if (options_.registry != nullptr) {
    const MetricsSnapshot snapshot = options_.registry->Snapshot();
    for (const auto& [name, value] : snapshot.counters) {
      const std::string prom = PromName(name) + "_total";
      out += "# HELP " + prom + " Counter " + name + "\n";
      out += "# TYPE " + prom + " counter\n";
      out += prom + " " + std::to_string(value) + "\n";
    }
    for (const auto& [name, value] : snapshot.gauges) {
      const std::string prom = PromName(name);
      out += "# HELP " + prom + " Gauge " + name + "\n";
      out += "# TYPE " + prom + " gauge\n";
      out += prom + " " + std::to_string(value) + "\n";
    }
    for (const SketchSnapshot& s : snapshot.sketches) {
      const std::string prom = PromName(s.name);
      out += "# HELP " + prom + " Quantile sketch " + s.name + "\n";
      out += "# TYPE " + prom + " summary\n";
      AppendSummaryQuantiles(&out, prom, s.p50, s.p90, s.p99);
      out += prom + "_sum ";
      AppendPromValue(&out, s.sum);
      out += "\n";
      out += prom + "_count " + std::to_string(s.count) + "\n";
    }
  }

  if (options_.fabric != nullptr) {
    const NetworkFabric& fabric = *options_.fabric;
    const std::vector<NodeState>& nodes = capture.nodes;
    const FleetSample& fleet = capture.fleet;
    if (!fleet.collapsed) {
      const struct {
        const char* name;
        const char* help;
        uint64_t (*value)(const NodeState&);
      } kSeries[] = {
          {"deco_node_queue_depth", "Mailbox backlog per node.",
           [](const NodeState& s) { return s.queue_depth; }},
          {"deco_node_messages_sent", "Cumulative egress messages per node.",
           [](const NodeState& s) { return s.traffic.messages_sent; }},
          {"deco_node_bytes_sent", "Cumulative egress bytes per node.",
           [](const NodeState& s) { return s.traffic.bytes_sent; }},
          {"deco_node_messages_received",
           "Cumulative ingress messages per node.",
           [](const NodeState& s) { return s.traffic.messages_received; }},
          {"deco_node_down", "1 while the node is failed/down.",
           [](const NodeState& s) -> uint64_t { return s.down ? 1 : 0; }},
      };
      for (const auto& series : kSeries) {
        out += std::string("# HELP ") + series.name + " " + series.help + "\n";
        out += std::string("# TYPE ") + series.name + " gauge\n";
        for (NodeId id = 0; id < nodes.size(); ++id) {
          out += series.name;
          out += "{node=\"" + PromLabelValue(fabric.node_name(id)) + "\"} ";
          out += std::to_string(series.value(nodes[id])) + "\n";
        }
      }
    } else {
      // Cardinality governance (DESIGN.md §13): the per-node families
      // collapse into fleet summaries plus top-k offender series that keep
      // the per-node label shape.
      out += "# HELP deco_fleet_nodes Fleet size under cardinality "
             "governance.\n";
      out += "# TYPE deco_fleet_nodes gauge\n";
      out += "deco_fleet_nodes " + std::to_string(fleet.node_count) + "\n";
      out += "# HELP deco_fleet_nodes_down Nodes currently failed/down.\n";
      out += "# TYPE deco_fleet_nodes_down gauge\n";
      out += "deco_fleet_nodes_down " + std::to_string(fleet.nodes_down) +
             "\n";
      AppendFleetSummary(&out, "deco_fleet_queue_depth",
                         "Fleet mailbox backlog distribution.",
                         capture.queue_depth, fleet.queue_depth.sum);
      AppendFleetSummary(&out, "deco_fleet_messages_sent",
                         "Fleet egress message distribution.",
                         capture.messages_sent, fleet.total_messages_sent);
      AppendFleetSummary(&out, "deco_fleet_bytes_sent",
                         "Fleet egress byte distribution.",
                         capture.bytes_sent, fleet.total_bytes_sent);
      AppendFleetSummary(&out, "deco_fleet_messages_received",
                         "Fleet ingress message distribution.",
                         capture.messages_received,
                         fleet.total_messages_received);

      AppendOffenderSeries(&out, "deco_node_queue_depth",
                           "Mailbox backlog, top-k deepest offenders.",
                           fabric, capture.deepest,
                           [&](NodeId id) { return nodes[id].queue_depth; });
      AppendOffenderSeries(
          &out, "deco_node_bytes_sent",
          "Cumulative egress bytes, top-k heaviest offenders.", fabric,
          capture.heaviest,
          [&](NodeId id) { return nodes[id].traffic.bytes_sent; });
      if (options_.sampler != nullptr) {
        AppendOffenderSeries(
            &out, "deco_node_silent_for_nanos",
            "Nanoseconds since node egress last advanced, top-k stalest "
            "offenders.",
            fabric, capture.stalest,
            [&](NodeId id) { return capture.silent_for[id]; });
      }
    }
    out += "# HELP deco_fabric_dropped_total Messages dropped fabric-wide.\n";
    out += "# TYPE deco_fabric_dropped_total counter\n";
    out += "deco_fabric_dropped_total " +
           std::to_string(capture.total_dropped) + "\n";
  }

  if (options_.watchdog != nullptr) {
    out += "# HELP deco_watchdog_alerts_active Alerts currently firing.\n";
    out += "# TYPE deco_watchdog_alerts_active gauge\n";
    out += "deco_watchdog_alerts_active " +
           std::to_string(options_.watchdog->active_count()) + "\n";
    out += "# HELP deco_watchdog_alerts_fired_total Alerts fired so far.\n";
    out += "# TYPE deco_watchdog_alerts_fired_total counter\n";
    out += "deco_watchdog_alerts_fired_total " +
           std::to_string(options_.watchdog->fired_count()) + "\n";
  }

  // Self-metering family (DESIGN.md §13): the plane reports what the
  // plane costs. Sampler-side `deco_obs_self_sampler_*` instruments come
  // through the registry above; the scrape-side meters live here.
  out += "# HELP deco_obs_self_scrapes_total Ops endpoint requests "
         "served.\n";
  out += "# TYPE deco_obs_self_scrapes_total counter\n";
  out += "deco_obs_self_scrapes_total " + std::to_string(requests_served()) +
         "\n";
  {
    std::lock_guard<std::mutex> lock(self_mu_);
    out += "# HELP deco_obs_self_scrape_nanos Wall-clock scrape latency "
           "(parse + render + write).\n";
    out += "# TYPE deco_obs_self_scrape_nanos summary\n";
    AppendSummaryQuantiles(&out, "deco_obs_self_scrape_nanos",
                           scrape_wall_nanos_.Quantile(0.5),
                           scrape_wall_nanos_.Quantile(0.9),
                           scrape_wall_nanos_.Quantile(0.99));
    out += "deco_obs_self_scrape_nanos_sum ";
    AppendPromValue(&out, scrape_wall_nanos_.sum());
    out += "\n";
    out += "deco_obs_self_scrape_nanos_count " +
           std::to_string(scrape_wall_nanos_.count()) + "\n";
  }
  out += "# HELP deco_obs_self_exposition_bytes Bytes of the previous "
         "/metrics render.\n";
  out += "# TYPE deco_obs_self_exposition_bytes gauge\n";
  out += "deco_obs_self_exposition_bytes " +
         std::to_string(exposition_bytes_.load(std::memory_order_relaxed)) +
         "\n";
  exposition_bytes_.store(out.size(), std::memory_order_relaxed);
  return out;
}

namespace {

void AppendAlertJson(std::string* out, const Alert& alert) {
  *out += "{\"kind\":";
  JsonAppendString(out, std::string(AlertKindToString(alert.kind)));
  *out += ",\"subject\":";
  JsonAppendString(out, alert.subject);
  *out += ",\"fired_at_nanos\":";
  JsonAppendI64(out, alert.fired_at_nanos);
  *out += ",\"resolved_at_nanos\":";
  JsonAppendI64(out, alert.resolved_at_nanos);
  *out += ",\"observed\":";
  JsonAppendDouble(out, alert.observed);
  *out += ",\"threshold\":";
  JsonAppendDouble(out, alert.threshold);
  *out += ",\"message\":";
  JsonAppendString(out, alert.message);
  *out += "}";
}

}  // namespace

std::string OpsServer::RenderHealthz() const {
  // draft-inadarei-api-health-check shape: overall status plus a checks
  // map. Active stall/silence alerts mean the pipeline is wedged -> fail;
  // any other active alert or a down node degrades to warn.
  const FleetSample fleet = Capture().fleet;
  const uint64_t nodes_down = fleet.nodes_down;
  std::vector<Alert> alerts;
  size_t active = 0;
  bool wedged = false;
  if (options_.watchdog != nullptr) {
    alerts = options_.watchdog->Alerts();
    for (const Alert& alert : alerts) {
      if (alert.resolved_at_nanos != 0) continue;
      ++active;
      if (alert.kind == AlertKind::kWindowStall ||
          alert.kind == AlertKind::kHeartbeatSilence) {
        wedged = true;
      }
    }
  }
  const char* status =
      wedged ? "fail" : (active > 0 || nodes_down > 0) ? "warn" : "pass";

  std::string out = "{\"status\":";
  JsonAppendString(&out, status);
  out += ",\"version\":\"1\",\"description\":\"deco live ops plane\"";
  out += ",\"checks\":{\"fabric:nodes\":[{\"observedValue\":";
  JsonAppendU64(&out, fleet.node_count);
  out += ",\"observedUnit\":\"nodes\",\"status\":";
  JsonAppendString(&out, nodes_down == 0 ? "pass" : "warn");
  out += ",\"output\":";
  JsonAppendString(&out, std::to_string(nodes_down) + " down");
  out += "}],\"watchdog:alerts\":[{\"observedValue\":";
  JsonAppendU64(&out, active);
  out += ",\"observedUnit\":\"active alerts\",\"status\":";
  JsonAppendString(&out, active == 0 ? "pass" : (wedged ? "fail" : "warn"));
  out += "}]}";
  out += ",\"alerts\":[";
  bool first = true;
  for (const Alert& alert : alerts) {
    if (!first) out += ",";
    first = false;
    AppendAlertJson(&out, alert);
  }
  out += "]}\n";
  return out;
}

std::string OpsServer::RenderStatusz() const {
  const FleetCapture capture = Capture();
  std::string out = "{\"t_nanos\":";
  JsonAppendI64(&out, capture.t_nanos);
  out += ",\"sim\":";
  out += options_.sim ? "true" : "false";

  if (options_.registry != nullptr) {
    // The progress gauges the nodes maintain (root.next_window etc.) plus
    // every counter, so the scrape shows live pane/window movement.
    const MetricsSnapshot snapshot = options_.registry->Snapshot();
    out += ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : snapshot.counters) {
      if (!first) out += ",";
      first = false;
      JsonAppendString(&out, name);
      out += ":";
      JsonAppendI64(&out, value);
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, value] : snapshot.gauges) {
      if (!first) out += ",";
      first = false;
      JsonAppendString(&out, name);
      out += ":";
      JsonAppendI64(&out, value);
    }
    out += "}";
  }

  if (options_.fabric != nullptr) {
    const NetworkFabric& fabric = *options_.fabric;
    const FleetSample& fleet = capture.fleet;
    out += ",\"node_count\":";
    JsonAppendU64(&out, fleet.node_count);
    // Governed /statusz keeps the `nodes` table shape but fills it with
    // only the top-k offenders (deepest queues, most bytes, stalest),
    // plus fleet aggregates so the totals stay authoritative.
    if (fleet.collapsed) {
      out += ",\"nodes_truncated\":true,\"fleet\":{\"nodes_down\":";
      JsonAppendU64(&out, fleet.nodes_down);
      out += ",\"queue_depth\":{\"sum\":";
      JsonAppendU64(&out, fleet.queue_depth.sum);
      out += ",\"max\":";
      JsonAppendDouble(&out, fleet.queue_depth.max);
      out += ",\"p50\":";
      JsonAppendDouble(&out, fleet.queue_depth.p50);
      out += ",\"p99\":";
      JsonAppendDouble(&out, fleet.queue_depth.p99);
      out += "},\"bytes_sent\":{\"sum\":";
      JsonAppendU64(&out, fleet.bytes_sent.sum);
      out += ",\"max\":";
      JsonAppendDouble(&out, fleet.bytes_sent.max);
      out += ",\"p50\":";
      JsonAppendDouble(&out, fleet.bytes_sent.p50);
      out += ",\"p99\":";
      JsonAppendDouble(&out, fleet.bytes_sent.p99);
      out += "},\"messages_sent\":";
      JsonAppendU64(&out, fleet.total_messages_sent);
      out += ",\"messages_received\":";
      JsonAppendU64(&out, fleet.total_messages_received);
      out += "}";
      if (options_.sampler != nullptr) {
        const Sampler::Offenders offenders =
            options_.sampler->PersistentOffenders(capture.governance.top_k);
        const size_t n = capture.nodes.size();
        out += ",\"offenders\":{";
        AppendOffenderListJson(&out, "queue_depth", offenders.queue_depth,
                               fabric, n);
        out += ",";
        AppendOffenderListJson(&out, "bytes_sent", offenders.bytes_sent,
                               fabric, n);
        out += ",";
        AppendOffenderListJson(&out, "stale", offenders.stale, fabric, n);
        out += "}";
      }
    }
    out += ",\"nodes\":[";
    bool first_node = true;
    for (NodeId id : fleet.collapsed ? capture.offenders : capture.detail) {
      const NodeState& node = capture.nodes[id];
      if (!first_node) out += ",";
      first_node = false;
      out += "{\"id\":";
      JsonAppendU64(&out, id);
      out += ",\"name\":";
      JsonAppendString(&out, fabric.node_name(id));
      out += ",\"queue_depth\":";
      JsonAppendU64(&out, node.queue_depth);
      out += ",\"messages_sent\":";
      JsonAppendU64(&out, node.traffic.messages_sent);
      out += ",\"messages_received\":";
      JsonAppendU64(&out, node.traffic.messages_received);
      out += ",\"bytes_sent\":";
      JsonAppendU64(&out, node.traffic.bytes_sent);
      out += ",\"down\":";
      out += node.down ? "true" : "false";
      out += ",\"incarnation\":";
      JsonAppendU64(&out, node.incarnation);
      out += "}";
    }
    out += "]";
  }

  // Self-metering section (always present): what the plane itself costs.
  out += ",\"obs_self\":{\"scrapes\":";
  JsonAppendU64(&out, requests_served());
  out += ",\"exposition_bytes\":";
  JsonAppendU64(&out, last_exposition_bytes());
  if (options_.sampler != nullptr) {
    const SamplerSelfStats self = options_.sampler->SelfStats();
    out += ",\"sampler_ticks\":";
    JsonAppendU64(&out, self.ticks);
    out += ",\"sampler_tick_p50_nanos\":";
    JsonAppendDouble(&out, self.tick_nanos_p50);
    out += ",\"sampler_tick_p99_nanos\":";
    JsonAppendDouble(&out, self.tick_nanos_p99);
    out += ",\"tracker_bytes\":";
    JsonAppendU64(&out, self.tracker_bytes);
  }
  out += ",\"node_detail_limit\":";
  JsonAppendU64(&out, capture.governance.node_detail_limit);
  out += ",\"top_k\":";
  JsonAppendU64(&out, capture.governance.top_k);
  out += "}";

  if (options_.watchdog != nullptr) {
    out += ",\"alerts\":[";
    bool first = true;
    for (const Alert& alert : options_.watchdog->Alerts()) {
      if (!first) out += ",";
      first = false;
      AppendAlertJson(&out, alert);
    }
    out += "]";
  }

  if (options_.statusz_extra) {
    const std::string extra = options_.statusz_extra();
    if (!extra.empty()) {
      out += ",";
      out += extra;
    }
  }
  out += "}\n";
  return out;
}

StatusTicker::StatusTicker(TimeNanos interval_nanos,
                           std::function<std::string()> line)
    : interval_nanos_(std::max<TimeNanos>(interval_nanos, kNanosPerMilli)),
      line_(std::move(line)) {}

StatusTicker::~StatusTicker() { Stop(); }

void StatusTicker::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) return;
    running_ = true;
    stop_ = false;
  }
  thread_ = std::thread([this] { Loop(); });
}

void StatusTicker::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (cv_.wait_for(lock, std::chrono::nanoseconds(interval_nanos_),
                     [&] { return stop_; })) {
      break;
    }
    lock.unlock();
    std::fputs((line_() + "\n").c_str(), stderr);
    lock.lock();
  }
}

void StatusTicker::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    running_ = false;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::fputs((line_() + "\n").c_str(), stderr);
}

}  // namespace deco
