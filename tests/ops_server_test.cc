// Ops server tests: a real loopback HTTP client GETs /metrics, /healthz
// and /statusz from a running server and checks status lines, content
// types and body shape (Prometheus exposition lines, health JSON fields,
// per-node status entries). The render methods are also exercised
// directly so failures localize.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/clock.h"
#include "net/fabric.h"
#include "obs/metric_registry.h"
#include "obs/ops_server.h"
#include "obs/sampler.h"
#include "obs/watchdog.h"

namespace deco {
namespace {

/// Minimal blocking HTTP/1.0 GET against 127.0.0.1:port; returns the raw
/// response (status line + headers + body), empty string on failure.
std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  if (::send(fd, request.data(), request.size(), 0) < 0) {
    ::close(fd);
    return "";
  }
  std::string response;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

class OpsServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fabric_ = std::make_unique<NetworkFabric>(&clock_);
    root_ = fabric_->RegisterNode("root");
    local_ = fabric_->RegisterNode("local-0");
    registry_.counter("root.windows_emitted")->Add(7);
    registry_.gauge("root.next_window")->Set(7);
    registry_.sketch("assemble.latency")->Observe(1000);

    OpsServer::Options options;
    options.port = 0;  // ephemeral
    options.clock = &clock_;
    options.fabric = fabric_.get();
    options.registry = &registry_;
    options.watchdog = &watchdog_;
    options.statusz_extra = [] {
      return std::string("\"serving\": {\"enabled\": false}");
    };
    server_ = std::make_unique<OpsServer>(options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override { server_->Stop(); }

  SystemClock clock_;
  MetricRegistry registry_;
  Watchdog watchdog_{WatchdogOptions()};
  std::unique_ptr<NetworkFabric> fabric_;
  NodeId root_ = 0;
  NodeId local_ = 0;
  std::unique_ptr<OpsServer> server_;
};

TEST_F(OpsServerTest, MetricsEndpointServesPrometheusText) {
  const std::string response = HttpGet(server_->port(), "/metrics");
  ASSERT_FALSE(response.empty());
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  // Counter with _total suffix, HELP/TYPE headers, gauge, sketch summary
  // and the per-node series.
  EXPECT_NE(response.find("# TYPE deco_root_windows_emitted_total counter"),
            std::string::npos);
  EXPECT_NE(response.find("deco_root_windows_emitted_total 7"),
            std::string::npos);
  EXPECT_NE(response.find("deco_root_next_window 7"), std::string::npos);
  EXPECT_NE(response.find("# TYPE deco_assemble_latency summary"),
            std::string::npos);
  EXPECT_NE(response.find("deco_assemble_latency_count 1"),
            std::string::npos);
  EXPECT_NE(response.find("deco_node_queue_depth{node=\"root\"}"),
            std::string::npos);
  EXPECT_NE(response.find("deco_node_queue_depth{node=\"local-0\"}"),
            std::string::npos);
}

TEST_F(OpsServerTest, HealthzReportsPassOnCleanFabric) {
  const std::string response = HttpGet(server_->port(), "/healthz");
  ASSERT_FALSE(response.empty());
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/health+json"), std::string::npos);
  EXPECT_NE(response.find("\"status\":\"pass\""), std::string::npos);
  EXPECT_NE(response.find("\"fabric:nodes\""), std::string::npos);
  EXPECT_NE(response.find("\"watchdog:alerts\""), std::string::npos);
  EXPECT_NE(response.find("\"alerts\":[]"), std::string::npos);
}

TEST_F(OpsServerTest, StatuszListsNodesAndExtraFragment) {
  const std::string response = HttpGet(server_->port(), "/statusz");
  ASSERT_FALSE(response.empty());
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"name\":\"root\""), std::string::npos);
  EXPECT_NE(response.find("\"name\":\"local-0\""), std::string::npos);
  EXPECT_NE(response.find("\"root.windows_emitted\":7"), std::string::npos);
  // The harness-injected fragment (serving/chaos state) rides along.
  EXPECT_NE(response.find("\"serving\": {\"enabled\": false}"),
            std::string::npos);
}

TEST_F(OpsServerTest, UnknownPathIs404AndPostIs405) {
  EXPECT_NE(HttpGet(server_->port(), "/nope").find("404"),
            std::string::npos);
  // Raw POST request.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = "POST /metrics HTTP/1.0\r\n\r\n";
  ASSERT_GT(::send(fd, request.data(), request.size(), 0), 0);
  std::string response;
  char buf[1024];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("405"), std::string::npos);
}

TEST_F(OpsServerTest, QueryStringIsIgnoredAndRequestsAreCounted) {
  const uint64_t before = server_->requests_served();
  const std::string response =
      HttpGet(server_->port(), "/metrics?debug=1");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_GT(server_->requests_served(), before);
}

TEST_F(OpsServerTest, ActiveAlertSurfacesInHealthzAndMetrics) {
  // Drive the watchdog into an active queue-growth alert by hand.
  WatchdogOptions options;
  options.queue_depth_limit = 10;
  options.trip_ticks = 1;
  Watchdog tripped(options, &registry_);
  TelemetrySample sample;
  sample.t_nanos = kNanosPerSecond;
  NodeSample node;
  node.name = "local-0";
  node.messages_sent = 1;
  sample.nodes.push_back(node);
  tripped.OnSample(sample);  // seed
  sample.t_nanos += kNanosPerSecond;
  sample.nodes[0].queue_depth = 500;
  sample.nodes[0].messages_sent = 2;
  tripped.OnSample(sample);
  ASSERT_EQ(tripped.active_count(), 1u);

  OpsServer::Options server_options;
  server_options.port = 0;
  server_options.clock = &clock_;
  server_options.fabric = fabric_.get();
  server_options.registry = &registry_;
  server_options.watchdog = &tripped;
  OpsServer alerting(server_options);
  ASSERT_TRUE(alerting.Start().ok());

  const std::string health = HttpGet(alerting.port(), "/healthz");
  EXPECT_NE(health.find("\"status\":\"warn\""), std::string::npos)
      << health;
  EXPECT_NE(health.find("queue-growth"), std::string::npos);

  const std::string metrics = HttpGet(alerting.port(), "/metrics");
  EXPECT_NE(metrics.find("deco_watchdog_alerts_active 1"),
            std::string::npos);
  alerting.Stop();
}

/// The unsigned integer that follows the first `key` at or after `from`.
uint64_t NumberAfter(const std::string& text, const std::string& key,
                     size_t from = 0) {
  const size_t pos = text.find(key, from);
  EXPECT_NE(pos, std::string::npos) << "missing " << key;
  if (pos == std::string::npos) return 0;
  return std::stoull(text.substr(pos + key.size()));
}

/// Node ids of one offender series in an exposition, in series order
/// (`<family>{node="node-<id>"} <value>` lines).
std::vector<NodeId> SeriesIds(const std::string& exposition,
                              const std::string& family) {
  std::vector<NodeId> ids;
  const std::string prefix = family + "{node=\"node-";
  size_t pos = 0;
  while ((pos = exposition.find("\n" + prefix, pos)) != std::string::npos) {
    pos += 1 + prefix.size();
    ids.push_back(static_cast<NodeId>(std::stoul(exposition.substr(pos))));
  }
  return ids;
}

/// The k largest values' indices, ties toward the lower index.
std::vector<NodeId> TopK(const std::vector<uint64_t>& values, size_t k) {
  std::vector<NodeId> ids(values.size());
  for (NodeId id = 0; id < ids.size(); ++id) ids[id] = id;
  std::stable_sort(ids.begin(), ids.end(), [&](NodeId a, NodeId b) {
    return values[a] > values[b];
  });
  ids.resize(k);
  return ids;
}

// Above the detail limit every surface formats the same governed capture:
// the sample, /metrics, /statusz and /healthz taken at one clock reading
// agree on the fleet totals, on the deepest, heaviest and stalest nodes
// and on the nodes down.
TEST(OpsServerGovernedTest, SurfacesAgreeOnOneCapture) {
  constexpr size_t kNodes = 100;
  ManualClock clock(kNanosPerMilli);
  NetworkFabric fabric(&clock);
  for (size_t i = 0; i < kNodes; ++i) {
    fabric.RegisterNode("node-" + std::to_string(i));
  }
  // Node i sends i messages of i bytes to a distinct peer, so queue
  // depths and egress bytes are distinct across the fleet.
  for (NodeId i = 0; i < kNodes; ++i) {
    for (NodeId m = 0; m < i; ++m) {
      Message msg;
      msg.src = i;
      msg.dst = (i * 37 + 11) % kNodes;
      msg.payload.assign(i, 'x');
      ASSERT_TRUE(fabric.Send(std::move(msg)).ok());
    }
  }
  MetricRegistry registry;
  ObsGovernance governance;
  governance.node_detail_limit = 16;
  governance.top_k = 4;
  Sampler sampler(&clock, &fabric, &registry, kNanosPerMilli);
  sampler.SetGovernance(governance);
  sampler.SampleNow();  // seeds the staleness watch
  // Only nodes 0-9 send between the ticks: the rest go stale.
  clock.Advance(kNanosPerMilli);
  for (NodeId i = 0; i < 10; ++i) {
    Message msg;
    msg.src = i;
    msg.dst = kNodes - 1;
    ASSERT_TRUE(fabric.Send(std::move(msg)).ok());
  }
  ASSERT_TRUE(fabric.SetNodeDown(40, true).ok());
  ASSERT_TRUE(fabric.SetNodeDown(77, true).ok());
  const TelemetrySample sample = sampler.SampleNow();

  OpsServer::Options options;
  options.clock = &clock;
  options.fabric = &fabric;
  options.registry = &registry;
  options.sampler = &sampler;
  const OpsServer server(options);
  const std::string metrics = server.RenderMetrics();
  const std::string statusz = server.RenderStatusz();
  const std::string healthz = server.RenderHealthz();

  // What the fabric holds, computed without the capture.
  std::vector<uint64_t> depths(kNodes), bytes(kNodes);
  uint64_t depth_sum = 0, sent_sum = 0, bytes_sum = 0, received_sum = 0;
  for (NodeId id = 0; id < kNodes; ++id) {
    const NodeTrafficStats traffic = fabric.node_stats(id);
    depths[id] = fabric.queue_depth(id);
    bytes[id] = traffic.bytes_sent;
    depth_sum += depths[id];
    sent_sum += traffic.messages_sent;
    bytes_sum += traffic.bytes_sent;
    received_sum += traffic.messages_received;
  }
  const std::vector<NodeId> deepest = TopK(depths, 4);
  const std::vector<NodeId> heaviest = TopK(bytes, 4);
  const std::vector<NodeId> stalest = {10, 11, 12, 13};

  // One clock reading.
  EXPECT_EQ(NumberAfter(metrics, "\ndeco_time_nanos "),
            static_cast<uint64_t>(sample.t_nanos));
  EXPECT_EQ(NumberAfter(statusz, "\"t_nanos\":"),
            static_cast<uint64_t>(sample.t_nanos));

  // Fleet totals.
  ASSERT_TRUE(sample.fleet.collapsed);
  EXPECT_EQ(sample.fleet.queue_depth.sum, depth_sum);
  EXPECT_EQ(sample.fleet.total_messages_sent, sent_sum);
  EXPECT_EQ(sample.fleet.total_bytes_sent, bytes_sum);
  EXPECT_EQ(sample.fleet.total_messages_received, received_sum);
  EXPECT_EQ(NumberAfter(metrics, "\ndeco_fleet_queue_depth_sum "), depth_sum);
  EXPECT_EQ(NumberAfter(metrics, "\ndeco_fleet_messages_sent_sum "),
            sent_sum);
  EXPECT_EQ(NumberAfter(metrics, "\ndeco_fleet_bytes_sent_sum "), bytes_sum);
  EXPECT_EQ(NumberAfter(metrics, "\ndeco_fleet_messages_received_sum "),
            received_sum);
  const size_t fleet = statusz.find("\"fleet\":{");
  ASSERT_NE(fleet, std::string::npos) << statusz;
  EXPECT_EQ(NumberAfter(statusz, "\"queue_depth\":{\"sum\":", fleet),
            depth_sum);
  EXPECT_EQ(NumberAfter(statusz, "\"bytes_sent\":{\"sum\":", fleet),
            bytes_sum);
  EXPECT_EQ(NumberAfter(statusz, "\"messages_sent\":", fleet), sent_sum);
  EXPECT_EQ(NumberAfter(statusz, "\"messages_received\":", fleet),
            received_sum);

  // Deepest, heaviest and stalest: the offender series, the /statusz
  // node table and the sample's detail rows.
  EXPECT_EQ(SeriesIds(metrics, "deco_node_queue_depth"), deepest);
  EXPECT_EQ(SeriesIds(metrics, "deco_node_bytes_sent"), heaviest);
  EXPECT_EQ(SeriesIds(metrics, "deco_node_silent_for_nanos"), stalest);
  EXPECT_NE(metrics.find("deco_node_silent_for_nanos{node=\"node-10\"} " +
                         std::to_string(kNanosPerMilli) + "\n"),
            std::string::npos);
  std::vector<NodeId> offenders = deepest;
  offenders.insert(offenders.end(), heaviest.begin(), heaviest.end());
  offenders.insert(offenders.end(), stalest.begin(), stalest.end());
  std::sort(offenders.begin(), offenders.end());
  offenders.erase(std::unique(offenders.begin(), offenders.end()),
                  offenders.end());
  std::vector<NodeId> table;
  for (size_t pos = statusz.find("\"nodes\":[");
       (pos = statusz.find("{\"id\":", pos)) != std::string::npos;) {
    table.push_back(static_cast<NodeId>(NumberAfter(statusz, "{\"id\":", pos)));
    pos += 1;
  }
  EXPECT_EQ(table, offenders);
  std::vector<NodeId> detailed;
  for (const NodeSample& node : sample.nodes) detailed.push_back(node.node);
  for (NodeId id : offenders) {
    EXPECT_TRUE(std::binary_search(detailed.begin(), detailed.end(), id))
        << "offender " << id << " missing from the sample's detail rows";
  }
  EXPECT_LT(sample.nodes.size(), kNodes);
  EXPECT_EQ(sample.fleet.detail_nodes, sample.nodes.size());

  // Nodes down.
  EXPECT_EQ(sample.fleet.nodes_down, 2u);
  EXPECT_EQ(NumberAfter(metrics, "\ndeco_fleet_nodes_down "), 2u);
  EXPECT_EQ(NumberAfter(statusz, "\"nodes_down\":", fleet), 2u);
  EXPECT_NE(healthz.find("\"output\":\"2 down\""), std::string::npos)
      << healthz;
  EXPECT_NE(healthz.find("\"observedValue\":100,"), std::string::npos)
      << healthz;
  fabric.Shutdown();
}

TEST_F(OpsServerTest, StopIsIdempotentAndPortCloses) {
  const int port = server_->port();
  server_->Stop();
  server_->Stop();
  EXPECT_TRUE(HttpGet(port, "/metrics").empty());
}

}  // namespace
}  // namespace deco
