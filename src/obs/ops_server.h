#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "common/clock.h"
#include "common/status.h"
#include "net/fabric.h"
#include "obs/metric_registry.h"
#include "obs/quantile_sketch.h"
#include "obs/sampler.h"
#include "obs/watchdog.h"

/// \file ops_server.h
/// \brief Embedded live-ops HTTP server: `/metrics` (Prometheus text
/// exposition), `/healthz` (RFC-health JSON) and `/statusz` (per-node
/// progress JSON) rendered on demand. Each render formats one fresh fleet
/// capture (sampler.h `CaptureFleet`) plus the metric registry and the
/// watchdog. Own thread, blocking sockets, zero dependencies.
///
/// Every endpoint is a pure *read* of shared state — a scrape never
/// mutates the registry, advances the staleness watch, appends a telemetry
/// sample or schedules an event, so serving during a `--sim` run cannot
/// perturb the simulation: snapshots are simply stamped with the current
/// virtual time.
///
/// The serve registry and the chaos controller live in higher layers this
/// library must not link (DESIGN.md §14), so their `/statusz` sections
/// arrive through an opaque JSON-fragment callback wired by the harness.

namespace deco {

/// \brief Blocking-socket HTTP/1.1 server on its own thread.
class OpsServer {
 public:
  struct Options {
    /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port
    /// (`port()` reports the bound one).
    int port = 0;
    Clock* clock = nullptr;           ///< time source (virtual under --sim)
    NetworkFabric* fabric = nullptr;  ///< per-node state; may be null
    MetricRegistry* registry = nullptr;  ///< /metrics source; may be null
    Watchdog* watchdog = nullptr;     ///< alert state; may be null
    bool sim = false;                 ///< stamps /statusz snapshots
    /// The sampler the captures go through: its cardinality governance
    /// (DESIGN.md §13), its egress-staleness watch and its self-metering
    /// stats. May be null: captures then use the default `ObsGovernance`
    /// and carry no staleness.
    const Sampler* sampler = nullptr;
    /// Extra `/statusz` sections ("\"key\": {...}" fragments, comma-joined
    /// by the server) from layers this library cannot link.
    std::function<std::string()> statusz_extra;
  };

  explicit OpsServer(Options options);
  ~OpsServer();

  OpsServer(const OpsServer&) = delete;
  OpsServer& operator=(const OpsServer&) = delete;

  /// \brief Binds, listens and starts the serving thread.
  Status Start();

  /// \brief Stops the serving thread and closes the socket. Idempotent.
  void Stop();

  /// \brief The bound port (valid after a successful `Start`).
  int port() const { return bound_port_; }

  /// \brief Scrapes served so far.
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// \brief Bytes of the most recent `/metrics` render (self-metering).
  uint64_t last_exposition_bytes() const {
    return exposition_bytes_.load(std::memory_order_relaxed);
  }

  /// \brief Wall-clock scrape latency sketch (render + socket write).
  QuantileSketch ScrapeLatency() const;

  // Renderers are public so tests and the sim exporters can snapshot the
  // endpoints without a socket round-trip.
  std::string RenderMetrics() const;
  std::string RenderHealthz() const;
  std::string RenderStatusz() const;

 private:
  /// \brief The fresh capture one render formats.
  FleetCapture Capture() const;

  void Serve();
  void HandleConnection(int fd);

  Options options_;
  int listen_fd_ = -1;
  int bound_port_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> requests_{0};
  /// Self-metering: updated by renders/scrapes, never by the registry —
  /// a scrape still never mutates the registry or the sample series.
  mutable std::atomic<uint64_t> exposition_bytes_{0};
  mutable std::mutex self_mu_;
  mutable QuantileSketch scrape_wall_nanos_;
  std::thread thread_;
};

/// \brief One-line stderr heartbeat for runs without an ops port:
/// a wall-clock thread prints `line()` every interval. The line builder
/// only reads counters, so the ticker is safe under `--sim` too (its
/// output goes to stderr, never into deterministic artifacts).
class StatusTicker {
 public:
  StatusTicker(TimeNanos interval_nanos, std::function<std::string()> line);
  ~StatusTicker();

  void Start();
  void Stop();  ///< prints one final line; idempotent

 private:
  void Loop();

  TimeNanos interval_nanos_;
  std::function<std::string()> line_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace deco
