#pragma once

#include <map>
#include <memory>
#include <optional>

#include "metrics/report.h"
#include "node/actor.h"
#include "node/ingest.h"
#include "node/protocol.h"
#include "node/query.h"
#include "node/topology.h"

/// \file approx.h
/// \brief The approximate decentralized baseline (paper §4.1, "Approx"):
/// local window sizes are derived from event rates *once* and reused for
/// every global window. The fastest possible scheme — one up-flow per
/// window, no raw events, no verification — but it produces incorrect
/// windows as soon as event rates drift (Fig. 10d).

namespace deco {

class ProvenanceTracker;

/// \brief Approx local node: reports its rate once, then endlessly
/// aggregates fixed-size local windows and ships only partials.
class ApproxLocalNode final : public Actor {
 public:
  ApproxLocalNode(NetworkFabric* fabric, NodeId id, Clock* clock,
                  RunContext* run, const Topology& topology,
                  const IngestConfig& ingest, const QueryConfig& query);

 protected:
  Status Run() override;

 private:
  Topology topology_;
  IngestConfig ingest_config_;
  QueryConfig query_;
};

/// \brief Approx root: apportions the global window once from the initial
/// rate reports, then merges one partial per local node per window.
class ApproxRoot final : public Actor {
 public:
  ApproxRoot(NetworkFabric* fabric, NodeId id, Clock* clock,
             RunContext* run, const Topology& topology,
             const QueryConfig& query, RunReport* report);

  /// \brief Provenance collection point (src/obs/provenance.h); may be
  /// null (the default — no recording). Not owned. Approx ships exactly
  /// one partial per node per window, so `regions_per_window` is 1.
  void set_provenance(ProvenanceTracker* tracker) { provenance_ = tracker; }

 protected:
  Status Run() override;

 private:
  Status BroadcastAssignments(const std::vector<double>& rates);
  Status HandlePartial(const Message& msg);
  void TryEmitWindows();

  Topology topology_;
  QueryConfig query_;
  RunReport* report_;
  std::unique_ptr<AggregateFunction> func_;
  std::vector<uint64_t> shares_;

  struct PendingWindow {
    std::vector<std::optional<SliceSummary>> parts;
    size_t received = 0;
    // Latency side-channel: weighted mean creation time of covered events.
    double create_mean = 0.0;
    uint64_t create_count = 0;
  };
  std::map<uint64_t, PendingWindow> pending_;
  uint64_t next_window_ = 0;
  size_t eos_count_ = 0;
  ProvenanceTracker* provenance_ = nullptr;
  // Causal id of the partial being processed; emit spans carry it.
  uint64_t causal_msg_id_ = 0;
};

}  // namespace deco
