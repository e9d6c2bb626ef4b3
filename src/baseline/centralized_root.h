#pragma once

#include <deque>
#include <memory>
#include <thread>

#include "common/queue.h"

#include "baseline/root_merger.h"
#include "metrics/report.h"
#include "node/actor.h"
#include "node/protocol.h"
#include "node/query.h"
#include "node/topology.h"

/// \file centralized_root.h
/// \brief Root node of the three centralized baselines (paper §5,
/// "Evaluated Approaches"):
///
///  - **Central**: collects raw events into the window and "executes
///    aggregation functions individually for all events, once the window
///    ends" — buffered, non-incremental, with the window-model stable sort
///    at the edge. Analog of stock Flink/Spark count windows.
///  - **Scotty**: same raw-event ingest but *incremental* aggregation via
///    the stream-slicing windower, sharing partials between concurrent
///    (sliding) windows.
///  - **Disco**: like Scotty but decodes the verbose text wire format on
///    its single processing thread, reproducing Disco's lower throughput
///    and higher network cost.
///
/// All three merge the per-node FIFO streams into the deterministic global
/// order, which makes Central the correctness ground truth.

namespace deco {

class ProvenanceTracker;

enum class CentralizedMode : uint8_t {
  kCentral = 0,
  kScotty = 1,
  kDisco = 2,
};

/// \brief Centralized window-aggregation root.
class CentralizedRoot final : public Actor {
 public:
  /// \param report output record; filled on the actor thread, must only be
  ///        read after `Join`. Not owned.
  CentralizedRoot(NetworkFabric* fabric, NodeId id, Clock* clock,
                  RunContext* run, const Topology& topology,
                  const QueryConfig& query, CentralizedMode mode,
                  RunReport* report);

  /// \brief Provenance collection point (src/obs/provenance.h); may be
  /// null (the default — no recording). Not owned. The centralized
  /// baselines have no per-window protocol regions, so each emitted
  /// window gets a synthesized record covering the nodes that actually
  /// contributed events to it.
  void set_provenance(ProvenanceTracker* tracker) { provenance_ = tracker; }

 protected:
  Status Run() override;

 private:
  /// Scotty mode: a dedicated thread decodes incoming batches while the
  /// main thread merges and aggregates ("Scotty's approach uses separate
  /// threads to send, receive, and process events", paper §5.1).
  Status RunPipelined();

  /// Queues a received batch, still encoded, behind its local's others.
  Status HandleBatch(Message msg);
  /// Decodes `node`'s queued batches into the merge until one holds
  /// events or none is left.
  Status DecodeNext(size_t node);
  Status DrainMerger();
  Status ProcessEventBuffered(const Event& event, double create_nanos,
                              size_t from_node);
  Status ProcessEventIncremental(const Event& event, double create_nanos,
                                 size_t from_node);
  void EmitWindow(double value, uint64_t event_count, double mean_create,
                  EventTime end_ts);

  Topology topology_;
  QueryConfig query_;
  CentralizedMode mode_;
  RunReport* report_;

  std::unique_ptr<AggregateFunction> func_;
  RootMerger merger_;
  // Each local's received batches not yet in the merge, still encoded: a
  // local's next batch is decoded only once the merge has drained its
  // previous one. A local ships its throttle credit in one burst, which
  // decoded on receipt would wait in the merge as 32-byte events for a
  // slower local.
  std::vector<std::deque<Message>> encoded_;

  // Buffered (Central) path.
  EventVec window_buffer_;

  // Incremental (Scotty/Disco) path.
  std::unique_ptr<Windower> windower_;
  std::vector<WindowResult> closed_;

  // Shared per-open-window accounting (exact for tumbling windows).
  double create_sum_ = 0.0;
  uint64_t open_events_ = 0;
  std::vector<uint64_t> node_counts_;
  size_t eos_count_ = 0;
  ProvenanceTracker* provenance_ = nullptr;
  // Causal id of the batch being processed; emit spans carry it so the
  // critical-path analyzer can identify the hop that closed the window.
  uint64_t causal_msg_id_ = 0;
};

}  // namespace deco
