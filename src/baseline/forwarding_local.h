#pragma once

#include <memory>

#include "node/actor.h"
#include "node/ingest.h"
#include "node/protocol.h"
#include "node/topology.h"

/// \file forwarding_local.h
/// \brief Local node of the centralized baselines (Central, Scotty, Disco):
/// forwards every raw event to the root, performing no aggregation
/// (paper §3: "In centralized aggregation, the local nodes only forward the
/// raw events to the root").

namespace deco {

/// \brief Wire format used by a forwarding local node.
enum class WireFormat : uint8_t {
  kBinary = 0,  ///< compact little-endian (Central, Scotty)
  kText = 1,    ///< verbose strings (Disco; paper §5.1 network discussion)
};

/// \brief Raw-event forwarder.
class ForwardingLocalNode final : public Actor {
 public:
  ForwardingLocalNode(NetworkFabric* fabric, NodeId id, Clock* clock,
                      RunContext* run, const Topology& topology,
                      const IngestConfig& ingest, WireFormat format);

 protected:
  Status Run() override;

 private:
  Topology topology_;
  IngestConfig ingest_config_;
  WireFormat format_;
};

}  // namespace deco
