#include "baseline/forwarding_local.h"

namespace deco {

ForwardingLocalNode::ForwardingLocalNode(NetworkFabric* fabric, NodeId id,
                                         Clock* clock, RunContext* run,
                                         const Topology& topology,
                                         const IngestConfig& ingest,
                                         WireFormat format)
    : Actor(fabric, id, clock, run),
      topology_(topology),
      ingest_config_(ingest),
      format_(format) {}

Status ForwardingLocalNode::Run() {
  IngestSource source(ingest_config_, clock_);
  EventVec batch;
  while (!stop_requested()) {
    batch.clear();
    TimeNanos create_time = 0;
    const uint64_t from_offset = source.position();
    const size_t pulled =
        source.Pull(ingest_config_.batch_size, &batch, &create_time);
    metrics()->counter("local.events_ingested")->Add(
        static_cast<int64_t>(pulled));
    const bool eos = source.exhausted();

    EventBatchPayload payload;
    payload.from_offset = from_offset;
    payload.end_of_stream = eos;
    payload.events = std::move(batch);

    Message msg;
    msg.type = MessageType::kEventBatch;
    msg.dst = topology_.root;
    if (format_ == WireFormat::kBinary) {
      BinaryWriter writer;
      EncodeEventBatch(payload, &writer);
      msg.payload = writer.Release();
    } else {
      msg.payload = EncodeEventBatchText(payload);
    }
    msg.MergeLatencyMeta(static_cast<double>(create_time), pulled);
    DECO_RETURN_NOT_OK(SendRetryingCrash(std::move(msg)));
    batch = std::move(payload.events);  // reuse capacity (moved-from is ok)
    if (eos) break;
  }
  return Status::OK();
}

}  // namespace deco
