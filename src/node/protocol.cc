#include "node/protocol.h"

namespace deco {

void EncodeSliceSummary(const SliceSummary& summary, BinaryWriter* writer) {
  EncodePartial(summary.partial, writer);
  writer->PutU64(summary.event_count);
  writer->PutI64(summary.min_ts);
  writer->PutI64(summary.max_ts);
  writer->PutU32(summary.max_stream_id);
  writer->PutU64(summary.max_event_id);
  writer->PutDouble(summary.event_rate);
  writer->PutU32(static_cast<uint32_t>(summary.extras.size()));
  for (const SlotPartial& extra : summary.extras) {
    writer->PutU32(extra.slot);
    EncodePartial(extra.partial, writer);
  }
}

Result<SliceSummary> DecodeSliceSummary(BinaryReader* reader) {
  SliceSummary summary;
  DECO_ASSIGN_OR_RETURN(summary.partial, DecodePartial(reader));
  DECO_ASSIGN_OR_RETURN(summary.event_count, reader->GetU64());
  DECO_ASSIGN_OR_RETURN(summary.min_ts, reader->GetI64());
  DECO_ASSIGN_OR_RETURN(summary.max_ts, reader->GetI64());
  DECO_ASSIGN_OR_RETURN(summary.max_stream_id, reader->GetU32());
  DECO_ASSIGN_OR_RETURN(summary.max_event_id, reader->GetU64());
  DECO_ASSIGN_OR_RETURN(summary.event_rate, reader->GetDouble());
  DECO_ASSIGN_OR_RETURN(uint32_t num_extras, reader->GetU32());
  // Bound the count by the bytes left before allocating for it: no extra
  // is smaller than a slot id plus an empty partial.
  if (num_extras > reader->remaining() / SlotPartialWireSize(SlotPartial{})) {
    return Status::OutOfRange("slice extras count exceeds buffer");
  }
  summary.extras.reserve(num_extras);
  for (uint32_t i = 0; i < num_extras; ++i) {
    SlotPartial extra;
    DECO_ASSIGN_OR_RETURN(uint32_t slot, reader->GetU32());
    if (slot > UINT16_MAX) {
      return Status::InvalidArgument("slice extra slot id out of range");
    }
    extra.slot = static_cast<uint16_t>(slot);
    DECO_ASSIGN_OR_RETURN(extra.partial, DecodePartial(reader));
    summary.extras.push_back(std::move(extra));
  }
  return summary;
}

size_t SlotPartialWireSize(const SlotPartial& extra) {
  return sizeof(uint32_t) + extra.partial.WireSize();
}

void EncodeWindowAssignment(const WindowAssignment& assignment,
                            BinaryWriter* writer) {
  writer->PutU64(assignment.window_index);
  writer->PutU64(assignment.local_window_size);
  writer->PutU64(assignment.delta);
  writer->PutI64(assignment.size_adjust);
  writer->PutI64(assignment.wm_ts);
  writer->PutU32(assignment.wm_stream);
  writer->PutU64(assignment.wm_id);
}

Result<WindowAssignment> DecodeWindowAssignment(BinaryReader* reader) {
  WindowAssignment assignment;
  DECO_ASSIGN_OR_RETURN(assignment.window_index, reader->GetU64());
  DECO_ASSIGN_OR_RETURN(assignment.local_window_size, reader->GetU64());
  DECO_ASSIGN_OR_RETURN(assignment.delta, reader->GetU64());
  DECO_ASSIGN_OR_RETURN(assignment.size_adjust, reader->GetI64());
  DECO_ASSIGN_OR_RETURN(assignment.wm_ts, reader->GetI64());
  DECO_ASSIGN_OR_RETURN(assignment.wm_stream, reader->GetU32());
  DECO_ASSIGN_OR_RETURN(assignment.wm_id, reader->GetU64());
  return assignment;
}

void EncodeRateReport(const RateReport& report, BinaryWriter* writer) {
  writer->PutU64(report.window_index);
  writer->PutDouble(report.event_rate);
  writer->PutU64(report.stream_position);
  writer->PutU8(report.end_of_stream ? 1 : 0);
  writer->PutU64(report.incarnation);
}

Result<RateReport> DecodeRateReport(BinaryReader* reader) {
  RateReport report;
  DECO_ASSIGN_OR_RETURN(report.window_index, reader->GetU64());
  DECO_ASSIGN_OR_RETURN(report.event_rate, reader->GetDouble());
  DECO_ASSIGN_OR_RETURN(report.stream_position, reader->GetU64());
  DECO_ASSIGN_OR_RETURN(uint8_t eos, reader->GetU8());
  report.end_of_stream = eos != 0;
  DECO_ASSIGN_OR_RETURN(report.incarnation, reader->GetU64());
  return report;
}

void EncodeCorrectionRequest(const CorrectionRequest& request,
                             BinaryWriter* writer) {
  writer->PutU64(request.window_index);
  writer->PutU64(request.from_index);
  writer->PutU64(request.count);
  writer->PutI64(request.wm_ts);
  writer->PutU32(request.wm_stream);
  writer->PutU64(request.wm_id);
  writer->PutU64(request.round);
}

Result<CorrectionRequest> DecodeCorrectionRequest(BinaryReader* reader) {
  CorrectionRequest request;
  DECO_ASSIGN_OR_RETURN(request.window_index, reader->GetU64());
  DECO_ASSIGN_OR_RETURN(request.from_index, reader->GetU64());
  DECO_ASSIGN_OR_RETURN(request.count, reader->GetU64());
  DECO_ASSIGN_OR_RETURN(request.wm_ts, reader->GetI64());
  DECO_ASSIGN_OR_RETURN(request.wm_stream, reader->GetU32());
  DECO_ASSIGN_OR_RETURN(request.wm_id, reader->GetU64());
  DECO_ASSIGN_OR_RETURN(request.round, reader->GetU64());
  return request;
}

void EncodeCorrectionResponse(const CorrectionResponse& response,
                              BinaryWriter* writer) {
  writer->PutU64(response.window_index);
  writer->PutU64(response.from_offset);
  writer->PutU8(response.end_of_stream ? 1 : 0);
  writer->PutU64(response.round);
  writer->PutEvents(response.events);
}

Result<CorrectionResponse> DecodeCorrectionResponse(BinaryReader* reader) {
  CorrectionResponse response;
  DECO_ASSIGN_OR_RETURN(response.window_index, reader->GetU64());
  DECO_ASSIGN_OR_RETURN(response.from_offset, reader->GetU64());
  DECO_ASSIGN_OR_RETURN(uint8_t eos, reader->GetU8());
  response.end_of_stream = eos != 0;
  DECO_ASSIGN_OR_RETURN(response.round, reader->GetU64());
  DECO_ASSIGN_OR_RETURN(response.events, reader->GetEvents());
  return response;
}

void EncodeEventBatch(uint64_t from_offset, bool end_of_stream,
                      BatchRole role, std::span<const Event> events,
                      BinaryWriter* writer) {
  writer->PutU64(from_offset);
  writer->PutU8(end_of_stream ? 1 : 0);
  writer->PutU8(static_cast<uint8_t>(role));
  writer->PutEvents(events);
}

void EncodeEventBatch(const EventBatchPayload& batch, BinaryWriter* writer) {
  EncodeEventBatch(batch.from_offset, batch.end_of_stream, batch.role,
                   batch.events, writer);
}

Result<EventBatchPayload> DecodeEventBatch(BinaryReader* reader) {
  EventBatchPayload batch;
  DECO_ASSIGN_OR_RETURN(batch.from_offset, reader->GetU64());
  DECO_ASSIGN_OR_RETURN(uint8_t eos, reader->GetU8());
  batch.end_of_stream = eos != 0;
  DECO_ASSIGN_OR_RETURN(uint8_t role, reader->GetU8());
  if (role > static_cast<uint8_t>(BatchRole::kEnd)) {
    return Status::InvalidArgument("bad batch role byte");
  }
  batch.role = static_cast<BatchRole>(role);
  DECO_ASSIGN_OR_RETURN(batch.events, reader->GetEvents());
  return batch;
}

std::string EncodeEventBatchText(const EventBatchPayload& batch) {
  std::string out = "batch;from=" + std::to_string(batch.from_offset) +
                    ";eos=" + (batch.end_of_stream ? std::string("1")
                                                   : std::string("0")) +
                    "\n";
  out += EncodeEventsText(batch.events);
  return out;
}

Result<EventBatchPayload> DecodeEventBatchText(const std::string& text) {
  EventBatchPayload batch;
  const size_t newline = text.find('\n');
  if (newline == std::string::npos) {
    return Status::InvalidArgument("text batch missing header line");
  }
  const std::string header = text.substr(0, newline);
  if (header.rfind("batch;from=", 0) != 0) {
    return Status::InvalidArgument("text batch bad header: " + header);
  }
  const size_t eos_pos = header.find(";eos=");
  if (eos_pos == std::string::npos) {
    return Status::InvalidArgument("text batch header missing eos");
  }
  batch.from_offset =
      std::strtoull(header.c_str() + std::string("batch;from=").size(),
                    nullptr, 10);
  batch.end_of_stream = header[eos_pos + 5] == '1';
  DECO_ASSIGN_OR_RETURN(batch.events,
                        DecodeEventsText(text.substr(newline + 1)));
  return batch;
}

}  // namespace deco
