#include "net/message.h"

namespace deco {

const char* MessageTypeToString(MessageType type) {
  switch (type) {
    case MessageType::kEventBatch:
      return "event-batch";
    case MessageType::kPartialResult:
      return "partial-result";
    case MessageType::kEventRate:
      return "event-rate";
    case MessageType::kWindowAssignment:
      return "window-assignment";
    case MessageType::kCorrectionRequest:
      return "correction-request";
    case MessageType::kCorrectionResult:
      return "correction-result";
    case MessageType::kQueryConfig:
      return "query-config";
    case MessageType::kRateExchange:
      return "rate-exchange";
    case MessageType::kShutdown:
      return "shutdown";
    case MessageType::kRejoin:
      return "rejoin";
  }
  return "unknown";
}

}  // namespace deco
