#include "node/ingest.h"

#include <algorithm>

namespace deco {

IngestSource::IngestSource(const IngestConfig& config, Clock* clock)
    : config_(config), clock_(clock), streams_(config.streams) {
  if (config_.cpu_events_per_sec > 0) {
    throttle_ =
        std::make_unique<TokenBucket>(config_.cpu_events_per_sec, clock_);
  }
}

size_t IngestSource::Pull(size_t n, EventVec* out,
                          TimeNanos* create_wall_nanos) {
  const uint64_t left = config_.events_to_produce - produced_;
  const size_t take = static_cast<size_t>(
      std::min<uint64_t>(n, left));
  if (take == 0) {
    *create_wall_nanos = clock_->NowNanos();
    return 0;
  }
  if (throttle_ != nullptr) {
    // A surge multiplier > 1 means the device is asked for more events per
    // wall second, i.e. each event costs proportionally fewer throttle
    // tokens.
    const double mult = multiplier();
    const auto cost = static_cast<uint64_t>(
        std::max(1.0, static_cast<double>(take) / std::max(mult, 1e-9)));
    throttle_->AcquireBlocking(cost);
  }
  *create_wall_nanos = clock_->NowNanos();
  streams_.NextBatch(take, out);
  produced_ += take;
  return take;
}

}  // namespace deco
