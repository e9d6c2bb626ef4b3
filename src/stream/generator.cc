#include "stream/generator.h"

#include <cmath>

namespace deco {

double SensorValueModel::ValueAt(EventTime t) {
  const double seconds =
      static_cast<double>(t) / static_cast<double>(kNanosPerSecond);
  const double base =
      config_.amplitude *
      std::sin(2.0 * M_PI * seconds / config_.period_seconds + config_.phase);
  return base + config_.noise_stddev * rng_.NextGaussian();
}

StreamSource::StreamSource(const StreamConfig& config)
    : config_(config),
      rate_(config.rate, config.seed),
      value_(config.value, config.seed ^ 0x9e3779b97f4a7c15ULL),
      now_(config.start_time) {}

Event StreamSource::Next() {
  now_ += rate_.NextGapNanos();
  Event e;
  e.id = next_id_++;
  e.stream_id = config_.stream_id;
  e.timestamp = now_;
  e.value = value_.ValueAt(now_);
  return e;
}

void StreamSource::NextBlock(size_t n, Event* out, double* rates) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = Next();
    rates[i] = rate_.current_rate();
  }
}

}  // namespace deco
