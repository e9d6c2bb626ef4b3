#include "stream/rate_model.h"

#include <algorithm>
#include <cmath>

namespace deco {
namespace {

// Rates below this floor would stall event time; the 100% change sweep in
// the paper's Fig. 10 can draw rates arbitrarily close to zero otherwise.
constexpr double kMinRate = 1e-3;

}  // namespace

Status RateModelConfig::Validate() const {
  if (!(base_rate > 0.0)) {
    return Status::InvalidArgument("base_rate must be positive");
  }
  if (change_fraction < 0.0) {
    return Status::InvalidArgument("change_fraction must be non-negative");
  }
  if (epoch_events == 0) {
    return Status::InvalidArgument("epoch_events must be positive");
  }
  return Status::OK();
}

RateModel::RateModel(const RateModelConfig& config, uint64_t seed)
    : config_(config), rng_(seed), rate_(config.base_rate) {
  Redraw();
}

void RateModel::Redraw() {
  const double lo = config_.base_rate * (1.0 - config_.change_fraction);
  const double hi = config_.base_rate * (1.0 + config_.change_fraction);
  rate_ = std::max(kMinRate, rng_.NextDouble(lo, hi));
  const double gap = static_cast<double>(kNanosPerSecond) / rate_;
  gap_nanos_ =
      std::max<TimeNanos>(1, static_cast<TimeNanos>(std::llround(gap)));
}

}  // namespace deco
