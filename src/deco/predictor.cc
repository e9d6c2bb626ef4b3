#include "deco/predictor.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace deco {
namespace {

// Share of global windows allowed to need a correction when the slack is
// sized for the fleet.
constexpr double kFleetMissTarget = 0.05;

}  // namespace

LocalWindowPredictor::LocalWindowPredictor(size_t history_m,
                                           uint64_t delta_floor,
                                           double delta_multiplier)
    : history_m_(std::max<size_t>(1, history_m)),
      delta_floor_(std::max<uint64_t>(1, delta_floor)),
      delta_multiplier_(std::max(1.0, delta_multiplier)) {}

void LocalWindowPredictor::ObserveActual(uint64_t actual_size) {
  if (observations_ >= 1) {
    const uint64_t delta = actual_size > last_actual_
                               ? actual_size - last_actual_
                               : last_actual_ - actual_size;
    recent_deltas_.push_back(delta);
    delta_sum_ += delta;
    if (recent_deltas_.size() > history_m_) {
      delta_sum_ -= recent_deltas_.front();
      recent_deltas_.pop_front();
    }
  }
  prev_actual_ = last_actual_;
  last_actual_ = actual_size;
  ++observations_;
}

uint64_t LocalWindowPredictor::Delta() const {
  if (recent_deltas_.empty()) return delta_floor_;
  const double avg = static_cast<double>(delta_sum_) /
                     static_cast<double>(recent_deltas_.size());
  return std::max(delta_floor_,
                  static_cast<uint64_t>(avg * delta_multiplier_ + 0.5));
}

double FleetDeltaMultiplier(size_t num_locals) {
  // Upper-tail normal quantile: the z with 0.5 * erfc(z / sqrt2) = tail,
  // by bisection (the tail falls monotonically in z).
  const double n = static_cast<double>(std::max<size_t>(1, num_locals));
  const double tail = kFleetMissTarget / (2.0 * n);
  double lo = 0.0;
  double hi = 40.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (0.5 * std::erfc(mid / std::numbers::sqrt2) > tail) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::sqrt(std::numbers::pi / 2.0) * 0.5 * (lo + hi);
}

}  // namespace deco
