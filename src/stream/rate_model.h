#pragma once

#include <cstdint>

#include "common/clock.h"
#include "common/random.h"
#include "common/result.h"

/// \file rate_model.h
/// \brief Event-rate model of a data stream (paper §5, data generators).
///
/// The paper's generator "provides a parameter to define the event rate
/// change, e.g., the event rate is 100 events/s, and it changes between 95
/// to 105 events/s if the parameter is 5%". This model reproduces that: the
/// instantaneous rate is redrawn uniformly from
/// `[base * (1 - change), base * (1 + change)]` every `epoch_events` events,
/// and inter-event gaps are `1 / rate` seconds.

namespace deco {

/// \brief Configuration of a `RateModel`.
struct RateModelConfig {
  /// Nominal event rate in events per second. Must be > 0.
  double base_rate = 1000.0;

  /// Rate-change parameter as a fraction, e.g. 0.01 for the paper's "1%".
  /// May exceed 1.0 (the paper sweeps up to 100%); the redrawn rate is
  /// clamped to a small positive floor so time always advances.
  double change_fraction = 0.0;

  /// The instantaneous rate is redrawn after this many events.
  uint64_t epoch_events = 1000;

  Status Validate() const;
};

/// \brief Deterministic per-stream rate process.
class RateModel {
 public:
  /// \param config validated with `RateModelConfig::Validate`
  /// \param seed PRNG seed; identical seeds give identical rate paths
  RateModel(const RateModelConfig& config, uint64_t seed);

  /// \brief Nanoseconds between the previous event and the next one at the
  /// current instantaneous rate; advances the epoch counter and redraws the
  /// rate at epoch boundaries.
  TimeNanos NextGapNanos() {
    if (events_in_epoch_ == config_.epoch_events) {
      events_in_epoch_ = 0;
      Redraw();
    }
    ++events_in_epoch_;
    return gap_nanos_;
  }

  /// \brief Current instantaneous rate in events per second.
  double current_rate() const { return rate_; }

  const RateModelConfig& config() const { return config_; }

 private:
  /// Draws the epoch's rate and computes its gap once.
  void Redraw();

  RateModelConfig config_;
  Rng rng_;
  double rate_;
  TimeNanos gap_nanos_ = 0;  ///< `1 / rate_` in whole nanoseconds, >= 1
  uint64_t events_in_epoch_ = 0;
};

}  // namespace deco
