#pragma once

#include <cstdint>

#include "common/random.h"
#include "event/event.h"
#include "stream/rate_model.h"

/// \file generator.h
/// \brief Synthetic data-stream generator (paper §5, "Data Generators").
///
/// The paper replays the DEBS 2013 soccer real-time-locating-system dataset
/// from different offsets per stream. We do not ship that dataset; instead
/// `SensorValueModel` synthesizes values with the same character — smooth
/// periodic motion (player/ball trajectories) plus sensor noise — and each
/// stream starts from a different phase offset, mirroring the paper's
/// offset-replay trick. All evaluation results depend on event *rates* and
/// *counts*, not value content (see DESIGN.md substitution table), so this
/// preserves the measured behaviour.

namespace deco {

/// \brief Configuration of a synthetic sensor value series.
struct SensorValueConfig {
  double amplitude = 100.0;   ///< trajectory amplitude
  double period_seconds = 10; ///< trajectory period
  double noise_stddev = 1.0;  ///< gaussian measurement noise
  double phase = 0.0;         ///< per-stream replay offset, radians
};

/// \brief DEBS-like value series: `A * sin(2π t / T + φ) + N(0, σ)`.
class SensorValueModel {
 public:
  SensorValueModel(const SensorValueConfig& config, uint64_t seed)
      : config_(config), rng_(seed) {}

  /// \brief Value at event-time `t` (nanoseconds).
  double ValueAt(EventTime t);

 private:
  SensorValueConfig config_;
  Rng rng_;
};

/// \brief Configuration of one logical data stream.
struct StreamConfig {
  StreamId stream_id = 0;
  RateModelConfig rate;
  SensorValueConfig value;
  EventTime start_time = 0;  ///< event-time of the first event
  uint64_t seed = 42;
};

/// \brief One ordered data stream: events with sequential ids, monotonically
/// increasing timestamps derived from the rate model, and synthetic values.
///
/// This is the paper's *datastream node* payload: a weak sensor that only
/// produces data.
class StreamSource {
 public:
  explicit StreamSource(const StreamConfig& config);

  /// \brief Produces the next event of the stream.
  Event Next();

  /// \brief Writes the next `n` events to `out[0, n)` and the rate each was
  /// generated at (`current_rate()` right after it) to `rates[0, n)`.
  void NextBlock(size_t n, Event* out, double* rates);

  /// \brief Instantaneous configured rate of the underlying rate model, in
  /// events per second. This is what local nodes poll to report event rates
  /// to the root (paper §4.3.3).
  double current_rate() const { return rate_.current_rate(); }

  StreamId stream_id() const { return config_.stream_id; }

  /// \brief Event-time of the most recently emitted event.
  EventTime last_timestamp() const { return now_; }

  /// \brief Number of events emitted so far.
  uint64_t emitted() const { return next_id_; }

 private:
  StreamConfig config_;
  RateModel rate_;
  SensorValueModel value_;
  EventTime now_;
  EventId next_id_ = 0;
};

}  // namespace deco
