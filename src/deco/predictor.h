#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

/// \file predictor.h
/// \brief Local-window-size prediction (paper §4.2.2, Algorithm 1).
///
/// The predicted local window size of window `i` is the actual size of
/// window `i-1` (Eq. 1). The delta — the slack the slice/buffer layout must
/// absorb — is the absolute difference of the last two actual sizes
/// (Eq. 2), smoothed over the last `m` windows (§4.2.2 closing paragraph:
/// "we record Δ for every global window and compute the average of the last
/// m global windows"). `m` controls how aggressively the scheme adapts.
///
/// The delta is floored at a configurable minimum (default 1): a zero
/// delta would ship zero raw edge events, leaving the root unable to bound
/// the window cut exactly (DESIGN.md §4.1).

namespace deco {

/// \brief Per-local-node prediction state, maintained on the root
/// (Deco_mon/Deco_sync) or on the local node itself (Deco_async).
class LocalWindowPredictor {
 public:
  /// \param history_m number of past deltas averaged (paper's `m`, >= 1)
  /// \param delta_floor minimum delta ever returned (>= 1 for exactness)
  /// \param delta_multiplier safety factor applied to the averaged delta;
  ///        the paper's literal Eq. 2 corresponds to 1.0, but an E|diff|-
  ///        sized buffer misses ~45% of normal-tailed size changes, so the
  ///        default widens it (see `FleetDeltaMultiplier` for the root's)
  explicit LocalWindowPredictor(size_t history_m = 4,
                                uint64_t delta_floor = 1,
                                double delta_multiplier = 2.0);

  /// \brief Records the actual local window size of a completed global
  /// window.
  void ObserveActual(uint64_t actual_size);

  /// \brief True once two observations exist, i.e. a delta can be formed.
  bool Ready() const { return observations_ >= 2; }

  /// \brief Predicted size of the next local window (Eq. 1): the most
  /// recent actual size. Requires at least one observation.
  uint64_t PredictedSize() const { return last_actual_; }

  /// \brief Smoothed delta (Eq. 2 averaged over the last `m` windows),
  /// floored at `delta_floor`. Requires `Ready()`.
  uint64_t Delta() const;

  size_t history_m() const { return history_m_; }

 private:
  size_t history_m_;
  uint64_t delta_floor_;
  double delta_multiplier_;
  uint64_t last_actual_ = 0;
  uint64_t prev_actual_ = 0;
  uint64_t observations_ = 0;
  std::deque<uint64_t> recent_deltas_;  // |l_i - l_{i-1}|, newest at back
  uint64_t delta_sum_ = 0;
};

/// \brief Delta multiplier that keeps the share T of global windows
/// needing a correction near 5% across `num_locals` nodes:
/// `sqrt(pi/2) * Phi^-1(1 - T / (2 n))`. Eq. 1 predicts the last size, so
/// the prediction error `l_i - l_{i-1}` has a standard deviation of about
/// `sqrt(pi/2) * E|diff|`, and E|diff| is what `Delta()` averages. A
/// window misses when any of the n locals misses, on either side, so each
/// tail of each local gets T / 2n. 2.46 at n=1, 3.43 at 8, 5.08 at 1000.
double FleetDeltaMultiplier(size_t num_locals);

}  // namespace deco
