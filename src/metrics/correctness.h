#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file correctness.h
/// \brief Correctness metric of paper §5.2 (Fig. 10d/f): the fraction of
/// events an approach assigns to the same global window as the Central
/// ground truth.
///
/// Every scheme consumes each local node's (locally sorted) stream strictly
/// in order, so the membership of events in global windows is completely
/// described by per-window, per-node consumed counts. Window `w` of a
/// scheme and window `w` of the truth then overlap, for node `n`, in
/// `[max(truth_start, test_start), min(truth_end, test_end))` of node `n`'s
/// cumulative event index — no raw events need to be stored.

namespace deco {

/// \brief Per-window record of how many events each local node contributed.
class ConsumptionLog {
 public:
  ConsumptionLog() = default;

  /// \param num_nodes number of local nodes (columns)
  explicit ConsumptionLog(size_t num_nodes) : num_nodes_(num_nodes) {}

  /// \brief Appends one global window's consumption vector; `counts` must
  /// have `num_nodes()` entries.
  void AddWindow(const std::vector<uint64_t>& counts);

  size_t num_windows() const { return windows_.size(); }
  size_t num_nodes() const { return num_nodes_; }

  /// \brief Consumption of window `w` (size `num_nodes()`).
  const std::vector<uint64_t>& window(size_t w) const { return windows_[w]; }

  /// \brief Cumulative events of node `n` consumed by windows `[0, w)`.
  uint64_t CumulativeBefore(size_t w, size_t n) const;

  /// \brief Total events across all recorded windows.
  uint64_t TotalEvents() const;

 private:
  size_t num_nodes_;
  std::vector<std::vector<uint64_t>> windows_;
  std::vector<std::vector<uint64_t>> cumulative_;  // prefix sums per window
};

/// \brief Result of comparing a scheme against the ground truth.
struct CorrectnessReport {
  /// Windows compared (the shorter of the two logs).
  uint64_t windows_compared = 0;

  /// Events in the compared ground-truth windows.
  uint64_t truth_events = 0;

  /// Events the scheme placed into the same window as the truth.
  uint64_t overlapping_events = 0;

  /// `overlapping_events / truth_events` in [0, 1]; 1 when both are empty.
  double correctness = 1.0;
};

/// \brief Computes the overlap metric. Both logs must have the same
/// `num_nodes()`.
CorrectnessReport CompareConsumption(const ConsumptionLog& truth,
                                     const ConsumptionLog& test);

}  // namespace deco
