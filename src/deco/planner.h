#pragma once

#include <cstdint>

/// \file planner.h
/// \brief Slice/buffer layout of a local window (paper Algorithms 2 and 4).
///
/// A predicted local window is laid out as up to three consecutive regions
/// of the node's stream:
///
///   Deco_sync  (Alg. 2):  [ slice = l̂ − Δ            | buffer = 2Δ ]
///   Deco_async (Alg. 4):  [ Fbuffer = Δ | slice = l̂ − 2Δ | Ebuffer = Δ ]
///   Deco_mon:             measured l with a ±δ edge → same layout as sync
///                         with l̂ = measured size (DESIGN.md §4.1).
///
/// Slice events are aggregated blind on the local node; buffer events are
/// shipped raw so the root can resolve the exact window edge.

namespace deco {

/// \brief One local window's region sizes, in events.
struct SlicePlan {
  uint64_t front_buffer = 0;  ///< raw events before the slice (async only)
  uint64_t slice = 0;         ///< events aggregated locally
  uint64_t end_buffer = 0;    ///< raw events after the slice

  /// \brief Total events the local node dedicates to this window's region.
  uint64_t TotalRegion() const { return front_buffer + slice + end_buffer; }
};

/// \brief Deco_sync layout (Alg. 2, Eq. 3–4): slice `l̂ − Δ` (or 0 when
/// `l̂ <= Δ`), end buffer `2Δ`. When the slice degenerates to 0 the buffer
/// is widened to `l̂ + Δ` so the shipped region still covers the predicted
/// window plus slack.
SlicePlan PlanSync(uint64_t predicted, uint64_t delta);

/// \brief Deco_async layout (Alg. 4, Eq. 9–10): Fbuffer `Δ`, slice
/// `l̂ − 2Δ` (or 0 when `l̂ <= 2Δ`), Ebuffer `Δ`. When the slice
/// degenerates the paper sets Fbuffer = Ebuffer = `l̂ / 2`; we additionally
/// keep each at least `Δ` so the region retains its slack.
SlicePlan PlanAsync(uint64_t predicted, uint64_t delta);

/// \brief First Deco_async window after start or a correction rollback:
/// ships `⌈Δ/2⌉` extra raw events beyond the predicted size. The surplus
/// becomes the root's standing "previous root buffer" slack (paper Eq. 12,
/// initially non-empty previous buffer) that makes the self-balancing
/// asynchronous steady state verifiable (DESIGN.md §4.1).
SlicePlan PlanAsyncSlack(uint64_t predicted, uint64_t delta);

/// \brief Front-buffer size of the async layout:
/// `max(delta, predicted/64)`. The size-relative floor covers the
/// discrete jitter of the cut position that exists even under constant
/// rates; rate-derived deltas alone cannot see it.
uint64_t AsyncFrontSize(uint64_t predicted, uint64_t delta);

/// \brief End-buffer size of the async layout:
/// `max(2*delta, predicted/32)`. The root recenters its per-node
/// carryover around half this value.
uint64_t AsyncEndSize(uint64_t predicted, uint64_t delta);

}  // namespace deco
