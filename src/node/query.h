#pragma once

#include <cmath>

#include "agg/aggregate.h"
#include "window/window.h"

/// \file query.h
/// \brief The streamed query a topology executes: a count window plus an
/// aggregation function. Every node is built with it; no message carries
/// it (a local learns runtime query changes as the root's slot schedule,
/// `ServeSnapshot`).

namespace deco {

/// \brief Query definition shared by every scheme.
struct QueryConfig {
  WindowSpec window = WindowSpec::CountTumbling(1'000'000);
  AggregateKind aggregate = AggregateKind::kSum;

  /// Quantile parameter for `AggregateKind::kQuantile`.
  double quantile_q = 0.5;

  Status Validate() const {
    if (aggregate == AggregateKind::kQuantile &&
        (!std::isfinite(quantile_q) || quantile_q <= 0.0 ||
         quantile_q >= 1.0)) {
      return Status::InvalidArgument(
          "quantile_q must be a finite value strictly inside (0, 1), got " +
          std::to_string(quantile_q));
    }
    return window.Validate();
  }
};

/// \brief Length of the count window the decentralized protocol actually
/// runs on. Tumbling windows map to themselves; sliding count windows are
/// decomposed into non-overlapping *panes* of `gcd(length, slide)` events —
/// each pane is processed as one protocol window and the root composes
/// emitted windows from consecutive pane partials (an extension beyond the
/// paper, which processes sliding count windows centrally).
uint64_t ProtocolWindowLength(const WindowSpec& window);

}  // namespace deco
