#include "deco/planner.h"

#include <algorithm>

namespace deco {

SlicePlan PlanSync(uint64_t predicted, uint64_t delta) {
  SlicePlan plan;
  if (predicted > delta) {
    plan.slice = predicted - delta;
    plan.end_buffer = 2 * delta;
  } else {
    plan.slice = 0;
    // Degenerate slice (Eq. 3 else-branch): widen the raw region so it
    // still covers the predicted window plus one delta of slack.
    plan.end_buffer = std::max(2 * delta, predicted + delta);
  }
  return plan;
}

uint64_t AsyncFrontSize(uint64_t predicted, uint64_t delta) {
  return std::max(delta, predicted / 64);
}

uint64_t AsyncEndSize(uint64_t predicted, uint64_t delta) {
  return std::max(2 * delta, predicted / 32);
}

SlicePlan PlanAsync(uint64_t predicted, uint64_t delta) {
  // The raw regions absorb both rate drift (the delta term) and the
  // discrete jitter of the cut position (the size-relative floor). The
  // root recenters its per-node carryover around half the end buffer,
  // leaving symmetric margins before a correction is needed. The region
  // sums to exactly `predicted`, keeping the asynchronous steady state
  // self-balancing.
  SlicePlan plan;
  const uint64_t front = AsyncFrontSize(predicted, delta);
  const uint64_t end = AsyncEndSize(predicted, delta);
  if (predicted > front + end) {
    plan.front_buffer = front;
    plan.slice = predicted - front - end;
    plan.end_buffer = end;
  } else {
    plan.slice = 0;
    const uint64_t half = (predicted + 1) / 2;
    plan.front_buffer = std::max(half, front);
    plan.end_buffer = std::max(half, end);
  }
  return plan;
}

SlicePlan PlanAsyncSlack(uint64_t predicted, uint64_t delta) {
  // Ships extra events beyond the predicted size so the standing
  // root-buffer slack lands at the recentering target of the steady-state
  // PlanAsync layout: (end - front) / 2 balances the margin against a cut
  // inside the forced region (end - leftover) with the margin against a
  // fully selected region (leftover + next front buffer).
  SlicePlan plan;
  const uint64_t end = AsyncEndSize(predicted, delta);
  const uint64_t front = AsyncFrontSize(predicted, delta);
  const uint64_t surplus =
      std::max<uint64_t>(1, end > front ? (end - front) / 2 : 1);
  if (predicted > end) {
    plan.slice = predicted - end;
    plan.end_buffer = end + surplus;
  } else {
    plan.slice = 0;
    plan.end_buffer = predicted + end + surplus;
  }
  return plan;
}

}  // namespace deco
