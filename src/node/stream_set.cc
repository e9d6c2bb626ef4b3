#include "node/stream_set.h"

#include <cassert>

namespace deco {
namespace {

// Events each stream generates ahead of the merge: enough to spread a
// refill's call overhead thin, few enough to stay in cache.
constexpr size_t kLookahead = 64;

}  // namespace

StreamSet::Lane::Lane(const StreamConfig& config)
    : source(config), block(kLookahead), rates(kLookahead) {
  source.NextBlock(kLookahead, block.data(), rates.data());
}

StreamSet::StreamSet(const std::vector<StreamConfig>& configs) {
  assert(!configs.empty());
  lanes_.reserve(configs.size());
  for (const StreamConfig& config : configs) {
    lanes_.emplace_back(config);
    heads_.push_back(lanes_.back().block.data());
  }
}

size_t StreamSet::MinLane() const {
  EventTimestampLess less;
  size_t best = 0;
  const Event* best_head = heads_[0];
  for (size_t i = 1; i < heads_.size(); ++i) {
    if (less(*heads_[i], *best_head)) {
      best = i;
      best_head = heads_[i];
    }
  }
  return best;
}

Event StreamSet::Pop(size_t i) {
  const Event e = *heads_[i];
  Lane& lane = lanes_[i];
  if (++heads_[i] == lane.block.data() + kLookahead) {
    lane.source.NextBlock(kLookahead, lane.block.data(), lane.rates.data());
    heads_[i] = lane.block.data();
  }
  return e;
}

Event StreamSet::Next() {
  ++position_;
  return Pop(MinLane());
}

void StreamSet::NextBatch(size_t n, EventVec* out) {
  const size_t base = out->size();
  out->resize(base + n);
  Event* dst = out->data() + base;
  for (size_t i = 0; i < n; ++i) dst[i] = Pop(MinLane());
  position_ += n;
}

void StreamSet::NextBatch(size_t n, Event* out, double* rates) {
  double total = TotalRate();
  for (size_t i = 0; i < n; ++i) {
    const size_t lane = MinLane();
    const double before = HeadRate(lane);
    out[i] = Pop(lane);
    // Only the popped lane's head moved. Re-sum, in lane order, only when
    // its rate changed: the same terms in the same order give the same bits.
    if (HeadRate(lane) != before) total = TotalRate();
    rates[i] = total;
  }
  position_ += n;
}

double StreamSet::TotalRate() const {
  double total = 0.0;
  for (size_t i = 0; i < lanes_.size(); ++i) total += HeadRate(i);
  return total;
}

}  // namespace deco
