#include "node/ingest.h"

#include <algorithm>

namespace deco {
namespace {

// Ring slots: the producer fills one while the puller copies out of others.
constexpr size_t kRingChunks = 4;

}  // namespace

IngestSource::IngestSource(const IngestConfig& config, Clock* clock)
    : config_(config), clock_(clock), streams_(config.streams) {
  if (config_.cpu_events_per_sec > 0) {
    throttle_ =
        std::make_unique<TokenBucket>(config_.cpu_events_per_sec, clock_);
  }
  rate_ = streams_.TotalRate();
  // The ring holds at most one batch, and never more than the budget.
  const size_t capacity = static_cast<size_t>(std::max<uint64_t>(
      1, std::min<uint64_t>(config_.batch_size, config_.events_to_produce)));
  chunks_ = std::min(kRingChunks, capacity);
  chunk_events_ = capacity / chunks_;
  ring_events_.resize(chunks_ * chunk_events_);
  ring_rates_.resize(chunks_ * chunk_events_);
  producer_ = std::thread([this] { Produce(); });
}

IngestSource::~IngestSource() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  released_cv_.notify_one();
  producer_.join();
}

void IngestSource::Produce() {
  const uint64_t budget = config_.events_to_produce;
  for (uint64_t chunk = 0, made = 0; made < budget; ++chunk) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      released_cv_.wait(
          lock, [&] { return stop_ || chunk - released_ < chunks_; });
      if (stop_) return;
    }
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(chunk_events_, budget - made));
    const size_t at = (chunk % chunks_) * chunk_events_;
    streams_.NextBatch(n, ring_events_.data() + at, ring_rates_.data() + at);
    made += n;
    {
      std::lock_guard<std::mutex> lock(mu_);
      filled_ = chunk + 1;
    }
    filled_cv_.notify_one();
  }
}

size_t IngestSource::Pull(size_t n, EventVec* out,
                          TimeNanos* create_wall_nanos) {
  const uint64_t left = config_.events_to_produce - produced_;
  const size_t take = static_cast<size_t>(
      std::min<uint64_t>(n, left));
  if (take == 0) {
    *create_wall_nanos = clock_->NowNanos();
    return 0;
  }
  if (throttle_ != nullptr) {
    // A surge multiplier > 1 means the device is asked for more events per
    // wall second, i.e. each event costs proportionally fewer throttle
    // tokens.
    const double mult = multiplier();
    const auto cost = static_cast<uint64_t>(
        std::max(1.0, static_cast<double>(take) / std::max(mult, 1e-9)));
    throttle_->AcquireBlocking(cost);
  }
  *create_wall_nanos = clock_->NowNanos();
  const size_t base = out->size();
  out->resize(base + take);
  for (size_t done = 0; done < take;) {
    const uint64_t chunk = produced_ / chunk_events_;
    const size_t offset = static_cast<size_t>(produced_ % chunk_events_);
    if (offset == 0) {
      std::unique_lock<std::mutex> lock(mu_);
      filled_cv_.wait(lock, [&] { return filled_ > chunk; });
    }
    const size_t at = (chunk % chunks_) * chunk_events_ + offset;
    const size_t m = std::min(take - done, chunk_events_ - offset);
    std::copy_n(ring_events_.data() + at, m, out->data() + base + done);
    rate_ = ring_rates_[at + m - 1];
    done += m;
    produced_ += m;
    if (offset + m == chunk_events_) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        released_ = chunk + 1;
      }
      released_cv_.notify_one();
    }
  }
  return take;
}

}  // namespace deco
