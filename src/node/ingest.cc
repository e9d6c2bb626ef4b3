#include "node/ingest.h"

#include <algorithm>

namespace deco {

IngestSource::IngestSource(const IngestConfig& config, Clock* clock)
    : config_(config), clock_(clock), streams_(config.streams) {
  if (config_.cpu_events_per_sec > 0) {
    throttle_ =
        std::make_unique<TokenBucket>(config_.cpu_events_per_sec, clock_);
  }
  rate_ = streams_.TotalRate();
  // A batch never spans more than the budget.
  const size_t batch = static_cast<size_t>(std::max<uint64_t>(
      1, std::min<uint64_t>(config_.batch_size, config_.events_to_produce)));
  const size_t batch_chunks = std::min(kBatchChunks, batch);
  chunk_events_ = batch / batch_chunks;
  max_chunks_ = kMaxRunAheadBatches * batch_chunks;
  limit_ = batch_chunks;
  chunks_.resize(max_chunks_);
  ring_.resize(max_chunks_);
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

size_t IngestSource::chunks_allocated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return allocated_;
}

void IngestSource::Produce() {
  const uint64_t budget = config_.events_to_produce;
  for (uint64_t chunk = 0, made = 0; made < budget; ++chunk) {
    size_t buffer = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (chunk - released_ >= limit_) {
        idled_ = true;
        released_cv_.wait(
            lock, [&] { return stop_ || chunk - released_ < limit_; });
      }
      if (stop_) return;
      // Chunk `chunk - allocated_` is released, and the chunks after it
      // hold every other allocated buffer.
      buffer = allocated_ < limit_
                   ? allocated_++
                   : ring_[(chunk - allocated_) % max_chunks_];
      ring_[chunk % max_chunks_] = buffer;
    }
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(chunk_events_, budget - made));
    Chunk& slot = chunks_[buffer];
    if (slot.events.size() < n) {  // first use
      slot.events.resize(n);
      slot.rates.resize(n);
    }
    streams_.NextBatch(n, slot.events.data(), slot.rates.data());
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
      if (filled_ <= chunk) {
        // The puller caught up. A pull of several chunks that finds the
        // ring empty after the producer sat idle at its limit would have
        // found this chunk ready with more run-ahead.
        if (idled_ && take > chunk_events_) {
          limit_ = std::min(2 * limit_, max_chunks_);
        }
        idled_ = false;
        filled_cv_.wait(lock, [&] { return filled_ > chunk; });
      }
    }
    // Published under `mu_`, and not rewritten until this chunk is
    // released.
    const Chunk& slot = chunks_[ring_[chunk % max_chunks_]];
    const size_t m = std::min(take - done, chunk_events_ - offset);
    std::copy_n(slot.events.data() + offset, m, out->data() + base + done);
    rate_ = slot.rates[offset + m - 1];
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
