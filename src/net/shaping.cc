#include "net/shaping.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "sim/scheduler.h"

namespace deco {

TokenBucket::TokenBucket(uint64_t rate_per_sec, uint64_t capacity,
                         Clock* clock)
    : rate_(rate_per_sec),
      capacity_(capacity),
      clock_(clock),
      tokens_(static_cast<double>(capacity)),
      last_refill_(clock->NowNanos()) {}

void TokenBucket::RefillLocked() {
  const TimeNanos now = clock_->NowNanos();
  if (now <= last_refill_) return;
  const double elapsed_sec = static_cast<double>(now - last_refill_) /
                             static_cast<double>(kNanosPerSecond);
  tokens_ = std::min(static_cast<double>(capacity_),
                     tokens_ + elapsed_sec * static_cast<double>(rate_));
  last_refill_ = now;
}

bool TokenBucket::TryAcquire(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  RefillLocked();
  if (tokens_ < static_cast<double>(n)) return false;
  tokens_ -= static_cast<double>(n);
  return true;
}

uint64_t TokenBucket::AvailableTokens() {
  std::lock_guard<std::mutex> lock(mu_);
  RefillLocked();
  return tokens_ < 0 ? 0 : static_cast<uint64_t>(tokens_);
}

void TokenBucket::AcquireBlocking(uint64_t n) {
  // Go into debt immediately (tokens_ may become negative) and sleep until
  // the debt is repaid; this preserves FIFO cost accounting for messages
  // larger than the bucket capacity.
  double deficit;
  {
    std::lock_guard<std::mutex> lock(mu_);
    RefillLocked();
    tokens_ -= static_cast<double>(n);
    deficit = -tokens_;
  }
  if (deficit <= 0) return;
  const double wait_sec = deficit / static_cast<double>(rate_);
  if (SimScheduler::OnSimTask()) {
    // Simulated run: the debt is repaid in virtual time, at zero wall cost.
    SimScheduler::Current()->SleepFor(
        static_cast<TimeNanos>(wait_sec * kNanosPerSecond) + 1);
    return;
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(wait_sec));
}

}  // namespace deco
