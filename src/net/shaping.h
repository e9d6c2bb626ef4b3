#pragma once

#include <cstdint>
#include <mutex>

#include "common/clock.h"
#include "common/status.h"

/// \file shaping.h
/// \brief Link and egress shaping primitives used by the fabric to emulate
/// constrained networks (paper §5.3, Raspberry Pi cluster with 1 Gbit/s
/// Ethernet).

namespace deco {

/// \brief Per-link properties. All fields are runtime-mutable: the chaos
/// controller rewrites them mid-run (drop bursts, latency spikes,
/// partitions) via `NetworkFabric::SetLinkConfig` and friends.
struct LinkConfig {
  /// One-way propagation delay added to every message, in nanoseconds.
  TimeNanos latency_nanos = 0;

  /// Probability that a message is silently dropped (unreliable network
  /// injection, paper §4.3.4). Bytes of dropped messages still count as
  /// sent (they left the NIC).
  double drop_probability = 0.0;

  /// Hard partition: every message on the link is dropped. Kept separate
  /// from `drop_probability` so healing a partition restores the link's
  /// previous loss characteristics untouched.
  bool blocked = false;
};

/// \brief Per-node egress properties.
struct NodeNetConfig {
  /// Egress bandwidth cap in bytes per second; 0 means unlimited. Senders
  /// block when the cap is exceeded, which is how NIC backpressure
  /// propagates into the node runtime. The cap binds from the first byte:
  /// the bucket holds one MTU (`kEgressBurstBytes`), not a second's worth.
  uint64_t egress_bytes_per_sec = 0;
};

/// The egress bucket's capacity and starting burst: one Ethernet MTU.
constexpr uint64_t kEgressBurstBytes = 1500;

/// \brief Classic token bucket, refilled continuously from a monotonic
/// clock. It starts full.
///
/// Thread-safe. `AcquireBlocking` sleeps the calling thread until enough
/// tokens accumulate — only meaningful with a real clock; deterministic
/// tests use `TryAcquire` with a `ManualClock`.
class TokenBucket {
 public:
  /// \param rate_per_sec token refill rate (bytes/sec); must be > 0
  /// \param capacity the most tokens the bucket holds
  /// \param clock time source; not owned, must outlive the bucket
  TokenBucket(uint64_t rate_per_sec, uint64_t capacity, Clock* clock);

  /// \brief A bucket holding one second's worth of tokens.
  TokenBucket(uint64_t rate_per_sec, Clock* clock)
      : TokenBucket(rate_per_sec, rate_per_sec, clock) {}

  /// \brief Takes `n` tokens, sleeping as needed. `n` larger than the
  /// bucket capacity is allowed: the debt is paid across multiple refills.
  void AcquireBlocking(uint64_t n);

  /// \brief Takes `n` tokens iff available without waiting.
  bool TryAcquire(uint64_t n);

  /// \brief Tokens currently available (after refilling to now).
  uint64_t AvailableTokens();

  uint64_t rate_per_sec() const { return rate_; }

 private:
  /// Refills from elapsed time; caller holds `mu_`.
  void RefillLocked();

  const uint64_t rate_;
  const uint64_t capacity_;
  Clock* clock_;
  std::mutex mu_;
  double tokens_;
  TimeNanos last_refill_;
};

}  // namespace deco
