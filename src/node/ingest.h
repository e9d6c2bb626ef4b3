#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "net/shaping.h"
#include "node/stream_set.h"

/// \file ingest.h
/// \brief Local-node ingestion front end: merged sensor streams, an event
/// budget, and an optional CPU throttle.
///
/// The throttle models a weak device (paper §5.3, Raspberry Pi local
/// nodes): pulling a batch blocks until the node's per-second event budget
/// allows it, capping the node's processing rate the way a slow CPU would.

namespace deco {

/// \brief Configuration of one local node's ingestion.
struct IngestConfig {
  std::vector<StreamConfig> streams;

  /// Total events this node produces before signalling end-of-stream.
  uint64_t events_to_produce = 1'000'000;

  /// Events pulled per batch; data-plane messages ship one batch.
  size_t batch_size = 4096;

  /// Processing cap in events/second; 0 = unthrottled (Xeon-class node).
  uint64_t cpu_events_per_sec = 0;

  /// Live multiplier on the node's event rate, written by the chaos
  /// controller (`surge` faults) and read by the throttle and the rate
  /// report. Null means a fixed 1.0. The multiplier scales the *reported*
  /// rate and the CPU throttle but not the event content, so a surged run
  /// still compares exactly against fault-free ground truth.
  std::shared_ptr<const std::atomic<double>> rate_multiplier;
};

/// \brief Budgeted, throttled, merged event source of a local node.
///
/// The node's sensor streams run on a producer thread of their own, the
/// paper's datastream node (Fig. 1). It fills a ring of chunks with the
/// merged events and, for each event, the generator's `TotalRate()` right
/// after it, and stops at the event budget. The producer may run one batch
/// ahead of `Pull` at first; the limit doubles, up to
/// `kMaxRunAheadBatches` batches, each time a pull larger than one chunk
/// has to wait for a chunk after the producer sat idle at its limit.
/// Chunks are allocated on first use, so the ring never holds more than
/// the limit or the budget. `Pull` throttles and stamps the creation time
/// on the calling thread, then copies out of the ring, so the caller sees
/// exactly the events and rates the generator produced, bit for bit. The
/// producer is not an actor: under the simulator it is no task and touches
/// no scheduler state, and a task waiting on it keeps the virtual CPU.
class IngestSource {
 public:
  /// Ring chunks per batch: the producer fills one while the puller
  /// copies out of others. A batch smaller than this is one event a chunk.
  static constexpr size_t kBatchChunks = 4;
  /// The most batches the producer may run ahead of `Pull`.
  static constexpr size_t kMaxRunAheadBatches = 8;

  IngestSource(const IngestConfig& config, Clock* clock);

  /// \brief Stops and joins the producer thread.
  ~IngestSource();

  // Not copyable or movable: the producer thread holds `this`.
  IngestSource(const IngestSource&) = delete;
  IngestSource& operator=(const IngestSource&) = delete;

  /// \brief Pulls up to `n` events (fewer near the budget end) and appends
  /// them to `out`. Sets `*create_wall_nanos` to the pull's wall time — the
  /// creation time used for processing-time latency (the paper's
  /// "event-time when created equals processing-time when it arrives").
  /// Returns the number of events pulled; 0 means the budget is exhausted.
  size_t Pull(size_t n, EventVec* out, TimeNanos* create_wall_nanos);

  /// \brief True once the event budget has been fully produced.
  bool exhausted() const { return produced_ >= config_.events_to_produce; }

  /// \brief Measured total event rate of the node's sensors, events/sec,
  /// at the current stream position, scaled by the live chaos rate
  /// multiplier.
  double TotalRate() const { return rate_ * multiplier(); }

  /// \brief Cumulative events produced (the node's stream position).
  uint64_t position() const { return produced_; }

  const IngestConfig& config() const { return config_; }

  /// \brief Ring chunks the producer has allocated so far: its run-ahead
  /// in chunks, up to `kMaxRunAheadBatches` batches' worth.
  size_t chunks_allocated() const;

 private:
  /// One ring chunk: consecutive events of the stream and the generator
  /// rate right after each of them.
  struct Chunk {
    std::vector<Event> events;
    std::vector<double> rates;
  };

  double multiplier() const {
    return config_.rate_multiplier == nullptr
               ? 1.0
               : config_.rate_multiplier->load(std::memory_order_acquire);
  }

  /// The producer thread: fills ring chunks in order until the budget is
  /// produced or the destructor asks it to stop.
  void Produce();

  IngestConfig config_;
  Clock* clock_;
  std::unique_ptr<TokenBucket> throttle_;  // null = unthrottled
  uint64_t produced_ = 0;
  // `StreamSet::TotalRate()` after the last pulled event.
  double rate_ = 0.0;

  // Touched only by the producer thread once it has started.
  StreamSet streams_;

  // The ring. Chunk k of the stream holds `chunk_events_` events (the last
  // chunk may hold fewer) in buffer `ring_[k % max_chunks_]` of `chunks_`.
  // The run-ahead limit grows from one batch to `max_chunks_` chunks.
  // Buffers are allocated on first use: below the limit chunk k takes a
  // new buffer, at it the buffer of chunk k - limit, which the puller has
  // released.
  size_t chunk_events_ = 0;
  size_t max_chunks_ = 0;
  std::vector<Chunk> chunks_;
  std::vector<size_t> ring_;

  mutable std::mutex mu_;
  std::condition_variable filled_cv_;    // the puller waits for a chunk
  std::condition_variable released_cv_;  // the producer waits for a slot
  uint64_t filled_ = 0;    // chunks the producer has published
  uint64_t released_ = 0;  // chunks the puller has copied out
  size_t limit_ = 0;       // the run-ahead limit, in chunks
  size_t allocated_ = 0;   // buffers of `chunks_` in use
  // The producer waited at its limit since the puller last waited.
  bool idled_ = false;
  bool stop_ = false;

  std::thread producer_;
};

}  // namespace deco
