#pragma once

#include <vector>

#include "event/event.h"
#include "stream/generator.h"

/// \file stream_set.h
/// \brief The merged event source of one local node.
///
/// A local node ingests `n` sensor streams (paper Fig. 1, datastream
/// nodes). Each stream is ordered by timestamp; the node observes the
/// k-way merge in the deterministic total order `(timestamp, stream_id,
/// event_id)`. Merging locally means every local node emits a locally
/// sorted stream, so the root's merge across local nodes equals a global
/// sort — the Central ground truth (DESIGN.md §4.1).
///
/// Each stream generates a block of events ahead of the merge, and the
/// merge scans the stream heads for the least key. A local node merges a
/// handful of streams, where a scan over the heads beats a heap.

namespace deco {

/// \brief k-way merged, infinite, locally sorted event source.
class StreamSet {
 public:
  /// \param configs one per sensor stream; must be non-empty, with
  ///        distinct stream ids
  explicit StreamSet(const std::vector<StreamConfig>& configs);

  // Not copyable: `heads_` points into the lanes' blocks.
  StreamSet(const StreamSet&) = delete;
  StreamSet& operator=(const StreamSet&) = delete;

  /// \brief Next event in merged order.
  Event Next();

  /// \brief Appends `n` merged events to `out`.
  void NextBatch(size_t n, EventVec* out);

  /// \brief Writes `n` merged events to `out[0..n)` and, in `rates[i]`, the
  /// value `TotalRate()` returns right after `out[i]` is emitted.
  void NextBatch(size_t n, Event* out, double* rates);

  /// \brief Sum of the instantaneous configured rates of all streams,
  /// events per second — what the local node reports to the root
  /// (paper §4.3.3: "polls frequencies of data sources"). Each stream
  /// contributes the rate its next unemitted event was generated at.
  double TotalRate() const;

  /// \brief Total events emitted by `Next`/`NextBatch` so far (the node's
  /// cumulative stream position).
  uint64_t position() const { return position_; }

  size_t stream_count() const { return lanes_.size(); }

 private:
  /// One stream and its lookahead block of generated events.
  struct Lane {
    explicit Lane(const StreamConfig& config);

    StreamSource source;
    EventVec block;
    std::vector<double> rates;  ///< rate each block event was generated at
  };

  /// Lane whose head is least in `(timestamp, stream_id, event_id)` order.
  size_t MinLane() const;

  /// Rate lane `i`'s head event was generated at.
  double HeadRate(size_t i) const {
    return lanes_[i].rates[heads_[i] - lanes_[i].block.data()];
  }

  /// Emits lane `i`'s head, refilling its block once the block is used up.
  Event Pop(size_t i);

  std::vector<Lane> lanes_;
  // heads_[i]: lane i's next unemitted event, inside its block. Kept apart
  // from the lanes so the merge's scan reads one small array.
  std::vector<const Event*> heads_;
  uint64_t position_ = 0;
};

}  // namespace deco
