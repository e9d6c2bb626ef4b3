#pragma once

#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "event/event.h"

/// \file root_merger.h
/// \brief Order-preserving k-way merge of the locally sorted streams
/// arriving at a root node.
///
/// Each local node ships its events in local `(timestamp, stream, id)`
/// order over a FIFO link, so the root can merge the per-node queues into
/// the deterministic global order — this *is* the Central ground truth
/// (DESIGN.md §4.1). The merge stalls whenever some non-finished node has
/// an empty queue: the head of that node's stream is unknown, exactly like
/// a watermark holding back processing.

namespace deco {

/// \brief Streaming k-way merge with per-event creation-time bookkeeping
/// for latency measurement.
class RootMerger {
 public:
  explicit RootMerger(size_t num_nodes);

  /// \brief Appends one received batch from `node`. `create_wall_nanos` is
  /// the batch's latency side-channel value, attributed to each event.
  void Append(size_t node, EventVec events, double create_wall_nanos);

  /// \brief Marks `node` as end-of-stream: an empty queue no longer stalls
  /// the merge.
  void MarkEos(size_t node);

  /// \brief Pops the next event in global order. Returns false when the
  /// merge is stalled (need more input) or fully drained.
  bool PopNext(Event* event, double* create_wall_nanos, size_t* from_node);

  /// \brief True when every node is EOS and every queue is empty.
  bool Drained() const;

  /// \brief Events currently buffered across all queues.
  size_t buffered() const { return buffered_; }

  /// \brief True when `node` has no buffered event left to merge.
  bool Empty(size_t node) const { return nodes_[node].batches.empty(); }

 private:
  struct Batch {
    EventVec events;
    double create_wall_nanos = 0.0;
    size_t next = 0;  // index of the next unconsumed event
  };

  struct NodeQueue {
    std::deque<Batch> batches;
    bool eos = false;
    bool in_heap = false;
  };

  struct HeapEntry {
    Event head;
    size_t node;
  };
  struct HeapGreater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      EventTimestampLess less;
      return less(b.head, a.head);
    }
  };

  const Event& Head(size_t node) const;
  void PushHeadToHeap(size_t node);

  std::vector<NodeQueue> nodes_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapGreater> heap_;
  size_t stalled_ = 0;   // non-EOS nodes with an empty queue
  size_t buffered_ = 0;
};

}  // namespace deco
