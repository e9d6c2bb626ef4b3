#include <gtest/gtest.h>

#include <algorithm>

#include "deco/assembler.h"
#include "serve/registry.h"

namespace deco {
namespace {

// Test fixture that builds slices and raw regions from synthetic per-node
// event sequences with interleaved timestamps: node n's k-th event has
// timestamp `base + k * num_nodes + n`, so the global order interleaves
// round-robin and the expected window composition is easy to reason about.
class AssemblerTest : public ::testing::Test {
 protected:
  static constexpr size_t kNodes = 2;
  static constexpr uint64_t kGlobal = 100;  // global window size

  void SetUp() override {
    func_ = std::move(MakeAggregate(AggregateKind::kSum)).value();
    assembler_ = std::make_unique<WindowAssembler>(kNodes, func_.get(),
                                                   kGlobal);
    next_id_.assign(kNodes, 0);
  }

  // Events `[first, first + n)` of node `node`'s stream (value 1.0 each,
  // or `id + 1000 * node` with `id_values_`).
  EventVec Events(size_t node, uint64_t first, size_t n) const {
    EventVec events;
    for (uint64_t id = first; id < first + n; ++id) {
      Event e;
      e.id = id;
      e.stream_id = static_cast<StreamId>(node);
      e.value = id_values_ ? static_cast<double>(id + 1000 * node) : 1.0;
      e.timestamp = static_cast<EventTime>(1000 + id * kNodes + node);
      events.push_back(e);
    }
    return events;
  }

  // Produces the next `n` events of node `node`.
  EventVec Take(size_t node, size_t n) {
    EventVec events = Events(node, next_id_[node], n);
    next_id_[node] += n;
    return events;
  }

  SliceSummary MakeSlice(const EventVec& events) {
    SliceSummary s;
    s.partial = func_->CreatePartial();
    for (const Event& e : events) func_->Accumulate(&s.partial, e.value);
    s.event_count = events.size();
    if (!events.empty()) {
      s.min_ts = events.front().timestamp;
      s.max_ts = events.back().timestamp;
      s.max_stream_id = events.back().stream_id;
      s.max_event_id = events.back().id;
    }
    s.event_rate = 1000.0;
    return s;
  }

  // Ships a sync-style window: slice of `slice` events + end buffer of
  // `buffer` events for window `w` from `node`.
  void ShipSyncWindow(uint64_t w, size_t node, size_t slice, size_t buffer) {
    ASSERT_TRUE(assembler_->AddSlice(w, node, MakeSlice(Take(node, slice)),
                                     0.0)
                    .ok());
    ASSERT_TRUE(assembler_
                    ->AddRaw(w, node, BatchRole::kEnd, Take(node, buffer),
                             0.0)
                    .ok());
  }

  // Answers repair requests from the nodes' streams; `base[n]` is the id
  // of the first event the root holds for node n in the held window.
  void Answer(const std::vector<RepairRequest>& requests,
              const std::vector<uint64_t>& base) {
    for (const RepairRequest& r : requests) {
      ASSERT_TRUE(assembler_
                      ->AddRepair(r.node,
                                  Events(r.node, base[r.node] + r.from_index,
                                         r.count),
                                  0.0, /*end_of_stream=*/false)
                      .ok());
    }
  }

  // Repairs the held window until it assembles; returns the rounds taken.
  size_t RepairUntilAssembled(const std::vector<uint64_t>& base,
                              WindowAssembly* out) {
    for (size_t rounds = 0; rounds < 10; ++rounds) {
      const auto outcome = assembler_->TryAssemble(out);
      if (outcome == WindowAssembler::Outcome::kAssembled) return rounds;
      EXPECT_EQ(outcome, WindowAssembler::Outcome::kNeedCorrection);
      std::vector<RepairRequest> requests;
      if (!assembler_->BeginRepair(&requests)) {
        ADD_FAILURE() << "the repair could not go on without emptying";
        return rounds;
      }
      Answer(requests, base);
    }
    ADD_FAILURE() << "repair did not converge";
    return 10;
  }

  // Brute force: each node's share of global window `w`, the w-th block
  // of kGlobal events in key order over the nodes' streams.
  std::vector<uint64_t> Truth(uint64_t w) const {
    std::vector<Event> all;
    for (size_t n = 0; n < kNodes; ++n) {
      const EventVec events = Events(n, 0, (w + 1) * kGlobal);
      all.insert(all.end(), events.begin(), events.end());
    }
    std::sort(all.begin(), all.end(), [](const Event& a, const Event& b) {
      return EventKey::Of(a) < EventKey::Of(b);
    });
    std::vector<uint64_t> counts(kNodes, 0);
    for (uint64_t i = w * kGlobal; i < (w + 1) * kGlobal; ++i) {
      ++counts[all[i].stream_id];
    }
    return counts;
  }

  std::unique_ptr<AggregateFunction> func_;
  std::unique_ptr<WindowAssembler> assembler_;
  std::vector<uint64_t> next_id_;
  bool id_values_ = false;
};

TEST_F(AssemblerTest, NotReadyUntilAllRegionsArrive) {
  WindowAssembly out;
  EXPECT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNotReady);
  ASSERT_TRUE(
      assembler_->AddSlice(0, 0, MakeSlice(Take(0, 48)), 0.0).ok());
  EXPECT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNotReady);
  ASSERT_TRUE(
      assembler_->AddRaw(0, 0, BatchRole::kEnd, Take(0, 4), 0.0).ok());
  EXPECT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNotReady);  // node 1 missing
}

TEST_F(AssemblerTest, BalancedWindowAssemblesExactly) {
  ShipSyncWindow(0, 0, 48, 4);
  ShipSyncWindow(0, 1, 48, 4);
  WindowAssembly out;
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kAssembled);
  EXPECT_EQ(out.event_count, kGlobal);
  EXPECT_DOUBLE_EQ(func_->Finalize(out.partial), 100.0);
  // Round-robin interleave: each node contributes exactly 50.
  EXPECT_EQ(out.consumed[0], 50u);
  EXPECT_EQ(out.consumed[1], 50u);
  EXPECT_EQ(assembler_->next_window(), 1u);
  // Unselected buffer events carry over.
  EXPECT_EQ(assembler_->leftover_size(0), 2u);
  EXPECT_EQ(assembler_->leftover_size(1), 2u);
}

TEST_F(AssemblerTest, WatermarkIsLastWindowEvent) {
  ShipSyncWindow(0, 0, 48, 4);
  ShipSyncWindow(0, 1, 48, 4);
  WindowAssembly out;
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kAssembled);
  // The 100th event in interleaved order is node 1's event 49 at
  // 1000 + 49*2 + 1 = 1099.
  EXPECT_EQ(out.watermark.ts, 1099);
}

TEST_F(AssemblerTest, CarryoverFeedsNextWindow) {
  ShipSyncWindow(0, 0, 48, 4);
  ShipSyncWindow(0, 1, 48, 4);
  WindowAssembly out;
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kAssembled);
  // Window 1: each node's leftover (2) is forced; slices of 46 + buffers
  // of 4 complete it.
  ShipSyncWindow(1, 0, 46, 4);
  ShipSyncWindow(1, 1, 46, 4);
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kAssembled);
  EXPECT_EQ(out.event_count, kGlobal);
  EXPECT_EQ(out.consumed[0], 50u);
  EXPECT_EQ(out.consumed[1], 50u);
}

TEST_F(AssemblerTest, ImbalancedRatesResolveByTimestamp) {
  // Node 0 contributes events twice as fast (timestamps closer together):
  // regenerate ids so node 0's k-th event is at 1000+k, node 1's at
  // 1000+2k. In the first 100 global events node 0 contributes ~2/3.
  auto take_custom = [&](size_t node, size_t n, EventTime stride) {
    EventVec events;
    for (size_t i = 0; i < n; ++i) {
      Event e;
      e.id = next_id_[node];
      e.stream_id = static_cast<StreamId>(node);
      e.value = 1.0;
      e.timestamp =
          static_cast<EventTime>(1000 + next_id_[node] * stride + node);
      ++next_id_[node];
      events.push_back(e);
    }
    return events;
  };
  const EventVec slice0 = take_custom(0, 60, 1);
  const EventVec buf0 = take_custom(0, 14, 1);
  const EventVec slice1 = take_custom(1, 30, 2);
  const EventVec buf1 = take_custom(1, 8, 2);
  ASSERT_TRUE(assembler_->AddSlice(0, 0, MakeSlice(slice0), 0.0).ok());
  ASSERT_TRUE(
      assembler_->AddRaw(0, 0, BatchRole::kEnd, buf0, 0.0).ok());
  ASSERT_TRUE(assembler_->AddSlice(0, 1, MakeSlice(slice1), 0.0).ok());
  ASSERT_TRUE(
      assembler_->AddRaw(0, 1, BatchRole::kEnd, buf1, 0.0).ok());
  WindowAssembly out;
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kAssembled);
  EXPECT_EQ(out.consumed[0] + out.consumed[1], kGlobal);
  // Node 0's events are twice as dense, so it contributes about 2/3.
  EXPECT_GT(out.consumed[0], 60u);
  EXPECT_LT(out.consumed[1], 40u);
}

TEST_F(AssemblerTest, OverestimateTriggersCorrection) {
  // Forced events exceed the global window: slices alone sum to 110.
  ShipSyncWindow(0, 0, 55, 2);
  ShipSyncWindow(0, 1, 55, 2);
  WindowAssembly out;
  EXPECT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNeedCorrection);
}

TEST_F(AssemblerTest, UnderestimateTriggersCorrection) {
  // Too few events shipped in total: 40+4 per node < 100.
  ShipSyncWindow(0, 0, 40, 4);
  ShipSyncWindow(0, 1, 40, 4);
  WindowAssembly out;
  EXPECT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNeedCorrection);
}

TEST_F(AssemblerTest, FullySelectedBufferTriggersCorrection) {
  // Node 0 ships too little; its entire buffer would be consumed, leaving
  // the cut unbounded against its unshipped stream.
  ShipSyncWindow(0, 0, 40, 6);
  ShipSyncWindow(0, 1, 52, 8);
  WindowAssembly out;
  EXPECT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNeedCorrection);
}

TEST_F(AssemblerTest, CutInsideSliceTriggersCorrection) {
  // Node 1's slice reaches far beyond the true cut: it covers events up to
  // timestamp ~1150 while node 0 still has unconsumed events below that.
  ShipSyncWindow(0, 0, 40, 4);   // node 0: events up to ts ~1088
  ShipSyncWindow(0, 1, 58, 4);   // node 1: slice alone reaches ts ~1117
  WindowAssembly out;
  EXPECT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNeedCorrection);
}

TEST_F(AssemblerTest, CorrectionAssemblesExactWindow) {
  ShipSyncWindow(0, 0, 55, 2);
  ShipSyncWindow(0, 1, 55, 2);
  WindowAssembly out;
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNeedCorrection);

  // perfbench's correction layer drives these three calls.
  assembler_->BeginCorrection();
  EXPECT_TRUE(assembler_->emptied());
  // Locals resend their full retained regions (57 events each), which
  // bound the cut.
  next_id_.assign(kNodes, 0);  // locals replay from the window start
  ASSERT_TRUE(assembler_->AddCandidates(0, Take(0, 57), 0.0).ok());
  ASSERT_TRUE(assembler_->AddCandidates(1, Take(1, 57), 0.0).ok());
  std::vector<size_t> need_more;
  ASSERT_EQ(assembler_->TryAssembleCorrected(&out, &need_more),
            WindowAssembler::CorrectionOutcome::kAssembled);
  EXPECT_EQ(out.event_count, kGlobal);
  EXPECT_EQ(out.consumed[0], 50u);
  EXPECT_EQ(out.consumed[1], 50u);
  EXPECT_FALSE(assembler_->repairing());
  EXPECT_FALSE(assembler_->emptied());
  EXPECT_EQ(assembler_->next_window(), 1u);
  // Correction clears leftovers: locals re-plan from the cut.
  EXPECT_EQ(assembler_->leftover_size(0), 0u);
  EXPECT_EQ(assembler_->leftover_size(1), 0u);
}

TEST_F(AssemblerTest, CorrectionRequestsTopUpWhenShort) {
  ShipSyncWindow(0, 0, 40, 4);
  ShipSyncWindow(0, 1, 40, 4);
  WindowAssembly out;
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNeedCorrection);
  assembler_->BeginCorrection();
  // The emptied window's first responses hold 44 events per local, 12
  // short of the window: each local is topped up by 13 from its 44.
  for (size_t n = 0; n < kNodes; ++n) {
    ASSERT_TRUE(assembler_->AddRepair(n, Events(n, 0, 44), 0.0, false).ok());
  }
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNeedCorrection);
  std::vector<RepairRequest> requests;
  ASSERT_TRUE(assembler_->BeginRepair(&requests));
  ASSERT_EQ(requests.size(), 2u);
  for (size_t n = 0; n < kNodes; ++n) {
    EXPECT_EQ(requests[n].node, n);
    EXPECT_EQ(requests[n].kind, RepairRequest::Kind::kTopUp);
    EXPECT_EQ(requests[n].from_index, 44u);
    EXPECT_EQ(requests[n].count, 13u);
  }
  Answer(requests, {0, 0});
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kAssembled);
  EXPECT_EQ(out.consumed, Truth(0));
  EXPECT_FALSE(assembler_->emptied());
}

TEST_F(AssemblerTest, EosWaivesCutBounding) {
  // Node 1 finished its stream; its fully consumed buffer is fine.
  ShipSyncWindow(0, 0, 50, 6);
  ShipSyncWindow(0, 1, 44, 4);
  assembler_->MarkEos(1);
  WindowAssembly out;
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kAssembled);
  EXPECT_EQ(out.consumed[0] + out.consumed[1], kGlobal);
}

TEST_F(AssemblerTest, AllEosWithTooFewEventsEndsStream) {
  ShipSyncWindow(0, 0, 30, 2);
  ShipSyncWindow(0, 1, 30, 2);
  assembler_->MarkEos(0);
  assembler_->MarkEos(1);
  WindowAssembly out;
  EXPECT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kEndOfStream);
}

TEST_F(AssemblerTest, RemovedNodeIsExcluded) {
  ShipSyncWindow(0, 0, 90, 20);
  // Node 1 fails; the window is built from node 0 alone.
  assembler_->RemoveNode(1);
  WindowAssembly out;
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kAssembled);
  EXPECT_EQ(out.consumed[0], kGlobal);
  EXPECT_EQ(out.consumed[1], 0u);
}

TEST_F(AssemblerTest, StaleInputsAreDropped) {
  ShipSyncWindow(0, 0, 48, 4);
  ShipSyncWindow(0, 1, 48, 4);
  WindowAssembly out;
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kAssembled);
  // Inputs for the already-assembled window 0 are ignored without error.
  EXPECT_TRUE(
      assembler_->AddSlice(0, 0, MakeSlice(Take(0, 5)), 0.0).ok());
  EXPECT_TRUE(
      assembler_->AddRaw(0, 0, BatchRole::kEnd, Take(0, 2), 0.0).ok());
  EXPECT_EQ(assembler_->next_window(), 1u);
}

TEST_F(AssemblerTest, DuplicateRegionsAreErrors) {
  ASSERT_TRUE(
      assembler_->AddSlice(0, 0, MakeSlice(Take(0, 10)), 0.0).ok());
  EXPECT_TRUE(assembler_->AddSlice(0, 0, MakeSlice(Take(0, 10)), 0.0)
                  .IsInternal());
  ASSERT_TRUE(
      assembler_->AddRaw(0, 0, BatchRole::kEnd, Take(0, 2), 0.0).ok());
  EXPECT_TRUE(assembler_->AddRaw(0, 0, BatchRole::kEnd, Take(0, 2), 0.0)
                  .IsInternal());
}

TEST_F(AssemblerTest, UnknownNodeAndBadRoleRejected) {
  EXPECT_TRUE(assembler_->AddSlice(0, 9, SliceSummary{}, 0.0)
                  .IsInvalidArgument());
  EXPECT_TRUE(assembler_->AddRaw(0, 0, BatchRole::kData, {}, 0.0)
                  .IsInvalidArgument());
}

TEST_F(AssemblerTest, LatencyMetaIsEventWeighted) {
  EventVec slice0 = Take(0, 48);
  ASSERT_TRUE(
      assembler_->AddSlice(0, 0, MakeSlice(slice0), 1000.0).ok());
  ASSERT_TRUE(
      assembler_->AddRaw(0, 0, BatchRole::kEnd, Take(0, 4), 2000.0).ok());
  ASSERT_TRUE(
      assembler_->AddSlice(0, 1, MakeSlice(Take(1, 48)), 3000.0).ok());
  ASSERT_TRUE(
      assembler_->AddRaw(0, 1, BatchRole::kEnd, Take(1, 4), 4000.0).ok());
  WindowAssembly out;
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kAssembled);
  EXPECT_EQ(out.create_count, kGlobal);
  EXPECT_GT(out.create_mean, 1000.0);
  EXPECT_LT(out.create_mean, 4000.0);
}

// ------------------------------------------- Async front-buffer extension

class AsyncAssemblerTest : public AssemblerTest {
 protected:
  void SetUp() override {
    AssemblerTest::SetUp();
    assembler_->set_expect_front(true);
  }

  // Ships an async window: front + slice + end.
  void ShipAsyncWindow(uint64_t w, size_t node, size_t front, size_t slice,
                       size_t end) {
    ASSERT_TRUE(assembler_
                    ->AddRaw(w, node, BatchRole::kFront, Take(node, front),
                             0.0)
                    .ok());
    ASSERT_TRUE(assembler_->AddSlice(w, node, MakeSlice(Take(node, slice)),
                                     0.0)
                    .ok());
    ASSERT_TRUE(assembler_
                    ->AddRaw(w, node, BatchRole::kEnd, Take(node, end), 0.0)
                    .ok());
  }
};

TEST_F(AsyncAssemblerTest, WaitsForNextFrontWhenCutUnbounded) {
  // Per-node regions sum exactly to 50: without the next window's front
  // buffer the cut cannot be bounded, so the assembler waits rather than
  // correcting.
  ShipAsyncWindow(0, 0, 2, 46, 2);
  ShipAsyncWindow(0, 1, 2, 46, 2);
  WindowAssembly out;
  EXPECT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNotReady);
  // Window 1's front buffers arrive and extend the selectable region.
  ASSERT_TRUE(
      assembler_->AddRaw(1, 0, BatchRole::kFront, Take(0, 2), 0.0).ok());
  ASSERT_TRUE(
      assembler_->AddRaw(1, 1, BatchRole::kFront, Take(1, 2), 0.0).ok());
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kAssembled);
  EXPECT_EQ(out.event_count, kGlobal);
  EXPECT_EQ(out.consumed[0], 50u);
  EXPECT_EQ(out.consumed[1], 50u);
}

TEST_F(AsyncAssemblerTest, ExtensionConsumesFrontPrefix) {
  // Node 0's end buffer (1 event) is too small for its true share of 50;
  // the cut legally extends into its next window's front buffer, which
  // must shrink accordingly.
  ShipAsyncWindow(0, 0, 2, 46, 1);  // region 49, true share 50
  ShipAsyncWindow(0, 1, 2, 46, 3);  // region 51
  ASSERT_TRUE(
      assembler_->AddRaw(1, 0, BatchRole::kFront, Take(0, 4), 0.0).ok());
  ASSERT_TRUE(
      assembler_->AddRaw(1, 1, BatchRole::kFront, Take(1, 4), 0.0).ok());
  WindowAssembly out;
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kAssembled);
  EXPECT_EQ(out.consumed[0], 50u);
  EXPECT_EQ(out.consumed[1], 50u);
}

// Regression: an EOS node may still hold events for LATER windows (the
// async pipeline runs ahead). Waiving the cut-bounding check for such a
// node once produced windows that silently diverged from the ground
// truth; the waiver must only apply when nothing of the node's stream
// lies beyond the current window's selectable region.
TEST_F(AsyncAssemblerTest, EosWaiverRequiresNoLaterInput) {
  // Node 1 is "finished" but its w1 regions are already pending: its w0
  // end region would be fully selected, and without the later-input guard
  // the window would assemble with node 1's cut unbounded.
  ShipAsyncWindow(0, 0, 2, 44, 2);
  ShipAsyncWindow(0, 1, 2, 50, 2);  // over-contributes to w0
  ShipAsyncWindow(1, 1, 2, 44, 2);  // w1 regions already shipped
  assembler_->MarkEos(1);
  WindowAssembly out;
  const auto outcome = assembler_->TryAssemble(&out);
  // With the guard, this must NOT assemble via the waiver: the node has
  // later input, so the verdict is a correction (or not-ready), never a
  // silently wrong window.
  EXPECT_NE(outcome, WindowAssembler::Outcome::kAssembled);
}

// Regression: end-of-stream must not be declared while events for the
// current window sit in later-tagged pending windows (local plans can
// split the tail differently from the root's numbering).
TEST_F(AssemblerTest, EndOfStreamCountsLaterPendingWindows) {
  // All nodes EOS; window 0 only has 30+30 events directly, but node 0's
  // window 1 regions hold 30 more: the window is 40 short, and node 0,
  // which still retains those events, is topped up by 41.
  ShipSyncWindow(0, 0, 28, 2);
  ShipSyncWindow(0, 1, 28, 2);
  ShipSyncWindow(1, 0, 28, 2);
  assembler_->MarkEos(0);
  assembler_->MarkEos(1);
  WindowAssembly out;
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNeedCorrection);
  std::vector<RepairRequest> requests;
  ASSERT_TRUE(assembler_->BeginRepair(&requests));
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].node, 0u);
  EXPECT_EQ(requests[0].kind, RepairRequest::Kind::kTopUp);
  EXPECT_EQ(requests[0].from_index, 30u);
  EXPECT_EQ(requests[0].count, 41u);
  // Its 30 retained events end its stream; 90 events cannot fill a window.
  ASSERT_TRUE(assembler_->AddRepair(0, Events(0, 30, 30), 0.0,
                                    /*end_of_stream=*/true)
                  .ok());
  EXPECT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kEndOfStream);
}

TEST_F(AssemblerTest, EndOfStreamWhenTrulyNothingLeft) {
  ShipSyncWindow(0, 0, 28, 2);
  ShipSyncWindow(0, 1, 28, 2);
  assembler_->MarkEos(0);
  assembler_->MarkEos(1);
  WindowAssembly out;
  EXPECT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kEndOfStream);
}


// ------------------------------------------------------ In-place repair

TEST_F(AssemblerTest, FullySelectedEdgeTopsUpExactlyD) {
  // Node 0 ships 44 events of its true share of 50: its end buffer (ids
  // 40..43) is fully selected together with 8 of node 1's end events.
  ShipSyncWindow(0, 0, 40, 4);
  ShipSyncWindow(0, 1, 48, 10);
  WindowAssembly out;
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNeedCorrection);
  std::vector<RepairRequest> requests;
  ASSERT_TRUE(assembler_->BeginRepair(&requests));
  EXPECT_TRUE(assembler_->repairing());
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].node, 0u);
  EXPECT_EQ(requests[0].kind, RepairRequest::Kind::kTopUp);
  // From the 44 events the root holds; D = 1 + node 1's 8 selected events
  // after node 0's last held one.
  EXPECT_EQ(requests[0].from_index, 44u);
  EXPECT_EQ(requests[0].count, 9u);
  Answer(requests, {0, 0});
  // One round bounds the cut: the window assembles to the brute force.
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kAssembled);
  EXPECT_EQ(out.consumed, Truth(0));
  EXPECT_DOUBLE_EQ(func_->Finalize(out.partial), 100.0);
  // The repaired window ends the repair and drops what a correction drops.
  EXPECT_FALSE(assembler_->repairing());
  EXPECT_EQ(assembler_->next_window(), 1u);
  EXPECT_EQ(assembler_->leftover_size(0), 0u);
  EXPECT_EQ(assembler_->leftover_size(1), 0u);
  EXPECT_EQ(assembler_->buffered_events(), 0u);
}

TEST_F(AssemblerTest, CutInsideOneSliceOpensOnlyThatSlice) {
  ShipSyncWindow(0, 0, 48, 4);
  ShipSyncWindow(0, 1, 48, 4);
  WindowAssembly out;
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kAssembled);
  // Window 1 starts at id 50 on both nodes with 2 leftovers each. Node
  // 1's slice (ids 52..103) reaches past the cut; node 0's does not.
  ShipSyncWindow(1, 0, 40, 10);
  ShipSyncWindow(1, 1, 52, 4);
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNeedCorrection);
  std::vector<RepairRequest> requests;
  ASSERT_TRUE(assembler_->BeginRepair(&requests));
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].node, 1u);
  EXPECT_EQ(requests[0].kind, RepairRequest::Kind::kOpenSlice);
  EXPECT_EQ(requests[0].from_index, 2u);  // leftover + front
  EXPECT_EQ(requests[0].count, 52u);
  Answer(requests, {50, 50});
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kAssembled);
  EXPECT_EQ(out.consumed, Truth(1));
  EXPECT_DOUBLE_EQ(func_->Finalize(out.partial), 100.0);
}

TEST_F(AssemblerTest, OverestimateOpensTheLatestSlice) {
  // Slices alone sum to 110; node 1's holds the greatest forced key.
  ShipSyncWindow(0, 0, 55, 2);
  ShipSyncWindow(0, 1, 55, 2);
  WindowAssembly out;
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNeedCorrection);
  std::vector<RepairRequest> requests;
  ASSERT_TRUE(assembler_->BeginRepair(&requests));
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].node, 1u);
  EXPECT_EQ(requests[0].kind, RepairRequest::Kind::kOpenSlice);
  EXPECT_EQ(requests[0].from_index, 0u);
  EXPECT_EQ(requests[0].count, 55u);
  Answer(requests, {0, 0});
  // Node 0's slice still reaches past the cut: a second round opens it.
  EXPECT_EQ(RepairUntilAssembled({0, 0}, &out), 1u);
  EXPECT_EQ(out.consumed, Truth(0));
}

TEST_F(AssemblerTest, UnderestimateTopsUpEveryUnfinishedLocal) {
  // 44 + 42 events of 100: 14 short. Each local is topped up by 15 from
  // the events the root holds for it.
  ShipSyncWindow(0, 0, 40, 4);
  ShipSyncWindow(0, 1, 38, 4);
  WindowAssembly out;
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNeedCorrection);
  std::vector<RepairRequest> requests;
  ASSERT_TRUE(assembler_->BeginRepair(&requests));
  ASSERT_EQ(requests.size(), 2u);
  const uint64_t held[kNodes] = {44, 42};
  for (size_t n = 0; n < kNodes; ++n) {
    EXPECT_EQ(requests[n].node, n);
    EXPECT_EQ(requests[n].kind, RepairRequest::Kind::kTopUp);
    EXPECT_EQ(requests[n].from_index, held[n]);
    EXPECT_EQ(requests[n].count, 15u);
  }
  Answer(requests, {0, 0});
  // One round bounds both cuts.
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kAssembled);
  EXPECT_EQ(out.consumed, Truth(0));

  // Window 1 (ids 50..) is 10 short, and local 1 has ended its stream
  // with nothing past it: only local 0 is asked, for 11.
  next_id_.assign(kNodes, 50);  // the locals roll back to the watermark
  ShipSyncWindow(1, 0, 36, 4);
  ShipSyncWindow(1, 1, 46, 4);
  assembler_->MarkEos(1);
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNeedCorrection);
  ASSERT_TRUE(assembler_->BeginRepair(&requests));
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].node, 0u);
  EXPECT_EQ(requests[0].from_index, 40u);
  EXPECT_EQ(requests[0].count, 11u);
  Answer(requests, {50, 50});
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kAssembled);
  EXPECT_EQ(out.consumed, Truth(1));
}

TEST_F(AssemblerTest, RepairThatCannotAdvanceFallsBack) {
  // A top-up that brings nothing before the end of the stream would be
  // asked again unchanged: the held window is emptied instead.
  ShipSyncWindow(0, 0, 40, 4);
  ShipSyncWindow(0, 1, 48, 10);
  WindowAssembly out;
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNeedCorrection);
  std::vector<RepairRequest> requests;
  ASSERT_TRUE(assembler_->BeginRepair(&requests));
  ASSERT_EQ(requests.size(), 1u);
  ASSERT_TRUE(assembler_->AddRepair(0, {}, 0.0, /*end_of_stream=*/false).ok());
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNeedCorrection);
  EXPECT_FALSE(assembler_->BeginRepair(&requests));
  assembler_->BeginCorrection();
  EXPECT_TRUE(assembler_->repairing());
  EXPECT_TRUE(assembler_->emptied());
  // No held input remains.
  EXPECT_EQ(assembler_->buffered_events(), 0u);
  EXPECT_EQ(assembler_->leftover_size(0), 0u);
  EXPECT_EQ(assembler_->leftover_size(1), 0u);
  // Every live local is asked from index 0: their responses alone make
  // the window.
  for (size_t n = 0; n < kNodes; ++n) {
    ASSERT_TRUE(assembler_->AddRepair(n, Events(n, 0, 57), 0.0, false).ok());
  }
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kAssembled);
  EXPECT_EQ(out.consumed, Truth(0));
  EXPECT_DOUBLE_EQ(func_->Finalize(out.partial), 100.0);
}

TEST_F(AssemblerTest, ShortOpenedSliceFallsBack) {
  // An opened slice replaces the slice only with all of its raw events.
  ShipSyncWindow(0, 0, 55, 2);
  ShipSyncWindow(0, 1, 55, 2);
  WindowAssembly out;
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNeedCorrection);
  std::vector<RepairRequest> requests;
  ASSERT_TRUE(assembler_->BeginRepair(&requests));
  ASSERT_EQ(requests.size(), 1u);
  ASSERT_TRUE(
      assembler_->AddRepair(1, Events(1, 0, 54), 0.0, false).ok());
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNeedCorrection);
  EXPECT_FALSE(assembler_->BeginRepair(&requests));
}

TEST_F(AssemblerTest, OpenedSliceFeedsSecondServeSlot) {
  // Two queries on one pane length: sum in slot 0, max in slot 1. Values
  // are `id + 1000 * node`, so the window's max is node 1's last event in
  // it, which lies inside node 1's opened slice.
  QueryRegistry registry;
  for (AggregateKind kind : {AggregateKind::kSum, AggregateKind::kMax}) {
    ServedQuery q;
    q.query.aggregate = kind;
    q.query.window = WindowSpec::CountTumbling(kGlobal);
    ASSERT_TRUE(registry.Add(q).ok());
  }
  SlotBank bank;
  ASSERT_TRUE(bank.Init(&registry).ok());
  ASSERT_EQ(bank.size(), 2u);
  assembler_->set_slot_bank(&bank);
  id_values_ = true;
  auto ship = [&](size_t node, size_t slice, size_t end) {
    const EventVec events = Take(node, slice);
    SliceSummary summary = MakeSlice(events);
    SlotPartial extra;
    extra.slot = 1;
    extra.partial = bank.func(1)->CreatePartial();
    for (const Event& e : events) {
      bank.func(1)->Accumulate(&extra.partial, e.value);
    }
    summary.extras.push_back(extra);
    ASSERT_TRUE(assembler_->AddSlice(0, node, summary, 0.0).ok());
    ASSERT_TRUE(
        assembler_->AddRaw(0, node, BatchRole::kEnd, Take(node, end), 0.0)
            .ok());
  };
  ship(0, 40, 11);
  ship(1, 52, 4);  // node 1's slice (ids 0..51) reaches past the cut
  WindowAssembly out;
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNeedCorrection);
  std::vector<RepairRequest> requests;
  ASSERT_TRUE(assembler_->BeginRepair(&requests));
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].kind, RepairRequest::Kind::kOpenSlice);
  Answer(requests, {0, 0});
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kAssembled);
  EXPECT_EQ(out.consumed, Truth(0));
  ASSERT_EQ(out.slots.size(), 2u);
  // Ids 0..49 of both nodes: the slice's own max (1051) is dropped with
  // its extras, and its selected raw events feed slot 1.
  EXPECT_DOUBLE_EQ(bank.func(1)->Finalize(out.slots[1]), 1049.0);
  EXPECT_DOUBLE_EQ(func_->Finalize(out.partial), 2 * 1225.0 + 50 * 1000.0);
}

TEST_F(AssemblerTest, SliceMissingAServeSlotOpensIt) {
  // Two queries on one pane length: sum in slot 0, max in slot 1. Values
  // are `id + 1000 * node`, so the window's max is node 1's event 49.
  QueryRegistry registry;
  for (AggregateKind kind : {AggregateKind::kSum, AggregateKind::kMax}) {
    ServedQuery q;
    q.query.aggregate = kind;
    q.query.window = WindowSpec::CountTumbling(kGlobal);
    ASSERT_TRUE(registry.Add(q).ok());
  }
  SlotBank bank;
  ASSERT_TRUE(bank.Init(&registry).ok());
  assembler_->set_slot_bank(&bank);
  id_values_ = true;
  // Node 0's slice carries slot 1's partial. Node 1 missed the slot: its
  // slice (ids 0..49, holding the max) has no partial for it.
  const EventVec events = Take(0, 44);
  SliceSummary summary = MakeSlice(events);
  SlotPartial extra;
  extra.slot = 1;
  extra.partial = bank.func(1)->CreatePartial();
  for (const Event& e : events) bank.func(1)->Accumulate(&extra.partial, e.value);
  summary.extras.push_back(extra);
  ASSERT_TRUE(assembler_->AddSlice(0, 0, summary, 0.0).ok());
  ASSERT_TRUE(
      assembler_->AddRaw(0, 0, BatchRole::kEnd, Take(0, 8), 0.0).ok());
  ShipSyncWindow(0, 1, 50, 4);
  WindowAssembly out;
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNeedCorrection);
  std::vector<RepairRequest> requests;
  ASSERT_TRUE(assembler_->BeginRepair(&requests));
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].node, 1u);
  EXPECT_EQ(requests[0].kind, RepairRequest::Kind::kOpenSlice);
  EXPECT_EQ(requests[0].from_index, 0u);
  EXPECT_EQ(requests[0].count, 50u);
  Answer(requests, {0, 0});
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kAssembled);
  EXPECT_EQ(out.consumed, Truth(0));
  ASSERT_EQ(out.slots.size(), 2u);
  EXPECT_DOUBLE_EQ(bank.func(1)->Finalize(out.slots[1]), 1049.0);
  EXPECT_DOUBLE_EQ(func_->Finalize(out.partial), 2 * 1225.0 + 50 * 1000.0);
}

TEST_F(AsyncAssemblerTest, TopUpStartsAfterTheNextFront) {
  ShipAsyncWindow(0, 0, 2, 40, 2);
  ShipAsyncWindow(0, 1, 2, 50, 4);
  ASSERT_TRUE(
      assembler_->AddRaw(1, 0, BatchRole::kFront, Take(0, 2), 0.0).ok());
  ASSERT_TRUE(
      assembler_->AddRaw(1, 1, BatchRole::kFront, Take(1, 2), 0.0).ok());
  // Node 0's end and next front (ids 42..45) are all selected, with two
  // of node 1's end events after them.
  WindowAssembly out;
  ASSERT_EQ(assembler_->TryAssemble(&out),
            WindowAssembler::Outcome::kNeedCorrection);
  std::vector<RepairRequest> requests;
  ASSERT_TRUE(assembler_->BeginRepair(&requests));
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].node, 0u);
  EXPECT_EQ(requests[0].kind, RepairRequest::Kind::kTopUp);
  // front 2 + slice 40 + end 2 + next front 2.
  EXPECT_EQ(requests[0].from_index, 46u);
  EXPECT_EQ(requests[0].count, 3u);
  Answer(requests, {0, 0});
  RepairUntilAssembled({0, 0}, &out);
  EXPECT_EQ(out.consumed, Truth(0));
}

}  // namespace
}  // namespace deco
