#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "metrics/report.h"
#include "net/message.h"

/// \file profiler.h
/// \brief Low-overhead in-run CPU/allocation profiler (DESIGN.md §9).
///
/// A profiled run owns one `Profiler` through its `RunContext`. Each actor
/// thread registers a `ThreadSlot` at startup; the slot samples
/// `CLOCK_THREAD_CPUTIME_ID` at actor start/stop and around every
/// message-handler dispatch, yielding
///  - per-thread CPU/wall totals ("root saturates under Central, locals do
///    the work under Deco" as a measured table),
///  - handler-level wall/cpu attribution keyed by `MessageType`, and
///  - per-thread allocation counts via the opt-in counting allocator hook
///    (`alloc_hook.cc`; CMake option `DECO_PROFILE_ALLOC`).
///
/// Attribution model: the interval from a message's dequeue to the actor's
/// *next* receive call is charged to that message's type. A blocked receive
/// consumes no CPU, so CPU attribution is tight; actors that interleave
/// non-message work between receives (a local node's ingest loop) fold that
/// work into the preceding handler, making the split an upper bound there.
///
/// Overhead: in an unprofiled run, each receive costs one null-pointer
/// check (the actor caches the slot pointer); no clock is read, no sample
/// is recorded. In a profiled run, each dispatch costs two
/// `clock_gettime` calls. Allocation counting costs one relaxed atomic
/// load per `operator new` in every binary that links the hook, whether
/// or not a profiler is live.
///
/// Thread-safety contract: `ThreadSlot` methods are called only by the
/// owning actor thread; `Collect` may run concurrently with registration
/// but reads a slot's totals only after its `Finish` (release/acquire on
/// `finished_`). The harness creates the profiler before `StartAll` and
/// collects after `JoinAll`, so in practice there is no overlap.

namespace deco {

/// \brief CPU time consumed by the calling thread, via
/// `CLOCK_THREAD_CPUTIME_ID`. Monotonic per thread; 0 if unsupported.
TimeNanos ThreadCpuNanos();

/// \brief Allocation counters of the calling thread (monotonic totals
/// since thread start, counted only while counting is enabled).
struct AllocCounters {
  uint64_t count = 0;  ///< operator-new calls
  uint64_t bytes = 0;  ///< bytes requested
};

/// \brief True when the counting `operator new` replacement is compiled in
/// (CMake option `DECO_PROFILE_ALLOC`, default ON). When false the other
/// two functions are inert and every counter stays zero.
bool AllocCountingCompiledIn();

/// \brief Holds the counting allocator on; counting runs while at least
/// one hold is live. Process-wide because the replaced `operator new` is:
/// it cannot tell which run an allocation belongs to, so it counts for
/// every thread while any profiled run that asked for counting is live.
/// Costs one relaxed atomic load per allocation.
void RetainAllocCounting();

/// \brief Releases one `RetainAllocCounting` hold.
void ReleaseAllocCounting();

/// \brief Snapshot of the calling thread's allocation counters.
AllocCounters ThreadAllocCounters();

/// \brief Collects per-thread CPU/alloc profiles for one run.
class Profiler {
 public:
  /// \brief Per-actor-thread recording slot. Owned by the profiler;
  /// methods must be called on the registered thread only.
  class ThreadSlot {
   public:
    /// \brief Opens a handler interval for a just-dequeued message.
    void HandlerBegin(MessageType type);

    /// \brief Closes the open handler interval (no-op when none is open),
    /// charging the elapsed CPU/wall time to its message type. Called on
    /// re-entry into a receive, so "handler" spans dequeue -> next receive.
    void HandlerEnd();

    /// \brief Finalizes the slot at actor-body exit: closes any open
    /// handler and snapshots thread CPU/wall/alloc totals.
    void Finish();

   private:
    friend class Profiler;

    struct PerType {
      uint64_t count = 0;
      uint64_t cpu_nanos = 0;
      uint64_t wall_nanos = 0;
    };

    std::string name_;
    TimeNanos start_cpu_nanos_ = 0;
    TimeNanos start_wall_nanos_ = 0;
    AllocCounters start_alloc_;

    bool open_ = false;
    MessageType open_type_ = MessageType::kEventBatch;
    TimeNanos open_cpu_nanos_ = 0;
    TimeNanos open_wall_nanos_ = 0;

    std::array<PerType, kNumMessageTypes> by_type_{};

    // Totals, written once by Finish (release), read by Collect (acquire).
    uint64_t cpu_nanos_ = 0;
    uint64_t wall_nanos_ = 0;
    uint64_t allocations_ = 0;
    uint64_t allocated_bytes_ = 0;
    std::atomic<bool> finished_{false};
  };

  /// \param count_allocs also hold the counting allocator on for this
  ///        profiler's lifetime (if compiled in)
  explicit Profiler(bool count_allocs = true);
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// \brief Registers the calling thread under `name` and snapshots its
  /// starting CPU/wall/alloc counters. The returned slot stays valid for
  /// the profiler's lifetime. Thread-safe.
  ThreadSlot* RegisterThread(const std::string& name);

  /// \brief Builds the run's profile. Call after every registered thread
  /// has finished; threads still running contribute their handler tallies
  /// but zero totals.
  ProfileReport Collect() const;

  /// \brief Whether allocation counting is live for this profiler.
  bool alloc_counting() const {
    return count_allocs_ && AllocCountingCompiledIn();
  }

 private:
  bool count_allocs_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSlot>> slots_;
};

}  // namespace deco
