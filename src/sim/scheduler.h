#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include <condition_variable>

#include "common/clock.h"
#include "common/queue.h"
#include "common/random.h"
#include "common/status.h"

/// \file scheduler.h
/// \brief Deterministic discrete-event scheduler for simulated runs
/// (DESIGN.md §8).
///
/// In `--sim` mode the whole runtime — every actor thread, every fabric
/// delivery, every chaos action and telemetry tick — is driven by one
/// `SimScheduler` owning one `SimClock`. Actors stay ordinary OS threads,
/// but at most one is ever *runnable*: a thread only executes between the
/// scheduler granting it the (virtual) CPU and its next blocking call
/// (mailbox pop, sleep, yield), at which point control returns to the
/// scheduler's driver loop. All scheduling decisions — which runnable task
/// goes next, when virtual time advances — come from a single seeded PRNG
/// and a single event queue, so a run is a pure function of
/// `(config, seed)`: byte-identical reports, byte counters and message
/// orders on every replay, on any machine, under any sanitizer.
///
/// Every hand-off wakes exactly one thread: a grant notifies the granted
/// task's own condition variable, and a block, yield or finish notifies
/// the driver's. No thread waits on the timer queue, so `ScheduleAt`
/// wakes nobody.
///
/// The driver loop (one of `RunUntilTaskDone` / `RunUntilQuiescent` /
/// `DrainAll`) repeats:
///   1. fire the earliest due timer event (ties broken by schedule order);
///   2. re-check every blocked task's wake predicate / deadline;
///   3. if any task is runnable, pick one with the seeded PRNG and hand it
///      the CPU until it blocks again;
///   4. otherwise advance the `SimClock` straight to the next event or
///      deadline — sleeps cost zero wall time;
///   5. if there is nothing to advance to and live tasks remain, report a
///      deadlock naming the blocked tasks.

namespace deco {

/// Index of a task registered with the scheduler.
using SimTaskId = size_t;

inline constexpr SimTaskId kInvalidSimTask = static_cast<SimTaskId>(-1);

class SimScheduler {
 public:
  /// \brief `seed` drives every pick among simultaneously runnable tasks;
  /// `start_nanos` is the initial virtual time.
  explicit SimScheduler(uint64_t seed, TimeNanos start_nanos = 0);

  /// \brief Requires every task to have finished (joined threads call
  /// `TaskMain` to completion before this is safe); asserts in debug if a
  /// task is still live.
  ~SimScheduler();

  SimClock* clock() { return &clock_; }
  TimeNanos Now() const { return clock_.NowNanos(); }

  // --- Driver-side API (call from the thread that owns the scheduler). ---

  /// \brief Registers a task slot. The task's thread must call
  /// `TaskMain(id, body)` as its thread function.
  SimTaskId AddTask(std::string name);

  /// \brief Runs the simulation until task `id` finishes. Fails with
  /// `Internal` on deadlock and `DeadlineExceeded` when the virtual-time
  /// limit is hit.
  Status RunUntilTaskDone(SimTaskId id);

  /// \brief Runs until no task is runnable and no timer event is due —
  /// i.e. nothing can make progress without more input or time.
  Status RunUntilQuiescent();

  /// \brief Runs until every registered task has finished. All remaining
  /// waits must be unblockable (closed queues, finite deadlines).
  Status DrainAll();

  /// \brief Aborts driver loops with `DeadlineExceeded` once virtual time
  /// would pass `limit_nanos` (0 = unlimited). Guards against virtual
  /// livelock: a buggy protocol that keeps re-arming timeouts forever.
  void SetVirtualTimeLimit(TimeNanos limit_nanos) {
    std::lock_guard<std::mutex> lock(mu_);
    limit_nanos_ = limit_nanos;
  }

  /// \brief Number of scheduling decisions taken so far (diagnostics).
  uint64_t steps() const {
    std::lock_guard<std::mutex> lock(mu_);
    return steps_;
  }

  // --- Any-thread API. ---

  /// \brief Schedules `fn` to run on the driver thread at virtual time
  /// `at_nanos` (clamped to now if in the past). Events at equal times fire
  /// in schedule order. This is how fabric deliveries, chaos actions and
  /// telemetry ticks enter the simulation.
  void ScheduleAt(TimeNanos at_nanos, std::function<void()> fn);

  // --- Task-side API (call only from a task thread, between grants). ---

  /// \brief Thread function wrapper: waits for the first CPU grant, runs
  /// `body`, then marks the task done. Installs the thread-local scheduler
  /// pointer for the duration so `Current()` works inside `body`.
  void TaskMain(SimTaskId id, const std::function<void()>& body);

  /// \brief Blocks the calling task until `pred()` holds or virtual time
  /// reaches `deadline_nanos` (< 0 = no deadline). `pred` is evaluated by
  /// the driver with the scheduler lock held: it must be cheap and must not
  /// call back into the scheduler.
  void WaitUntil(std::function<bool()> pred, TimeNanos deadline_nanos);

  /// \brief Blocks the calling task for `delta_nanos` of virtual time.
  void SleepFor(TimeNanos delta_nanos);

  /// \brief Gives the scheduler a chance to run other tasks / fire events.
  void Yield();

  /// \brief Deterministic replacement for `BlockingQueue::Pop` /
  /// `PopWithTimeout`: pops the next item, blocking in virtual time until
  /// one arrives, the queue closes, or `deadline_nanos` (< 0 = none)
  /// passes.
  template <typename T>
  std::optional<T> Pop(BlockingQueue<T>* queue, TimeNanos deadline_nanos) {
    while (true) {
      if (std::optional<T> item = queue->TryPop()) return item;
      if (queue->closed()) return std::nullopt;
      if (deadline_nanos >= 0 && Now() >= deadline_nanos) {
        return std::nullopt;
      }
      WaitUntil([queue] { return !queue->empty() || queue->closed(); },
                deadline_nanos);
    }
  }

  /// \brief Scheduler driving the calling thread's current task, or the one
  /// whose driver loop is executing the current timer event; null on
  /// ordinary threads.
  static SimScheduler* Current();

  /// \brief True only on a thread currently running as a granted sim task —
  /// i.e. it may call the blocking task-side API.
  static bool OnSimTask();

 private:
  enum class TaskState : uint8_t {
    kNotStarted,  // AddTask'd; thread has not reached TaskMain yet
    kRunnable,    // ready for a CPU grant
    kRunning,     // holds the (virtual) CPU
    kBlocked,     // waiting on pred / deadline
    kDone,        // body returned
  };

  struct Task {
    std::string name;
    TaskState state = TaskState::kNotStarted;
    std::function<bool()> pred;   // valid iff kBlocked
    TimeNanos deadline = -1;      // valid iff kBlocked; < 0 = none
    // The task's thread parks here between grants; only a grant to this
    // task notifies it.
    std::condition_variable cv;
  };

  struct TimerEvent {
    TimeNanos at;
    uint64_t seq;  // tie-break: schedule order
    std::function<void()> fn;
  };
  struct TimerEventLater {
    bool operator()(const TimerEvent& a, const TimerEvent& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  enum class RunMode { kUntilTaskDone, kUntilQuiescent, kDrainAll };

  Status Run(RunMode mode, SimTaskId target);
  std::string BlockedTaskNamesLocked() const;

  mutable std::mutex mu_;
  // The driver parks here while a task holds the CPU or a task has yet to
  // check in. Task check-in, block, yield and finish notify it.
  std::condition_variable driver_cv_;
  SimClock clock_;
  Rng rng_;
  // Deque, not vector: task threads park on their `Task::cv` with a
  // captured `Task&` while later `AddTask` calls still append (StartAll
  // registers actors concurrently with earlier actors checking in).
  // References into a deque survive emplace_back; vector reallocation
  // would dangle them (and a condition variable cannot move).
  std::deque<Task> tasks_;
  std::priority_queue<TimerEvent, std::vector<TimerEvent>, TimerEventLater>
      events_;
  uint64_t next_event_seq_ = 0;
  SimTaskId running_ = kInvalidSimTask;
  TimeNanos limit_nanos_ = 0;
  uint64_t steps_ = 0;
  bool driving_ = false;  // a driver loop is active (sanity checks)
};

}  // namespace deco
