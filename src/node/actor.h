#pragma once

#include <atomic>
#include <optional>
#include <string>
#include <thread>

#include "common/clock.h"
#include "common/status.h"
#include "net/fabric.h"
#include "obs/run_context.h"

/// \file actor.h
/// \brief Thread-per-node actor base class.
///
/// Each node of the decentralized topology (Fig. 1 of the paper) is an
/// `Actor`: a thread with a fabric mailbox. Subclasses implement `Run()`;
/// the runtime starts all actors, lets the streams flow, and joins them.
/// Actors communicate exclusively through the fabric — there is no shared
/// mutable state between nodes, mirroring a real deployment.

namespace deco {

/// \brief Base class for root and local node implementations.
class Actor {
 public:
  /// \param fabric the network; not owned, must outlive the actor
  /// \param id this node's fabric id
  /// \param clock wall-clock used for latency measurement and timeouts
  /// \param run the run's observability state (metrics, spans, hops,
  ///        profile); not owned, must outlive the actor thread
  Actor(NetworkFabric* fabric, NodeId id, Clock* clock, RunContext* run)
      : fabric_(fabric), id_(id), clock_(clock), run_(run) {}

  virtual ~Actor() = default;

  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  /// \brief Spawns the actor thread. If the fabric runs in sim mode
  /// (`NetworkFabric::sim()` non-null), the thread registers as a sim task:
  /// it executes only when the scheduler grants it the virtual CPU, and all
  /// of its receives and sleeps block in virtual time.
  void Start();

  /// \brief This actor's sim task id (valid after `Start` in sim mode).
  SimTaskId sim_task() const { return sim_task_; }

  /// \brief Waits for `Run` to return.
  void Join();

  /// \brief Cooperative stop: sets the stop flag and closes the mailbox so
  /// a blocked `Receive` wakes up.
  void RequestStop();

  /// \brief First error encountered by `Run`, or OK.
  Status status() const;

  NodeId id() const { return id_; }

 protected:
  /// \brief Actor body; runs on the actor thread. Return value is recorded
  /// as `status()`.
  virtual Status Run() = 0;

  /// \brief Sends a message, filling in the source id.
  Status Send(Message msg) {
    msg.src = id_;
    return fabric_->Send(std::move(msg));
  }

  /// \brief `Send` that survives a chaos crash of this node: on NodeFailed
  /// (the fabric marked this node down) the actor pauses until it is
  /// revived, then resends a copy — the receiver never saw the failed
  /// attempt. Used by the baseline locals, which have no protocol-level
  /// rejoin; returns OK if the run stops while the node is down.
  Status SendRetryingCrash(Message msg);

  /// \brief Blocking receive; empty once the mailbox is closed and drained.
  std::optional<Message> Receive() {
    ProfileReceiveEnter();
    SimScheduler* sim = fabric_->sim();
    std::optional<Message> msg =
        sim != nullptr ? sim->Pop(fabric_->mailbox(id_), TimeNanos{-1})
                       : fabric_->mailbox(id_)->Pop();
    FinishHop(msg);
    ProfileDequeue(msg);
    return msg;
  }

  /// \brief Receive with timeout; empty on timeout or closure. In sim mode
  /// the timeout elapses in virtual time.
  std::optional<Message> ReceiveWithTimeout(TimeNanos timeout_nanos) {
    ProfileReceiveEnter();
    SimScheduler* sim = fabric_->sim();
    std::optional<Message> msg =
        sim != nullptr
            ? sim->Pop(fabric_->mailbox(id_),
                       sim->Now() + timeout_nanos)
            : fabric_->mailbox(id_)->PopWithTimeout(
                  std::chrono::nanoseconds(timeout_nanos));
    FinishHop(msg);
    ProfileDequeue(msg);
    return msg;
  }

  /// \brief Non-blocking receive.
  std::optional<Message> TryReceive() {
    ProfileReceiveEnter();
    std::optional<Message> msg = fabric_->mailbox(id_)->TryPop();
    FinishHop(msg);
    ProfileDequeue(msg);
    return msg;
  }

  /// \brief Completes a stamped message's hop record at dequeue time and
  /// hands it to the run's hop recorders. The fabric stamps only when the
  /// run records hops, so an unstamped message costs one branch. Compiles
  /// to nothing with `DECO_TRACE=OFF`.
#if DECO_TRACE_ENABLED
  void FinishHop(std::optional<Message>& msg) {
    if (!msg.has_value() || msg->hop.msg_id == 0) return;
    msg->hop.dequeue_nanos = clock_->NowNanos();
    run_->RecordHop(*msg);
  }
#else
  void FinishHop(std::optional<Message>&) {}
#endif

  /// \brief Profiler hooks around the receive calls (DESIGN.md §9). The
  /// handler interval opened at dequeue closes on re-entry into the next
  /// receive, so handler cost includes any follow-up work the actor does
  /// between receives. One null check each in an unprofiled run (`prof_`
  /// is only set in a profiled one).
  void ProfileReceiveEnter() {
    if (prof_ != nullptr) prof_->HandlerEnd();
  }
  void ProfileDequeue(const std::optional<Message>& msg) {
    if (prof_ != nullptr && msg.has_value()) prof_->HandlerBegin(msg->type);
  }

  bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }

  /// \brief Sleeps in virtual time on a sim task, in wall time otherwise.
  /// The polling loops of the crash-retry paths use this so chaos recovery
  /// behaves identically in both modes.
  void SleepNanos(TimeNanos nanos);

  TimeNanos NowNanos() const { return clock_->NowNanos(); }

  /// \brief The run's metric registry; instruments are looked up at
  /// first use, so each appears in the run's telemetry from then on.
  MetricRegistry* metrics() const { return &run_->metrics; }

  NetworkFabric* fabric_;
  NodeId id_;
  Clock* clock_;
  RunContext* run_;

  /// This actor thread's profiler slot; null unless the run is profiled.
  Profiler::ThreadSlot* prof_ = nullptr;

 private:
  std::thread thread_;
  SimTaskId sim_task_ = kInvalidSimTask;
  std::atomic<bool> stop_{false};
  mutable std::mutex status_mu_;
  Status status_;
};

}  // namespace deco
