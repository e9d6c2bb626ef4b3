#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "chaos/schedule.h"
#include "common/clock.h"
#include "net/fabric.h"
#include "obs/metric_registry.h"

/// \file controller.h
/// \brief Actor that applies a `ChaosSchedule` to a live `NetworkFabric`.
///
/// `Prepare` compiles the schedule into a time-sorted action list: each
/// duration-style fault expands into an apply action plus a restore action
/// `duration_nanos` later, and targets are resolved to NodeIds against the
/// fabric's registered names. `Start` then runs a dedicated thread that
/// fires actions at their offsets from the start instant; alternatively a
/// deterministic test drives `ApplyDue(offset)` by hand with a
/// `ManualClock` and never starts the thread.
///
/// Every fired action is recorded in an audit log. `ChaosAuditEntry::
/// Describe()` deliberately excludes wall-clock time so two runs of the
/// same schedule produce byte-identical audit transcripts (the determinism
/// contract chaos tests assert).

namespace deco {

/// \brief One fired chaos action.
struct ChaosAuditEntry {
  TimeNanos scheduled_at = 0;    ///< Schedule offset the action was due at.
  TimeNanos fired_at_nanos = 0;  ///< Clock reading when it actually fired.
  FaultKind kind = FaultKind::kCrash;
  bool is_restore = false;  ///< True for the revert half of a duration fault.
  std::string target;
  std::string detail;  ///< e.g. "drop_probability=0.5 on 4 links".

  /// \brief Deterministic one-line rendering (no wall-clock time).
  std::string Describe() const;
};

/// \brief Applies scheduled faults to the fabric and records an audit log.
///
/// Thread-safety: `Prepare`/`AddRateHandle` are setup-phase calls; once
/// `Start` has been called only `Stop`, `ApplyDue` (internally), and the
/// const accessors may be used concurrently.
class ChaosController {
 public:
  /// \param fabric fabric to mutate; not owned, must outlive the controller
  /// \param clock time source for firing offsets; not owned
  /// \param metrics the run's registry, which counts fired faults; not
  ///        owned, must outlive the controller
  ChaosController(NetworkFabric* fabric, Clock* clock,
                  MetricRegistry* metrics);
  ~ChaosController();

  ChaosController(const ChaosController&) = delete;
  ChaosController& operator=(const ChaosController&) = delete;

  /// \brief Registers the ingest-rate multiplier of a node, written by
  /// `kRateSurge` events targeting `node_name`. Call before `Prepare`.
  void AddRateHandle(const std::string& node_name,
                     std::shared_ptr<std::atomic<double>> handle);

  /// \brief Validates the schedule, resolves targets against the fabric's
  /// registered node names, and compiles the action list. Returns
  /// InvalidArgument for unknown targets or a surge target without a rate
  /// handle.
  Status Prepare(const ChaosSchedule& schedule);

  /// \brief Deterministic simulation mode: `Start` registers every compiled
  /// action as a timer event on `sim`'s queue instead of spawning the
  /// firing thread, so faults land at exact virtual offsets and in a
  /// reproducible order relative to all message deliveries. Call before
  /// `Start`.
  void SetSimScheduler(SimScheduler* sim) { sim_ = sim; }

  /// \brief Starts the firing thread (or, in sim mode, schedules the
  /// actions as timer events); offsets are measured from this call. No-op
  /// for an empty action list.
  Status Start();

  /// \brief Stops the firing thread and joins it; pending future actions
  /// are abandoned (they stay unfired in the audit log). Safe to call
  /// twice or without `Start`.
  void Stop();

  /// \brief Applies every not-yet-applied action with offset <= `offset`,
  /// in schedule order. This is the deterministic driver used by tests
  /// with a `ManualClock`; the firing thread calls it internally too.
  Status ApplyDue(TimeNanos offset);

  /// \brief Copy of the audit log so far.
  std::vector<ChaosAuditEntry> AuditLog() const;

  /// \brief Number of actions compiled by `Prepare` (applies + restores).
  size_t action_count() const { return actions_.size(); }

  /// \brief Actions fired so far.
  size_t fired_count() const {
    return next_action_.load(std::memory_order_acquire);
  }

 private:
  /// One compiled action: either the apply half or the restore half of a
  /// `FaultEvent`.
  struct Action {
    TimeNanos at = 0;
    FaultKind kind = FaultKind::kCrash;
    bool is_restore = false;
    NodeId node = 0;
    size_t event_id = 0;  // index of the source event in the schedule
    std::string target;
    FaultEvent event;  // parameters (drop prob, latency, factor)
  };

  Status ApplyAction(const Action& action, TimeNanos fired_at);
  void RunLoop();

  /// Rewrites one shaping field on every link touching `node`, returning a
  /// human-readable summary for the audit log. `restore` puts back the
  /// values saved by the matching apply.
  Status ApplyLinkFault(const Action& action, std::string* detail);

  NetworkFabric* fabric_;
  Clock* clock_;
  MetricRegistry* metrics_;
  SimScheduler* sim_ = nullptr;

  std::map<std::string, std::shared_ptr<std::atomic<double>>> rate_handles_;

  std::vector<Action> actions_;  // time-sorted; immutable after Prepare.
  std::atomic<size_t> next_action_{0};

  // Saved per-link shaping values, keyed by source event id so the restore
  // half puts back exactly what its apply displaced.
  std::map<size_t, std::map<std::pair<NodeId, NodeId>, LinkConfig>> saved_;

  mutable std::mutex mu_;  // guards audit_, saved_, and action application
  std::vector<ChaosAuditEntry> audit_;

  std::thread thread_;
  std::mutex thread_mu_;
  std::condition_variable thread_cv_;
  bool stop_requested_ = false;
  bool started_ = false;
  TimeNanos start_nanos_ = 0;
};

}  // namespace deco
