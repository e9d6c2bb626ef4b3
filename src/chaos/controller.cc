#include "chaos/controller.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "common/logging.h"

namespace deco {

std::string ChaosAuditEntry::Describe() const {
  std::ostringstream out;
  out << "@" << scheduled_at / kNanosPerMilli << "ms "
      << (is_restore ? "restore-" : "") << FaultKindName(kind) << " "
      << target;
  if (!detail.empty()) out << " (" << detail << ")";
  return out.str();
}

ChaosController::ChaosController(NetworkFabric* fabric, Clock* clock,
                                 MetricRegistry* metrics)
    : fabric_(fabric), clock_(clock), metrics_(metrics) {}

ChaosController::~ChaosController() { Stop(); }

void ChaosController::AddRateHandle(
    const std::string& node_name,
    std::shared_ptr<std::atomic<double>> handle) {
  rate_handles_[node_name] = std::move(handle);
}

Status ChaosController::Prepare(const ChaosSchedule& schedule) {
  DECO_RETURN_NOT_OK(schedule.Validate());

  std::map<std::string, NodeId> by_name;
  for (NodeId id = 0; id < fabric_->node_count(); ++id) {
    by_name[fabric_->node_name(id)] = id;
  }

  actions_.clear();
  saved_.clear();
  next_action_.store(0, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    audit_.clear();
  }

  const std::vector<FaultEvent>& events = schedule.events();
  for (size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    auto it = by_name.find(e.target);
    if (it == by_name.end()) {
      return Status::InvalidArgument("chaos target '" + e.target +
                                     "' is not a registered node");
    }
    if (e.kind == FaultKind::kRateSurge &&
        rate_handles_.find(e.target) == rate_handles_.end()) {
      return Status::InvalidArgument("chaos surge target '" + e.target +
                                     "' has no ingest rate handle");
    }
    Action apply;
    apply.at = e.at_nanos;
    apply.kind = e.kind;
    apply.node = it->second;
    apply.event_id = i;
    apply.target = e.target;
    apply.event = e;
    actions_.push_back(apply);

    const bool duration_style = e.kind == FaultKind::kDropBurst ||
                                e.kind == FaultKind::kLatencySpike ||
                                e.kind == FaultKind::kPartition ||
                                e.kind == FaultKind::kRateSurge;
    if (duration_style && e.duration_nanos > 0) {
      Action restore = apply;
      restore.at = e.at_nanos + e.duration_nanos;
      restore.is_restore = true;
      actions_.push_back(std::move(restore));
    }
  }

  // Ties resolve in schedule order (stable), which Validate treats as the
  // semantics for crash/restart pairing.
  std::stable_sort(actions_.begin(), actions_.end(),
                   [](const Action& a, const Action& b) { return a.at < b.at; });
  return Status::OK();
}

Status ChaosController::ApplyLinkFault(const Action& action,
                                       std::string* detail) {
  const size_t n = fabric_->node_count();
  size_t touched = 0;
  std::lock_guard<std::mutex> lock(mu_);
  auto& saved = saved_[action.event_id];
  for (NodeId other = 0; other < n; ++other) {
    if (other == action.node) continue;
    const std::pair<NodeId, NodeId> out_key{action.node, other};
    const std::pair<NodeId, NodeId> in_key{other, action.node};
    for (const auto& key : {out_key, in_key}) {
      DECO_ASSIGN_OR_RETURN(LinkConfig config,
                            fabric_->GetLinkConfig(key.first, key.second));
      if (!action.is_restore) {
        saved[key] = config;
        if (action.kind == FaultKind::kDropBurst) {
          config.drop_probability = action.event.drop_probability;
        } else {
          config.latency_nanos = action.event.latency_nanos;
        }
      } else {
        // Put back only the field this fault displaced; concurrent faults
        // may own the other fields by now.
        auto it = saved.find(key);
        if (it == saved.end()) continue;
        if (action.kind == FaultKind::kDropBurst) {
          config.drop_probability = it->second.drop_probability;
        } else {
          config.latency_nanos = it->second.latency_nanos;
        }
      }
      DECO_RETURN_NOT_OK(
          fabric_->SetLinkConfig(key.first, key.second, config));
      ++touched;
    }
  }
  std::ostringstream out;
  if (action.kind == FaultKind::kDropBurst) {
    out << "drop_probability="
        << (action.is_restore ? "restored" : std::to_string(
                                                 action.event.drop_probability))
        << " on " << touched << " links";
  } else {
    out << "latency="
        << (action.is_restore
                ? "restored"
                : std::to_string(action.event.latency_nanos / kNanosPerMilli) +
                      "ms")
        << " on " << touched << " links";
  }
  *detail = out.str();
  return Status::OK();
}

Status ChaosController::ApplyAction(const Action& action,
                                    TimeNanos fired_at) {
  std::string detail;
  Status status = Status::OK();
  switch (action.kind) {
    case FaultKind::kCrash:
      status = fabric_->SetNodeDown(action.node, true);
      detail = "node down";
      metrics_->counter("chaos.crashes")->Increment();
      break;
    case FaultKind::kRestart:
      status = fabric_->SetNodeDown(action.node, false);
      detail = "node up, incarnation " +
               std::to_string(fabric_->node_incarnation(action.node));
      metrics_->counter("chaos.restarts")->Increment();
      break;
    case FaultKind::kDropBurst:
    case FaultKind::kLatencySpike:
      status = ApplyLinkFault(action, &detail);
      break;
    case FaultKind::kPartition:
      status = fabric_->PartitionNode(action.node, !action.is_restore);
      detail = action.is_restore ? "healed" : "isolated";
      break;
    case FaultKind::kRateSurge: {
      auto it = rate_handles_.find(action.target);
      if (it == rate_handles_.end()) {
        status = Status::InvalidArgument("no rate handle for '" +
                                         action.target + "'");
        break;
      }
      const double factor =
          action.is_restore ? 1.0 : action.event.rate_factor;
      it->second->store(factor, std::memory_order_release);
      detail = "rate x" + std::to_string(factor);
      break;
    }
  }
  DECO_RETURN_NOT_OK(status);

  ChaosAuditEntry entry;
  entry.scheduled_at = action.at;
  entry.fired_at_nanos = fired_at;
  entry.kind = action.kind;
  entry.is_restore = action.is_restore;
  entry.target = action.target;
  entry.detail = detail;
  {
    std::lock_guard<std::mutex> lock(mu_);
    audit_.push_back(std::move(entry));
  }
  metrics_->counter("chaos.events_fired")->Increment();
  return Status::OK();
}

Status ChaosController::ApplyDue(TimeNanos offset) {
  // Actions fire strictly in compiled order; `next_action_` is only
  // advanced here, under no lock — callers are the single firing thread or
  // a single-threaded test driver.
  size_t i = next_action_.load(std::memory_order_acquire);
  while (i < actions_.size() && actions_[i].at <= offset) {
    DECO_RETURN_NOT_OK(
        ApplyAction(actions_[i], clock_->NowNanos()));
    next_action_.store(++i, std::memory_order_release);
  }
  return Status::OK();
}

Status ChaosController::Start() {
  if (actions_.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (started_) return Status::AlreadyExists("controller already started");
  started_ = true;
  stop_requested_ = false;
  start_nanos_ = clock_->NowNanos();
  if (sim_ != nullptr) {
    // Sim mode: one timer event per compiled action. `ApplyDue` keeps the
    // strictly-in-order firing contract even when offsets collide, and the
    // events run serialized on the sim driver, so no firing thread exists.
    for (const Action& action : actions_) {
      const TimeNanos offset = action.at;
      sim_->ScheduleAt(start_nanos_ + offset, [this, offset] {
        {
          std::lock_guard<std::mutex> stop_lock(thread_mu_);
          if (stop_requested_) return;
        }
        Status status = ApplyDue(offset);
        if (!status.ok()) {
          DECO_LOG(ERROR) << "chaos: applying scheduled fault failed: "
                          << status.ToString();
        }
      });
    }
    return Status::OK();
  }
  thread_ = std::thread([this] { RunLoop(); });
  return Status::OK();
}

void ChaosController::RunLoop() {
  std::unique_lock<std::mutex> lock(thread_mu_);
  while (!stop_requested_) {
    const size_t i = next_action_.load(std::memory_order_acquire);
    if (i >= actions_.size()) break;
    const TimeNanos due = start_nanos_ + actions_[i].at;
    const TimeNanos now = clock_->NowNanos();
    if (due > now) {
      thread_cv_.wait_for(lock, std::chrono::nanoseconds(due - now));
      continue;
    }
    lock.unlock();
    Status status = ApplyDue(now - start_nanos_);
    if (!status.ok()) {
      DECO_LOG(ERROR) << "chaos: applying scheduled fault failed: "
                      << status.ToString();
    }
    lock.lock();
  }
}

void ChaosController::Stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    if (!started_) return;
    stop_requested_ = true;
  }
  thread_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::vector<ChaosAuditEntry> ChaosController::AuditLog() const {
  std::lock_guard<std::mutex> lock(mu_);
  return audit_;
}

}  // namespace deco
