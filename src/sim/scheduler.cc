#include "sim/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/logging.h"

namespace deco {

namespace {

// Thread-local identity: which scheduler (if any) the current thread belongs
// to, and whether it is a granted task thread (may block) or the driver
// executing a timer callback (must not).
struct SimTls {
  SimScheduler* sched = nullptr;
  bool on_task = false;
};
thread_local SimTls g_sim_tls;

}  // namespace

SimScheduler* SimScheduler::Current() { return g_sim_tls.sched; }

bool SimScheduler::OnSimTask() {
  return g_sim_tls.sched != nullptr && g_sim_tls.on_task;
}

SimScheduler::SimScheduler(uint64_t seed, TimeNanos start_nanos)
    : clock_(start_nanos), rng_(seed) {}

SimScheduler::~SimScheduler() {
#ifndef NDEBUG
  std::lock_guard<std::mutex> lock(mu_);
  for (const Task& task : tasks_) {
    assert(task.state == TaskState::kDone ||
           task.state == TaskState::kNotStarted);
  }
#endif
}

SimTaskId SimScheduler::AddTask(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  tasks_.emplace_back().name = std::move(name);
  return tasks_.size() - 1;
}

void SimScheduler::ScheduleAt(TimeNanos at_nanos,
                              std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  TimerEvent event;
  event.at = std::max(at_nanos, clock_.NowNanos());
  event.seq = next_event_seq_++;
  event.fn = std::move(fn);
  events_.push(std::move(event));
}

void SimScheduler::TaskMain(SimTaskId id, const std::function<void()>& body) {
  g_sim_tls.sched = this;
  g_sim_tls.on_task = true;
  {
    std::unique_lock<std::mutex> lock(mu_);
    Task& me = tasks_[id];
    me.state = TaskState::kRunnable;
    driver_cv_.notify_one();
    me.cv.wait(lock, [&] { return me.state == TaskState::kRunning; });
  }
  body();
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_[id].state = TaskState::kDone;
    running_ = kInvalidSimTask;
    driver_cv_.notify_one();
  }
  g_sim_tls = SimTls{};
}

void SimScheduler::WaitUntil(std::function<bool()> pred,
                             TimeNanos deadline_nanos) {
  assert(OnSimTask() && g_sim_tls.sched == this &&
         "WaitUntil outside a granted sim task");
  std::unique_lock<std::mutex> lock(mu_);
  const SimTaskId id = running_;
  assert(id != kInvalidSimTask);
  Task& me = tasks_[id];
  me.pred = std::move(pred);
  me.deadline = deadline_nanos;
  me.state = TaskState::kBlocked;
  running_ = kInvalidSimTask;
  driver_cv_.notify_one();
  me.cv.wait(lock, [&] { return me.state == TaskState::kRunning; });
}

void SimScheduler::SleepFor(TimeNanos delta_nanos) {
  if (delta_nanos <= 0) {
    Yield();
    return;
  }
  WaitUntil(nullptr, clock_.NowNanos() + delta_nanos);
}

void SimScheduler::Yield() {
  assert(OnSimTask() && g_sim_tls.sched == this);
  std::unique_lock<std::mutex> lock(mu_);
  const SimTaskId id = running_;
  assert(id != kInvalidSimTask);
  Task& me = tasks_[id];
  me.state = TaskState::kRunnable;
  running_ = kInvalidSimTask;
  driver_cv_.notify_one();
  me.cv.wait(lock, [&] { return me.state == TaskState::kRunning; });
}

Status SimScheduler::RunUntilTaskDone(SimTaskId id) {
  return Run(RunMode::kUntilTaskDone, id);
}

Status SimScheduler::RunUntilQuiescent() {
  return Run(RunMode::kUntilQuiescent, kInvalidSimTask);
}

Status SimScheduler::DrainAll() {
  return Run(RunMode::kDrainAll, kInvalidSimTask);
}

std::string SimScheduler::BlockedTaskNamesLocked() const {
  std::string names;
  for (const Task& task : tasks_) {
    if (task.state == TaskState::kBlocked) {
      if (!names.empty()) names += ", ";
      names += task.name;
    }
  }
  return names.empty() ? "<none>" : names;
}

Status SimScheduler::Run(RunMode mode, SimTaskId target) {
  const bool dbg = std::getenv("DECO_SIM_DEBUG") != nullptr;
  std::unique_lock<std::mutex> lock(mu_);
  if (driving_) {
    return Status::Internal("SimScheduler::Run is not reentrant");
  }
  driving_ = true;
  Status result = Status::OK();

  const auto mode_done = [&]() -> bool {
    switch (mode) {
      case RunMode::kUntilTaskDone:
        return tasks_[target].state == TaskState::kDone;
      case RunMode::kDrainAll:
        for (const Task& task : tasks_) {
          if (task.state != TaskState::kDone) return false;
        }
        return true;
      case RunMode::kUntilQuiescent:
        return false;  // decided at the no-progress point below
    }
    return false;
  };

  while (true) {
    if (mode != RunMode::kUntilQuiescent && mode_done()) break;

    // A registered task whose thread has not yet reached TaskMain is a
    // startup race the simulation must not observe: wait for it to check
    // in before making any scheduling decision.
    const bool waiting_for_threads =
        std::any_of(tasks_.begin(), tasks_.end(), [](const Task& t) {
          return t.state == TaskState::kNotStarted;
        });
    if (waiting_for_threads) {
      if (dbg) std::fprintf(stderr, "[sim] waiting for task check-in\n");
      driver_cv_.wait(lock, [&] {
        return std::none_of(tasks_.begin(), tasks_.end(), [](const Task& t) {
          return t.state == TaskState::kNotStarted;
        });
      });
      continue;
    }

    const TimeNanos now = clock_.NowNanos();

    // 1. Fire the earliest due timer event, with the lock released so the
    //    callback may push mailboxes, schedule more events, etc.
    if (!events_.empty() && events_.top().at <= now) {
      TimerEvent event = std::move(const_cast<TimerEvent&>(events_.top()));
      events_.pop();
      ++steps_;
      if (dbg && steps_ % 64 == 0) {
        std::fprintf(stderr, "[sim] step %llu: event at t=%lld\n",
                     (unsigned long long)steps_, (long long)event.at);
      }
      lock.unlock();
      g_sim_tls.sched = this;
      g_sim_tls.on_task = false;
      event.fn();
      g_sim_tls = SimTls{};
      lock.lock();
      continue;
    }

    // 2. Wake sweep: promote blocked tasks whose predicate now holds or
    //    whose virtual deadline has passed. Deterministic: task-id order.
    std::vector<SimTaskId> runnable;
    for (SimTaskId i = 0; i < tasks_.size(); ++i) {
      Task& task = tasks_[i];
      if (task.state == TaskState::kBlocked) {
        const bool deadline_hit = task.deadline >= 0 && task.deadline <= now;
        if (deadline_hit || (task.pred && task.pred())) {
          task.state = TaskState::kRunnable;
          task.pred = nullptr;
          task.deadline = -1;
        }
      }
      if (task.state == TaskState::kRunnable) runnable.push_back(i);
    }

    // 3. Grant the CPU to one runnable task, chosen by the seeded PRNG.
    //    This is the only source of interleaving in a simulated run.
    if (!runnable.empty()) {
      const SimTaskId pick =
          runnable[static_cast<size_t>(rng_.NextBounded(runnable.size()))];
      ++steps_;
      tasks_[pick].state = TaskState::kRunning;
      running_ = pick;
      if (dbg) {
        std::fprintf(stderr, "[sim] step %llu: grant %s at t=%lld\n",
                     (unsigned long long)steps_, tasks_[pick].name.c_str(),
                     (long long)now);
      }
      tasks_[pick].cv.notify_one();
      driver_cv_.wait(lock, [&] { return running_ == kInvalidSimTask; });
      if (dbg) {
        std::fprintf(stderr, "[sim] step %llu: %s yielded control (state=%d)\n",
                     (unsigned long long)steps_, tasks_[pick].name.c_str(),
                     (int)tasks_[pick].state);
      }
      continue;
    }

    // 4. Nothing runnable and nothing due: quiesced, advance time, or
    //    deadlock.
    if (mode == RunMode::kUntilQuiescent) break;

    TimeNanos next = -1;
    if (!events_.empty()) next = events_.top().at;
    for (const Task& task : tasks_) {
      if (task.state == TaskState::kBlocked && task.deadline >= 0) {
        next = next < 0 ? task.deadline : std::min(next, task.deadline);
      }
    }
    const bool all_done =
        std::all_of(tasks_.begin(), tasks_.end(), [](const Task& t) {
          return t.state == TaskState::kDone;
        });
    if (next < 0) {
      if (all_done) break;
      result = Status::Internal(
          "sim deadlock: no runnable task, no pending event; blocked: " +
          BlockedTaskNamesLocked());
      break;
    }
    if (limit_nanos_ > 0 && next > limit_nanos_) {
      result = Status::Timeout(
          "sim virtual time limit exceeded (next wakeup at " +
          std::to_string(next) + " ns > limit " +
          std::to_string(limit_nanos_) + " ns); blocked: " +
          BlockedTaskNamesLocked());
      break;
    }
    if (dbg) {
      std::fprintf(stderr, "[sim] advance %lld -> %lld\n", (long long)now,
                   (long long)next);
    }
    clock_.AdvanceTo(next);
  }

  driving_ = false;
  return result;
}

}  // namespace deco
