#include "node/actor.h"

#include <chrono>

#include "common/logging.h"

namespace deco {

Status Actor::SendRetryingCrash(Message msg) {
  while (true) {
    Message attempt = msg;  // keep the original for a possible retry
    Status status = Send(std::move(attempt));
    if (!status.IsNodeFailed()) return status;
    // Crashed by the chaos controller: a dead host does not observe its
    // own failed sends. Wait out the downtime, then resend.
    while (fabric_->IsNodeDown(id_)) {
      if (stop_requested()) return Status::OK();
      SleepNanos(200 * kNanosPerMicro);
    }
    if (stop_requested()) return Status::OK();
  }
}

void Actor::SleepNanos(TimeNanos nanos) {
  if (SimScheduler::OnSimTask()) {
    SimScheduler::Current()->SleepFor(nanos);
    return;
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(nanos));
}

void Actor::Start() {
  const auto body = [this] {
    // Register with the in-run profiler on the actor thread itself so the
    // slot's CPU baseline is this thread's CLOCK_THREAD_CPUTIME_ID.
    if (run_->profiler != nullptr) {
      prof_ = run_->profiler->RegisterThread(fabric_->node_name(id_));
    }
    Status status = Run();
    if (prof_ != nullptr) prof_->Finish();
    if (!status.ok()) {
      DECO_LOG(ERROR) << "actor " << id_ << " ("
                      << fabric_->node_name(id_)
                      << ") failed: " << status.ToString();
    }
    std::lock_guard<std::mutex> lock(status_mu_);
    status_ = std::move(status);
  };
  SimScheduler* sim = fabric_->sim();
  if (sim != nullptr) {
    sim_task_ = sim->AddTask(fabric_->node_name(id_));
    thread_ = std::thread(
        [sim, id = sim_task_, body] { sim->TaskMain(id, body); });
    return;
  }
  thread_ = std::thread(body);
}

void Actor::Join() {
  if (thread_.joinable()) thread_.join();
}

void Actor::RequestStop() {
  stop_.store(true, std::memory_order_release);
  Mailbox* mailbox = fabric_->mailbox(id_);
  if (mailbox != nullptr) mailbox->Close();
}

Status Actor::status() const {
  std::lock_guard<std::mutex> lock(status_mu_);
  return status_;
}

}  // namespace deco
