#include "obs/profiler.h"

#include <time.h>

#include <chrono>

namespace deco {

namespace {

/// Real (steady) wall clock. The profiler deliberately does not use the
/// experiment's `Clock`: CPU time is always real, so pairing it with
/// virtual sim time would make cpu/wall ratios meaningless in sim runs.
TimeNanos SteadyWallNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TimeNanos ThreadCpuNanos() {
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<TimeNanos>(ts.tv_sec) * kNanosPerSecond + ts.tv_nsec;
}

Profiler::Profiler(bool count_allocs) : count_allocs_(count_allocs) {
  if (alloc_counting()) RetainAllocCounting();
}

Profiler::~Profiler() {
  if (alloc_counting()) ReleaseAllocCounting();
}

void Profiler::ThreadSlot::HandlerBegin(MessageType type) {
  open_ = true;
  open_type_ = type;
  open_cpu_nanos_ = ThreadCpuNanos();
  open_wall_nanos_ = SteadyWallNanos();
}

void Profiler::ThreadSlot::HandlerEnd() {
  if (!open_) return;
  open_ = false;
  PerType& tally = by_type_[static_cast<size_t>(open_type_)];
  ++tally.count;
  tally.cpu_nanos +=
      static_cast<uint64_t>(ThreadCpuNanos() - open_cpu_nanos_);
  tally.wall_nanos +=
      static_cast<uint64_t>(SteadyWallNanos() - open_wall_nanos_);
}

void Profiler::ThreadSlot::Finish() {
  HandlerEnd();
  cpu_nanos_ = static_cast<uint64_t>(ThreadCpuNanos() - start_cpu_nanos_);
  wall_nanos_ = static_cast<uint64_t>(SteadyWallNanos() - start_wall_nanos_);
  const AllocCounters now = ThreadAllocCounters();
  allocations_ = now.count - start_alloc_.count;
  allocated_bytes_ = now.bytes - start_alloc_.bytes;
  finished_.store(true, std::memory_order_release);
}

Profiler::ThreadSlot* Profiler::RegisterThread(const std::string& name) {
  auto slot = std::make_unique<ThreadSlot>();
  slot->name_ = name;
  slot->start_cpu_nanos_ = ThreadCpuNanos();
  slot->start_wall_nanos_ = SteadyWallNanos();
  slot->start_alloc_ = ThreadAllocCounters();
  ThreadSlot* raw = slot.get();
  std::lock_guard<std::mutex> lock(mu_);
  slots_.push_back(std::move(slot));
  return raw;
}

ProfileReport Profiler::Collect() const {
  ProfileReport report;
  report.enabled = true;
  report.alloc_counted = alloc_counting();
  std::lock_guard<std::mutex> lock(mu_);
  report.threads.reserve(slots_.size());
  for (const std::unique_ptr<ThreadSlot>& slot : slots_) {
    ThreadProfile thread;
    thread.name = slot->name_;
    if (slot->finished_.load(std::memory_order_acquire)) {
      thread.cpu_nanos = slot->cpu_nanos_;
      thread.wall_nanos = slot->wall_nanos_;
      thread.allocations = slot->allocations_;
      thread.allocated_bytes = slot->allocated_bytes_;
    }
    for (size_t i = 0; i < kNumMessageTypes; ++i) {
      const ThreadSlot::PerType& tally = slot->by_type_[i];
      if (tally.count == 0) continue;
      HandlerProfile handler;
      handler.type = static_cast<MessageType>(i);
      handler.count = tally.count;
      handler.cpu_nanos = tally.cpu_nanos;
      handler.wall_nanos = tally.wall_nanos;
      thread.messages_handled += tally.count;
      thread.handlers.push_back(handler);
    }
    report.threads.push_back(std::move(thread));
  }
  return report;
}

}  // namespace deco
