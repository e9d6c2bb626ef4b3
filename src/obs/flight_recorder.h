#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "obs/trace.h"

/// \file flight_recorder.h
/// \brief Bounded black-box ring of recent message hops, span events and
/// alert transitions, dumped to JSON on demand — a postmortem artifact for
/// hung, crashed or interrupted runs that would otherwise leave nothing.
///
/// Unlike the `TraceSink` (unbounded-ish, drained once at end of run), the
/// recorder keeps only the most recent N records of each kind and can be
/// dumped at any moment: on a watchdog trip, on SIGINT/SIGTERM shutdown,
/// on a fatal signal (`InstallCrashHandler`), or explicitly via
/// `deco_run --dump_flight_recorder`. A run owns its recorder through its
/// `RunContext` and records with the existing taps: `Actor::FinishHop`
/// feeds hops, the `DECO_TRACE_SPAN*` macros feed spans and the watchdog
/// feeds alert transitions.
///
/// The fatal-signal dump is best-effort, not strictly async-signal-safe:
/// it snapshots the rings under `try_lock` (skipping any ring whose lock
/// the crashing thread holds) and then re-raises with the default handler
/// so the crash still produces a core/exit code.

namespace deco {

/// \brief One watchdog alert edge (fire or resolve) as the recorder sees it.
struct AlertTransition {
  TimeNanos t_nanos = 0;
  std::string kind;     ///< AlertKindToString value
  std::string subject;
  bool fired = false;   ///< true = fired, false = resolved
  double observed = 0.0;
  double threshold = 0.0;
};

/// \brief Fixed-capacity black box; oldest records are overwritten.
class FlightRecorder {
 public:
  struct Options {
    size_t hop_capacity = 4096;
    size_t span_capacity = 2048;
    size_t alert_capacity = 256;
  };

  /// \param clock time source for dump timestamps; not owned
  explicit FlightRecorder(Clock* clock) : FlightRecorder(clock, Options()) {}
  FlightRecorder(Clock* clock, Options options);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// \brief Records a completed hop (see `RunContext::RecordHop`).
  void RecordHop(const HopRecord& hop);

  /// \brief Records one span event (same shape as `TraceSink::Record`).
  void RecordSpan(NodeId node, TracePhase phase, uint64_t window_index,
                  int64_t value, uint64_t msg_id);

  void RecordAlert(const AlertTransition& transition);

  /// \brief Renders the current ring contents as a JSON document.
  std::string ToJson(const std::string& reason) const;

  /// \brief Writes `ToJson` to `path`. Returns false, and unless
  /// `best_effort` logs why, when the file cannot be opened, written or
  /// flushed. `best_effort` snapshots under try_lock (signal-handler path).
  bool DumpJson(const std::string& path, const std::string& reason,
                bool best_effort = false) const;

  /// Oldest-first snapshots (tests and the exporters).
  std::vector<HopRecord> Hops() const;
  std::vector<TraceEvent> Spans() const;
  std::vector<AlertTransition> Alerts() const;

  /// \brief Total records ever pushed per ring (monotonic; exceeds the
  /// snapshot size once the ring wraps).
  uint64_t spans_recorded() const;
  uint64_t alerts_recorded() const;

  const Options& options() const { return options_; }

  /// \brief Installs SIGSEGV/SIGABRT handlers that best-effort dump this
  /// recorder to `path`, then restore the default disposition and re-raise.
  ///
  /// Process-wide, because the OS keeps one disposition per signal: the
  /// dump target is a single slot, the most recent call wins, and this
  /// recorder's destructor empties the slot if it still holds it. The path
  /// is captured at call time.
  void InstallCrashHandler(const std::string& path);

 private:
  std::string ToJsonLocked(const std::string& reason, bool best_effort) const;

  template <typename T>
  struct Ring {
    std::vector<T> items;
    size_t next = 0;       ///< overwrite cursor once full
    uint64_t total = 0;    ///< records ever pushed

    void Push(size_t capacity, const T& record) {
      if (capacity == 0) return;
      if (items.size() < capacity) {
        items.push_back(record);
      } else {
        items[next] = record;
      }
      next = (next + 1) % capacity;
      ++total;
    }

    std::vector<T> OldestFirst(size_t capacity) const {
      if (items.size() < capacity) return items;
      std::vector<T> out;
      out.reserve(items.size());
      for (size_t i = 0; i < items.size(); ++i) {
        out.push_back(items[(next + i) % capacity]);
      }
      return out;
    }
  };

  Clock* clock_;
  Options options_;

  mutable std::mutex hop_mu_;
  Ring<HopRecord> hops_;
  mutable std::mutex span_mu_;
  Ring<TraceEvent> spans_;
  mutable std::mutex alert_mu_;
  Ring<AlertTransition> alerts_;
};

}  // namespace deco
