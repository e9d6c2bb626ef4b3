#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "agg/aggregate.h"
#include "common/result.h"
#include "common/status.h"
#include "event/event.h"

/// \file window.h
/// \brief Count-based window definitions and the `Windower` operator
/// interface (paper §2.1–§2.2).
///
/// A window spec is a tumbling or sliding window whose length and slide
/// count events, the only kind of window Deco aggregates.

namespace deco {

enum class WindowType : uint8_t {
  kTumbling = 0,
  kSliding = 1,
};

/// \brief Full description of a count window operator.
struct WindowSpec {
  WindowType type = WindowType::kTumbling;

  /// Window length in events.
  uint64_t length = 0;

  /// Slide step in events; equals `length` for tumbling windows.
  uint64_t slide = 0;

  static WindowSpec CountTumbling(uint64_t length);
  static WindowSpec CountSliding(uint64_t length, uint64_t slide);

  /// \brief Checks internal consistency (positive length, slide <= length
  /// for sliding windows, ...).
  Status Validate() const;
};

/// \brief One closed window with its aggregate.
struct WindowResult {
  /// Sequence number of the window in emission order (0-based).
  uint64_t window_index = 0;

  /// Event-time bounds: timestamps of the first and last contained event.
  EventTime start_time = 0;
  EventTime end_time = 0;

  /// Number of events aggregated into the window.
  uint64_t event_count = 0;

  /// Mergeable aggregation state of the window.
  Partial partial;

  /// Finalized scalar (`AggregateFunction::Finalize(partial)`).
  double value = 0.0;
};

/// \brief Streaming window operator: push events in order, collect closed
/// windows. A partially filled window is never emitted: a count window
/// without its full complement of events has no defined result.
///
/// Not thread-safe; one instance per stream/thread.
class Windower {
 public:
  virtual ~Windower() = default;

  /// \brief Ingests one event; appends any windows it closes to `out`.
  virtual Status Add(const Event& event, std::vector<WindowResult>* out) = 0;

  const WindowSpec& spec() const { return spec_; }

 protected:
  explicit Windower(WindowSpec spec) : spec_(spec) {}
  WindowSpec spec_;
};

/// \brief Constructs the windower for `spec` over aggregation function
/// `func`. `func` must outlive the windower.
Result<std::unique_ptr<Windower>> MakeWindower(const WindowSpec& spec,
                                               const AggregateFunction* func);

}  // namespace deco
