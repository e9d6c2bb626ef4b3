#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"

/// \file layers.h
/// \brief The traced pass: per-call costs of each module's public functions,
/// timed in spans the benchmark records around those calls, on the
/// workload's own streams and window sizes. No span is added inside the
/// system under test.

namespace perfbench {

/// \brief In-memory span log. Spans nest through `parent` (-1 = root); a
/// span's self time is its duration minus the time its children cover.
class SpanLog {
 public:
  /// \brief Opens a span named `name` (a string literal) and returns its id.
  int Begin(const char* name, int parent);
  void End(int span);
  int64_t DurationNanos(int span) const;

  /// \brief Writes one JSON object per span: name, start_ns, end_ns,
  /// parent and self_ns.
  deco::Status WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
  };
  std::vector<Span> spans_;
};

/// \brief Per-call layer costs, named after the module that owns the call.
struct LayerTimes {
  double net_send_ns_per_msg = 0.0;
  double deco_assemble_us_per_window = 0.0;
  double deco_correct_us_per_window = 0.0;
  double event_batch_encode_ns_per_event = 0.0;
  double event_batch_decode_ns_per_event = 0.0;
  double node_slice_codec_ns_per_msg = 0.0;
  double node_correction_codec_ns_per_event = 0.0;
  double stream_pull_ns_per_event = 0.0;
  double agg_accumulate_ns_per_event = 0.0;
  double baseline_merge_ns_per_event = 0.0;
  double window_add_ns_per_event = 0.0;
  double serve_accumulate_ns_per_event = 0.0;
  double obs_sample_us = 0.0;
  double obs_render_metrics_us = 0.0;
  uint64_t obs_exposition_bytes = 0;
};

/// \brief Times every layer on the inputs of `config` for about `budget_s`
/// seconds in total. The fabric hop carries messages of
/// `mean_message_bytes`, the mean of an untraced run of `config`.
deco::Result<LayerTimes> MeasureLayers(const deco::ExperimentConfig& config,
                                       double mean_message_bytes,
                                       double budget_s, SpanLog* spans);

}  // namespace perfbench
