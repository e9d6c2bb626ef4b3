#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"

/// \file workloads.h
/// \brief The benchmark's named traffic shapes and their correctness
/// checks. Every workload runs under the deterministic simulator with 3
/// paced local nodes and 1 ms links; NOTES.md says why each one exists.

namespace perfbench {

/// \brief One workload instantiated for one benchmark seed.
///
/// A run covers `inputs` independent inputs derived from the seed: the
/// protocol's costs hinge on a few corrections per input, so one input
/// per run would let the seed, not the code, decide the figures.
struct Workload {
  std::string name;
  deco::ExperimentConfig config;  ///< `config.seed` is the benchmark seed
  int inputs = 1;

  /// \brief Inputs a traced run covers: a third of them, at least two.
  int TracedInputs() const {
    return std::min(inputs, std::max(2, inputs / 3));
  }

  /// \brief The configuration of input `i` (0 <= i < inputs).
  deco::ExperimentConfig InputConfig(int i) const;
};

/// \brief Builds workload `name` for `seed`. `smoke` shrinks the event
/// budget and the input count so every code path runs in a few seconds.
deco::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                    bool smoke);

/// \brief `config` with an event budget of one window: topology bring-up,
/// one window and teardown, which is what `setup_s` times.
deco::ExperimentConfig SetupConfig(const deco::ExperimentConfig& config);

/// \brief Per-window result latencies of a run, in milliseconds of
/// simulated time.
std::vector<double> WindowLatenciesMs(const deco::RunReport& report);

/// \brief Outcome of comparing a run's windows with the reference.
struct WindowCheck {
  uint64_t expected = 0;  ///< windows the reference expects
  uint64_t missing = 0;
  uint64_t wrong = 0;     ///< wrong value, size or boundary, or surplus
  std::string first_failure;
};

/// \brief Checks every window of a run of `config` against the reference
/// for its scheme (see NOTES.md, "Correctness") and adds the outcome to
/// `check`. Runs outside any timed region.
deco::Status CheckWindows(const deco::ExperimentConfig& config,
                          const deco::RunReport& report, WindowCheck* check);

}  // namespace perfbench
