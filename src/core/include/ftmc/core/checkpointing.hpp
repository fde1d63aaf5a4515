/// \file checkpointing.hpp
/// \brief Checkpoint/restart as an alternative fault-tolerance mechanism.
///
/// The paper adopts full task re-execution; its related work ([8], [13])
/// also studies checkpointing, where a job is split into k segments with a
/// checkpoint after each, and a detected fault re-runs only the current
/// segment. This module provides the analysis side of that alternative so
/// the two mechanisms can be compared at equal safety:
///
///  - execution model: k segments of length C/k; saving a checkpoint costs
///    `overhead_fraction * C`; a *retry budget* R bounds the total number
///    of segment re-runs a job may consume before it is declared failed;
///  - worst-case budget: C + k*o*C + R*(C/k + o*C)  (base + checkpoints +
///    R worst-case retries, each re-running one segment and re-saving);
///  - fault model: a full execution attempt fails with probability f
///    (Sec. 2.1); a segment of length C/k fails with probability
///    1 - (1-f)^(1/k) (faults proportional to execution length);
///  - per-job failure probability: the probability that more than R
///    segment-faults occur before the k segments all succeed — a negative
///    binomial tail, evaluated stably in the log domain.
///
/// These are checkpointing's entries of the round model
/// (round_model.hpp); the PFH bounds, the conversion and FT-S itself are
/// the ones re-execution runs. With k = 1 and zero overhead the model
/// degenerates to task re-execution with n = R + 1, which the tests
/// verify.
#pragma once

#include <optional>
#include <vector>

#include "ftmc/core/ft_task.hpp"

namespace ftmc::core {

/// A checkpointing configuration for one task.
struct CheckpointScheme {
  int segments = 1;      ///< k: checkpoints inserted after each segment
  int retry_budget = 0;  ///< R: total segment re-runs before giving up
  /// Cost of saving one checkpoint, as a fraction of the task's WCET.
  double overhead_fraction = 0.0;

  void validate() const;
};

/// Worst-case processor demand of one job under the scheme (see header).
[[nodiscard]] Millis checkpointed_wcet(const FtTask& task,
                                       const CheckpointScheme& scheme);

/// Per-segment failure probability: 1 - (1-f)^(1/k).
[[nodiscard]] double segment_failure_prob(double failure_prob, int segments);

/// Probability that a job fails, i.e. that segment-faults exceed the
/// retry budget before k segments succeed:
///   1 - sum_{j=0}^{R} C(k-1+j, j) * (1-q)^k * q^j,   q = f_seg.
/// Evaluated in the log domain (q can be ~1e-6 and the result ~1e-40).
[[nodiscard]] double checkpointed_job_failure_prob(
    double failure_prob, const CheckpointScheme& scheme);

/// Per-round probability that a job reaches its m-th segment fault
/// (m >= 1; m = 0 means the trigger fires unconditionally): the trigger
/// probability replacing f^{n'} in Lemma 3.2.
[[nodiscard]] double ckpt_trigger_prob(double failure_prob, int segments,
                                       double overhead_fraction, int m);

/// Eq. (2) under checkpointing: PFH of the tasks at `level` when each uses
/// its per-task scheme — the shared Eq. (2) over a checkpointing
/// RoundModel, so round counting uses the checkpointed worst-case budget
/// in place of n*C.
[[nodiscard]] double pfh_plain_checkpointed(
    const FtTaskSet& ts, const std::vector<CheckpointScheme>& schemes,
    CritLevel level);

/// Smallest retry budget R <= max_budget meeting `target` per-job failure
/// probability at the given segment count/overhead; nullopt if none does.
[[nodiscard]] std::optional<int> min_retry_budget(
    const FtTask& task, int segments, double overhead_fraction,
    double target_job_failure_prob, int max_budget = 64);

/// Utilization of the tasks at `level` under the per-task schemes
/// (checkpointed WCET over period) — the schedulability-side cost to set
/// against re-execution's n * U.
[[nodiscard]] double utilization_checkpointed(
    const FtTaskSet& ts, const std::vector<CheckpointScheme>& schemes,
    CritLevel level);

}  // namespace ftmc::core
