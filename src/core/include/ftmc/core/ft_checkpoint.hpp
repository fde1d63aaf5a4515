/// \file ft_checkpoint.hpp
/// \brief Extension: FT-S with checkpoint/restart fault tolerance.
///
/// The paper's pipeline does not depend on *full* re-execution: per task
/// it needs only what a RoundModel (round_model.hpp) supplies. With
/// checkpointing (k segments, retry budget R, overhead o; see
/// checkpointing.hpp) a round fails with the binomial tail P(faults > R)
/// and costs at most (k + R) * seg, seg = C/k + o*C; the trigger is the
/// m-th segment fault of a HI job, with per-round probability
/// P(faults >= m) and LO-mode budget (k - 1 + m) * seg — a job that
/// exceeds it must have faulted at least m times, the exact analog of the
/// paper's n'*C argument. ft_schedule_checkpointed is therefore the one
/// Algorithm 1 of ft_schedule (defined beside it in ft_scheduler.cpp) run
/// over a checkpointing FtMechanism: retry budgets R in [0, kMaxProfile]
/// in place of n, fault thresholds m in place of n'.
#pragma once

#include "ftmc/core/checkpointing.hpp"
#include "ftmc/core/ft_scheduler.hpp"

namespace ftmc::core {

/// Configuration of a checkpointed FT-S run: the segment count and
/// checkpoint overhead are uniform (a per-task choice would compose the
/// same way), the rest mirrors FtsConfig.
struct CkptFtsConfig {
  int segments = 4;
  double overhead_fraction = 0.0;
  SafetyRequirements requirements = SafetyRequirements::do178b();
  AdaptationModel adaptation;
  mcs::SchedulabilityTestPtr test;  ///< null: EDF-VD family by kind
};

/// Outcome; mirrors FtsResult with retry budgets in place of re-execution
/// profiles and fault thresholds in place of adaptation profiles.
struct CkptFtsResult {
  bool success = false;
  FtsFailure failure = FtsFailure::kNone;
  int r_hi = 0;  ///< uniform HI retry budget R
  int r_lo = 0;  ///< uniform LO retry budget
  std::optional<int> m1;  ///< minimal safe fault threshold
  std::optional<int> m2;  ///< maximal schedulable fault threshold
  int m_adapt = 0;        ///< chosen threshold (= m2 on success)
  double pfh_hi = 0.0;
  double pfh_lo = 0.0;
  mcs::McTaskSet converted;
  std::string scheduler_name;
};

/// Algorithm 1 instantiated for checkpointing: minimal retry budgets per
/// level (plain PFH), minimal safe fault threshold m1, maximal
/// schedulable threshold m2, success iff m1 <= m2.
[[nodiscard]] CkptFtsResult ft_schedule_checkpointed(
    const FtTaskSet& ts, const CkptFtsConfig& config);

}  // namespace ftmc::core
