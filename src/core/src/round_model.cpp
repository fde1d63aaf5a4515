#include "ftmc/core/round_model.hpp"

#include "ftmc/prob/safe_math.hpp"

namespace ftmc::core {
namespace {

/// Segment length including the checkpoint save, in ms.
Millis segment_ms(const FtTask& task, const CheckpointScheme& scheme) {
  return task.wcet / scheme.segments +
         scheme.overhead_fraction * task.wcet;
}

}  // namespace

Millis attempts_busy(int n, Millis wcet, ExecAssumption exec) {
  FTMC_EXPECTS(n >= 0, "re-execution profile must be non-negative");
  return exec == ExecAssumption::kFullWcet ? static_cast<Millis>(n) * wcet
                                           : 0.0;
}

RoundModel RoundModel::reexecution(const FtTaskSet& ts,
                                   const PerTaskProfile& n,
                                   const PerTaskProfile& n_adapt,
                                   ExecAssumption exec) {
  FTMC_EXPECTS(n.size() == ts.size() && n_adapt.size() == ts.size(),
               "profile sizes must match task set");
  RoundModel model(ts, n_adapt);
  model.attempts_ = &n;
  model.exec_ = exec;
  return model;
}

RoundModel RoundModel::checkpointing(
    const FtTaskSet& ts, const std::vector<CheckpointScheme>& schemes,
    const PerTaskProfile& thresholds) {
  FTMC_EXPECTS(schemes.size() == ts.size() && thresholds.size() == ts.size(),
               "one scheme and threshold per task required");
  RoundModel model(ts, thresholds);
  model.schemes_ = &schemes;
  return model;
}

Round RoundModel::round(std::size_t i) const {
  const FtTask& task = (*ts_)[i];
  if (schemes_ != nullptr) {
    const CheckpointScheme& scheme = (*schemes_)[i];
    return {checkpointed_wcet(task, scheme),
            checkpointed_job_failure_prob(task.failure_prob, scheme)};
  }
  const int n = (*attempts_)[i];
  FTMC_EXPECTS(n >= 1, "re-execution profile must be at least 1");
  return {attempts_busy(n, task.wcet, exec_),
          prob::pow_prob(task.failure_prob, n)};
}

Round RoundModel::trigger(std::size_t i) const {
  const FtTask& task = (*ts_)[i];
  const int m = (*thresholds_)[i];
  if (schemes_ != nullptr) {
    // The least busy time before the m-th fault: m faulted segments.
    const CheckpointScheme& scheme = (*schemes_)[i];
    return {m * segment_ms(task, scheme),
            ckpt_trigger_prob(task.failure_prob, scheme.segments,
                              scheme.overhead_fraction, m)};
  }
  // Algorithm 1 keeps n' < n, but the Fig. 1/2 sweeps evaluate the bounds
  // beyond that (merely more pessimistic), so only n' >= 0 is required.
  FTMC_EXPECTS(m >= 0, "adaptation profile must be non-negative");
  return {attempts_busy(m, task.wcet, exec_),
          prob::pow_prob(task.failure_prob, m)};
}

Millis RoundModel::wcet_hi(std::size_t i) const {
  if (schemes_ != nullptr) {
    const CheckpointScheme& scheme = (*schemes_)[i];
    scheme.validate();
    return (scheme.segments + scheme.retry_budget) *
           segment_ms((*ts_)[i], scheme);
  }
  const int n = (*attempts_)[i];
  FTMC_EXPECTS(n >= 1, "re-execution profile must be at least 1");
  return static_cast<Millis>(n) * (*ts_)[i].wcet;
}

Millis RoundModel::wcet_lo(std::size_t i) const {
  // The never-fires threshold (n' = n, m = R + 1) gives C(LO) == C(HI);
  // a larger one would break the Vestal monotonicity C(LO) <= C(HI).
  const int m = (*thresholds_)[i];
  if (schemes_ != nullptr) {
    const CheckpointScheme& scheme = (*schemes_)[i];
    FTMC_EXPECTS(m >= 0 && m <= scheme.retry_budget + 1,
                 "fault threshold must satisfy 0 <= m <= R + 1");
    return m == 0 ? 0.0
                  : (scheme.segments - 1 + m) * segment_ms((*ts_)[i], scheme);
  }
  FTMC_EXPECTS(m >= 0 && m <= (*attempts_)[i],
               "adaptation profile must satisfy 0 <= n' <= n");
  return static_cast<Millis>(m) * (*ts_)[i].wcet;
}

FtMechanism::FtMechanism(const FtTaskSet& ts, ExecAssumption exec,
                         int segments, double overhead_fraction)
    : ts_(&ts),
      exec_(exec),
      segments_(segments),
      overhead_fraction_(overhead_fraction),
      budgets_(ts.size(), 0),
      thresholds_(ts.size(), 0),
      schemes_(segments > 0 ? ts.size() : 0) {}

FtMechanism FtMechanism::reexecution(const FtTaskSet& ts,
                                     ExecAssumption exec) {
  return FtMechanism(ts, exec, 0, 0.0);
}

FtMechanism FtMechanism::checkpointing(const FtTaskSet& ts, int segments,
                                       double overhead_fraction) {
  FTMC_EXPECTS(segments >= 1, "need at least one segment");
  return FtMechanism(ts, ExecAssumption::kFullWcet, segments,
                     overhead_fraction);
}

RoundModel FtMechanism::at(int b_hi, int b_lo, int threshold) {
  for (std::size_t i = 0; i < ts_->size(); ++i) {
    const bool hi = ts_->crit_of(i) == CritLevel::HI;
    budgets_[i] = hi ? b_hi : b_lo;
    thresholds_[i] = hi ? threshold : 0;
    if (checkpointed()) {
      schemes_[i] = {segments_, budgets_[i], overhead_fraction_};
    }
  }
  return checkpointed()
             ? RoundModel::checkpointing(*ts_, schemes_, thresholds_)
             : RoundModel::reexecution(*ts_, budgets_, thresholds_, exec_);
}

}  // namespace ftmc::core
