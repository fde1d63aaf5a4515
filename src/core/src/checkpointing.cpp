#include "ftmc/core/checkpointing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ftmc/core/analysis.hpp"
#include "ftmc/prob/safe_math.hpp"

namespace ftmc::core {

void CheckpointScheme::validate() const {
  FTMC_EXPECTS(segments >= 1, "a job needs at least one segment");
  FTMC_EXPECTS(retry_budget >= 0, "retry budget must be non-negative");
  FTMC_EXPECTS(overhead_fraction >= 0.0 && overhead_fraction < 1.0,
               "checkpoint overhead must lie in [0, 1) of the WCET");
}

Millis checkpointed_wcet(const FtTask& task,
                         const CheckpointScheme& scheme) {
  task.validate();
  scheme.validate();
  const double k = scheme.segments;
  const double o = scheme.overhead_fraction;
  const double base = task.wcet * (1.0 + k * o);
  const double per_retry = task.wcet / k + o * task.wcet;
  return base + scheme.retry_budget * per_retry;
}

double segment_failure_prob(double failure_prob, int segments) {
  FTMC_EXPECTS(failure_prob >= 0.0 && failure_prob < 1.0,
               "failure probability must lie in [0, 1)");
  FTMC_EXPECTS(segments >= 1, "a job needs at least one segment");
  if (failure_prob == 0.0) return 0.0;
  // 1 - (1-f)^(1/k), stable for tiny f.
  return -std::expm1(std::log1p(-failure_prob) /
                     static_cast<double>(segments));
}

double checkpointed_job_failure_prob(double failure_prob,
                                     const CheckpointScheme& scheme) {
  scheme.validate();
  const double q = segment_failure_prob(failure_prob, scheme.segments);
  if (q == 0.0) return 0.0;
  const int k = scheme.segments;
  const int r = scheme.retry_budget;

  // The job's fate is decided by its first k + R attempts: it fails iff
  // they contain at least R + 1 faults. Binomial upper tail, summed in
  // the log domain (log-sum-exp) to preserve tiny probabilities.
  const int trials = k + r;
  const double log_q = std::log(q);
  const double log_1mq = std::log1p(-q);
  const double lg_trials = prob::log_gamma(trials + 1.0);

  double max_log = -std::numeric_limits<double>::infinity();
  std::vector<double> logs;
  logs.reserve(static_cast<std::size_t>(k));
  for (int j = r + 1; j <= trials; ++j) {
    const double log_term = lg_trials - prob::log_gamma(j + 1.0) -
                            prob::log_gamma(trials - j + 1.0) + j * log_q +
                            (trials - j) * log_1mq;
    logs.push_back(log_term);
    max_log = std::max(max_log, log_term);
  }
  if (logs.empty() ||
      max_log == -std::numeric_limits<double>::infinity()) {
    return 0.0;
  }
  double acc = 0.0;
  for (const double lt : logs) acc += std::exp(lt - max_log);
  const double p = std::exp(max_log) * acc;
  return std::clamp(p, 0.0, 1.0);
}

double ckpt_trigger_prob(double failure_prob, int segments,
                         double overhead_fraction, int m) {
  FTMC_EXPECTS(m >= 0, "fault threshold must be non-negative");
  if (m == 0) return 1.0;  // triggers as soon as the job exists
  // P(faults >= m) == P(faults > m - 1): the job-failure tail with
  // retry budget m - 1.
  return checkpointed_job_failure_prob(
      failure_prob, {segments, m - 1, overhead_fraction});
}

double pfh_plain_checkpointed(const FtTaskSet& ts,
                              const std::vector<CheckpointScheme>& schemes,
                              CritLevel level) {
  // Eq. (2) reads no trigger; every threshold is a placeholder.
  const PerTaskProfile no_trigger(ts.size(), 0);
  return pfh_plain(RoundModel::checkpointing(ts, schemes, no_trigger), level);
}

std::optional<int> min_retry_budget(const FtTask& task, int segments,
                                    double overhead_fraction,
                                    double target_job_failure_prob,
                                    int max_budget) {
  task.validate();
  FTMC_EXPECTS(target_job_failure_prob > 0.0,
               "target failure probability must be positive");
  FTMC_EXPECTS(max_budget >= 0, "budget cap must be non-negative");
  for (int r = 0; r <= max_budget; ++r) {
    CheckpointScheme scheme{segments, r, overhead_fraction};
    if (checkpointed_job_failure_prob(task.failure_prob, scheme) <
        target_job_failure_prob) {
      return r;
    }
  }
  return std::nullopt;
}

double utilization_checkpointed(const FtTaskSet& ts,
                                const std::vector<CheckpointScheme>& schemes,
                                CritLevel level) {
  ts.validate();
  FTMC_EXPECTS(schemes.size() == ts.size(),
               "one checkpoint scheme per task required");
  double u = 0.0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts.crit_of(i) != level) continue;
    u += checkpointed_wcet(ts[i], schemes[i]) / ts[i].period;
  }
  return u;
}

}  // namespace ftmc::core
