/// \file analysis.hpp
/// \brief Safety quantification: Lemmas 3.1-3.4 of the paper.
///
/// All bounds are probability-of-failure-per-hour (PFH) upper bounds under
/// the fault model of Sec. 2.1: every execution attempt of a job of task
/// tau_i fails independently with probability f_i; a job fails if all its
/// (up to) n_i attempts fail. "One round" = the n_i attempts of one job.
/// Each bound is written once, over a RoundModel (round_model.hpp), at the
/// end of this header; checkpointing (ft_checkpoint.hpp) is the second
/// mechanism that runs on them.
///
/// Numerical notes: per-round failure probabilities f^n reach 1e-45 and the
/// killing bound subtracts survival probabilities within 1e-10 of 1, so the
/// implementation works in the log domain (see ftmc::prob).
#pragma once

#include <vector>

#include "ftmc/core/ft_task.hpp"
#include "ftmc/core/round_model.hpp"
#include "ftmc/prob/logprob.hpp"

namespace ftmc::core {

/// Eq. (1): maximum number of rounds of a task with re-execution profile n
/// that the window [0, t] can accommodate:
///   r_i(n, t) = max( floor((t - n*C_i) / T_i) + 1, 0 ).
[[nodiscard]] double rounds(const FtTask& task, int n, Millis t,
                            ExecAssumption exec = ExecAssumption::kFullWcet);

/// Eq. (2), Lemma 3.1: plain PFH upper bound of the tasks at `level` when
/// nothing is ever killed or degraded:
///   pfh(level) = sum_{tau_i at level} r_i(n_i, t) * f_i^{n_i},  t = 1 hour.
/// `n` is the per-task re-execution profile (entries of other-level tasks
/// are ignored). The PFH is time-invariant (Lemma 3.1 proof), so the
/// horizon is fixed to one hour.
[[nodiscard]] double pfh_plain(const FtTaskSet& ts, const PerTaskProfile& n,
                               CritLevel level,
                               ExecAssumption exec = ExecAssumption::kFullWcet);

/// Eq. (3), Lemma 3.2: lower bound on the probability that *no* HI job
/// reaches its (n'_i + 1)-th execution within [0, t]:
///   R(N', t) = prod_{tau_i in HI} (1 - f_i^{n'_i})^{r_i(n'_i, t)}.
/// Returned in the log domain; 1 - R (the kill/degrade trigger probability)
/// is then extracted without cancellation.
/// `n_adapt` holds n'_i per task (LO entries ignored).
[[nodiscard]] prob::LogProb survival_no_trigger(
    const FtTaskSet& ts, const PerTaskProfile& n_adapt, Millis t,
    ExecAssumption exec = ExecAssumption::kFullWcet);

/// Eq. (4): the per-task sequence of worst-case round-completion points
///   pi_i(t) = { t - n_i C_i - m T_i + D_i | 1 <= m < r_i(n_i, t) } u {t}.
/// Sorted ascending. Points may be negative for short horizons; the
/// survival bound treats them as "before time 0" (R = 1) which is exactly
/// what the induction in the Lemma 3.3 proof requires.
[[nodiscard]] std::vector<Millis> pi_points(
    const FtTask& task, int n, Millis t,
    ExecAssumption exec = ExecAssumption::kFullWcet);

/// Options for the killing-mode LO bound (Eq. (5)).
struct KillingBoundOptions {
  double os_hours = 1.0;  ///< operation duration O_S (1..10 h typical)
  ExecAssumption exec = ExecAssumption::kFullWcet;
  /// If positive, evaluation stops early once the accumulated PFH already
  /// exceeds this threshold and returns the partial (still lower-bounding
  /// the true bound, hence sufficient to prove "requirement violated")
  /// sum. Used by the profile search against the safety requirement.
  double early_exit_above = 0.0;
};

/// Eq. (5), Lemma 3.3: PFH upper bound for the LO tasks when they can be
/// *killed*, triggered by any HI job starting its (n'_i + 1)-th execution:
///   pfh(LO) = [ sum_{tau_i in LO} sum_{alpha in pi_i(t)}
///               ( 1 - R(N', alpha) * (1 - f_i^{n_i}) ) ] / O_S,
/// with t = O_S hours.
[[nodiscard]] double pfh_lo_killing(const FtTaskSet& ts,
                                    const PerTaskProfile& n,
                                    const PerTaskProfile& n_adapt,
                                    const KillingBoundOptions& opt = {});

/// Eq. (6): omega(d_f, t) — total failure rate of the LO tasks in [0, t]
/// when their periods are stretched by d_f (d_f = 1 recovers Eq. (2)'s
/// summand structure):
///   omega(d_f, t) = sum_{tau_i in LO}
///       max( floor((t - n_i C_i) / (d_f T_i)) + 1, 0 ) * f_i^{n_i}.
[[nodiscard]] double omega(const FtTaskSet& ts, const PerTaskProfile& n,
                           double df, Millis t,
                           ExecAssumption exec = ExecAssumption::kFullWcet);

/// Eq. (7), Lemma 3.4: PFH upper bound for the LO tasks under *service
/// degradation* (periods stretched by d_f at the trigger):
///   pfh(LO) = (1 - R(N', t)) * omega(1, t) / O_S,  t = O_S hours.
/// Note d_f does not appear: the bound is attained when the trigger fires
/// at the very end of the window (Lemma 3.4 proof), so it is valid for any
/// d_f > 1. d_f still matters for schedulability (Eq. (11)/(12)).
[[nodiscard]] double pfh_lo_degradation(
    const FtTaskSet& ts, const PerTaskProfile& n,
    const PerTaskProfile& n_adapt, double os_hours,
    ExecAssumption exec = ExecAssumption::kFullWcet);

/// Eq. (9): the scenario PFH when degradation is known to trigger at t0
/// within [0, t]: (1 - R(N', t0)) * (omega(1, t0) + omega(d_f, t - t0)) / O_S.
/// Exposed for property tests of the Lemma 3.4 proof (monotone in t0,
/// maximized at t0 = t, where it reduces to Eq. (7)).
[[nodiscard]] double pfh_lo_degradation_at(
    const FtTaskSet& ts, const PerTaskProfile& n,
    const PerTaskProfile& n_adapt, double df, double os_hours, Millis t0,
    ExecAssumption exec = ExecAssumption::kFullWcet);

// --- Eqs. (2), (3), (5), (6) and (7) over any round model: Eq. (1) counts
// rounds at the model's round or trigger budget in place of n*C or n'*C,
// and the model's probabilities stand in for f^n and f^{n'}. Every
// overload above is the re-execution instance of one of these.
[[nodiscard]] double pfh_plain(const RoundModel& model, CritLevel level);
[[nodiscard]] prob::LogProb survival_no_trigger(const RoundModel& model,
                                                Millis t);
[[nodiscard]] double pfh_lo_killing(const RoundModel& model, double os_hours,
                                    double early_exit_above = 0.0);
[[nodiscard]] double omega(const RoundModel& model, double df, Millis t);
[[nodiscard]] double pfh_lo_degradation(const RoundModel& model,
                                        double os_hours);

}  // namespace ftmc::core
