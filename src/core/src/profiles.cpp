#include "ftmc/core/profiles.hpp"

#include "ftmc/core/conversion.hpp"
#include "ftmc/core/ft_scheduler.hpp"

namespace ftmc::core {

std::optional<int> min_budget(FtMechanism& mech, CritLevel level,
                              const SafetyRequirements& reqs) {
  const FtTaskSet& ts = mech.tasks();
  ts.validate();
  const Dal dal = ts.mapping().dal_of(level);
  if (!reqs.constrains(dal) || ts.count(level) == 0) {
    return mech.min_budget();  // one attempt, no retry
  }
  // Uniform budgets on both levels; Eq. (2) reads only this level's.
  for (int b = mech.min_budget(); b <= kMaxProfile; ++b) {
    if (reqs.satisfied(dal, pfh_plain(mech.at(b, b, 0), level))) return b;
  }
  return std::nullopt;
}

std::optional<int> min_reexec_profile(const FtTaskSet& ts, CritLevel level,
                                      const SafetyRequirements& reqs,
                                      ExecAssumption exec) {
  FtMechanism mech = FtMechanism::reexecution(ts, exec);
  return min_budget(mech, level, reqs);
}

double pfh_lo_under_adaptation(const RoundModel& rounds,
                               const AdaptationModel& model,
                               double early_exit_above) {
  switch (model.kind) {
    case mcs::AdaptationKind::kNone:
      return pfh_plain(rounds, CritLevel::LO);
    case mcs::AdaptationKind::kKilling:
      return pfh_lo_killing(rounds, model.os_hours, early_exit_above);
    case mcs::AdaptationKind::kDegradation:
      return pfh_lo_degradation(rounds, model.os_hours);
  }
  FTMC_ENSURES(false, "unreachable adaptation kind");
  return 0.0;
}

double pfh_lo_under_adaptation(const FtTaskSet& ts, int n_hi, int n_lo,
                               int n_adapt_hi, const AdaptationModel& model,
                               ExecAssumption exec, double early_exit_above) {
  FTMC_EXPECTS(n_hi >= 0 && n_lo >= 0 && n_adapt_hi >= 0,
               "profiles must be non-negative");
  // Hot in the Fig. 1/2 sweeps; the two profile buffers are reused across
  // calls instead of allocated fresh.
  thread_local PerTaskProfile n;
  thread_local PerTaskProfile n_adapt;
  n.assign(ts.size(), 0);
  n_adapt.assign(ts.size(), 0);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const bool hi = ts.crit_of(i) == CritLevel::HI;
    n[i] = hi ? n_hi : n_lo;
    n_adapt[i] = hi ? n_adapt_hi : 0;
  }
  return pfh_lo_under_adaptation(RoundModel::reexecution(ts, n, n_adapt, exec),
                                 model, early_exit_above);
}

std::optional<int> min_threshold(FtMechanism& mech, int b_hi, int b_lo,
                                 const SafetyRequirements& reqs,
                                 const AdaptationModel& model) {
  const FtTaskSet& ts = mech.tasks();
  ts.validate();
  const Dal lo_dal = ts.mapping().lo;
  if (!reqs.constrains(lo_dal)) return 0;
  if (ts.count(CritLevel::LO) == 0) return 0;
  const double requirement = *reqs.requirement(lo_dal);

  // Scan upward for the infimum. A threshold of never_fires(b_hi) or more
  // can never trigger, so the scan stops below it. A killing bound stops
  // summing once it exceeds the requirement: the partial sum already
  // decides "unsafe".
  for (int m = 0; m < mech.never_fires(b_hi); ++m) {
    const double pfh = pfh_lo_under_adaptation(mech.at(b_hi, b_lo, m), model,
                                               requirement);
    if (pfh < requirement) return m;
  }
  return std::nullopt;
}

std::optional<int> min_adaptation_profile(const FtTaskSet& ts, int n_hi,
                                          int n_lo,
                                          const SafetyRequirements& reqs,
                                          const AdaptationModel& model,
                                          ExecAssumption exec) {
  FTMC_EXPECTS(n_hi >= 1 && n_lo >= 1, "re-execution profiles must be >= 1");
  FtMechanism mech = FtMechanism::reexecution(ts, exec);
  return min_threshold(mech, n_hi, n_lo, reqs, model);
}

std::optional<int> max_schedulable_threshold(
    FtMechanism& mech, int b_hi, int b_lo,
    const mcs::SchedulabilityTest& test, const AdaptationModel& model,
    bool closed_form) {
  const FtTaskSet& ts = mech.tasks();
  FTMC_EXPECTS(!closed_form || !mech.checkpointed(),
               "the closed-form U_MC prices re-execution budgets only");
  const bool by_umc = closed_form && ts.all_implicit_deadlines() &&
                      model.kind != mcs::AdaptationKind::kNone;
  const double u_hi_base = ts.utilization(CritLevel::HI);
  const double u_lo_base = ts.utilization(CritLevel::LO);
  for (int m = mech.never_fires(b_hi); m >= 0; --m) {
    const bool ok =
        by_umc ? umc_closed_form(u_hi_base, u_lo_base, b_hi, b_lo, m,
                                 model.kind, model.degradation_factor) <= 1.0
               : test.schedulable(convert_to_mc(mech.at(b_hi, b_lo, m)));
    if (ok) return m;
  }
  return std::nullopt;
}

}  // namespace ftmc::core
