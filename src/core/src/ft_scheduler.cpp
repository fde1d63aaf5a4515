#include "ftmc/core/ft_scheduler.hpp"

#include <memory>

#include "ftmc/core/ft_checkpoint.hpp"
#include "ftmc/mcs/edf.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/mcs/edf_vd_degradation.hpp"

namespace ftmc::core {

std::string_view to_string(FtsFailure failure) {
  switch (failure) {
    case FtsFailure::kNone: return "none";
    case FtsFailure::kHiSafetyInfeasible: return "HI-safety-infeasible";
    case FtsFailure::kLoSafetyInfeasible: return "LO-safety-infeasible";
    case FtsFailure::kAdaptationUnsafe: return "adaptation-unsafe";
    case FtsFailure::kUnschedulable: return "unschedulable";
  }
  return "?";
}

double umc_closed_form(double u_hi_base, double u_lo_base, int n_hi,
                       int n_lo, int n_adapt, mcs::AdaptationKind kind,
                       double df) {
  FTMC_EXPECTS(u_hi_base >= 0.0 && u_lo_base >= 0.0,
               "utilizations must be non-negative");
  FTMC_EXPECTS(n_hi >= 1 && n_lo >= 1 && n_adapt >= 0,
               "profiles must be positive (adaptation: non-negative)");
  const double u_lo_lo = n_lo * u_lo_base;   // U_LO^LO
  const double u_hi_lo = n_adapt * u_hi_base;  // U_HI^LO = n * U_HI
  const double u_hi_hi = n_hi * u_hi_base;   // U_HI^HI
  switch (kind) {
    case mcs::AdaptationKind::kNone:
      return u_hi_hi + u_lo_lo;  // worst-case EDF utilization
    case mcs::AdaptationKind::kKilling:
      return mcs::edf_vd_umc(u_lo_lo, u_hi_lo, u_hi_hi);
    case mcs::AdaptationKind::kDegradation:
      return mcs::edf_vd_degradation_umc(u_lo_lo, u_hi_lo, u_hi_hi, df);
  }
  FTMC_ENSURES(false, "unreachable adaptation kind");
  return 0.0;
}

mcs::SchedulabilityTestPtr resolve_test(const mcs::SchedulabilityTestPtr& test,
                                        const AdaptationModel& model) {
  if (test) return test;
  switch (model.kind) {
    case mcs::AdaptationKind::kNone:
      return std::make_shared<const mcs::EdfWorstCaseTest>();
    case mcs::AdaptationKind::kKilling:
      return std::make_shared<const mcs::EdfVdTest>();
    case mcs::AdaptationKind::kDegradation:
      return std::make_shared<const mcs::EdfVdDegradationTest>(
          model.degradation_factor);
  }
  FTMC_ENSURES(false, "unreachable adaptation kind");
  return nullptr;
}

namespace {

/// Algorithm 1 over a mechanism, split where re-execution's no-adaptation
/// shortcut (Appendix C) cuts in: the constructor runs lines 1-3 (the
/// budgets), thresholds() lines 4-8. `failure` names the first failure.
struct Search {
  Search(FtMechanism& mech, const SafetyRequirements& reqs)
      : b_hi(min_budget(mech, CritLevel::HI, reqs)),
        b_lo(b_hi ? min_budget(mech, CritLevel::LO, reqs) : std::nullopt) {
    if (!b_hi) failure = FtsFailure::kHiSafetyInfeasible;
    if (b_hi && !b_lo) failure = FtsFailure::kLoSafetyInfeasible;
  }

  void thresholds(FtMechanism& mech, const SafetyRequirements& reqs,
                  const AdaptationModel& model,
                  const mcs::SchedulabilityTest& test, bool closed_form) {
    m1 = min_threshold(mech, *b_hi, *b_lo, reqs, model);
    if (!m1) {
      failure = FtsFailure::kAdaptationUnsafe;  // line 5-7
      return;
    }
    m2 = max_schedulable_threshold(mech, *b_hi, *b_lo, test, model,
                                   closed_form);
    if (!m2 || *m1 > *m2) failure = FtsFailure::kUnschedulable;
  }

  FtsFailure failure = FtsFailure::kNone;
  std::optional<int> b_hi, b_lo;  ///< lines 1-3: budget per level
  std::optional<int> m1;  ///< line 4: minimal safe threshold
  std::optional<int> m2;  ///< line 8: maximal schedulable threshold
};

/// Algorithm 1 lines 1-8 with re-execution's no-adaptation shortcut
/// (Appendix C), over the caller's mechanism so that ft_schedule's report
/// reads the same one.
FtsVerdict verdict(const FtTaskSet& ts, const FtsConfig& cfg,
                   FtMechanism& mech) {
  ts.validate();
  FtsVerdict v;

  const mcs::SchedulabilityTestPtr test =
      resolve_test(cfg.test, cfg.adaptation);
  v.scheduler_name = test->name();

  // --- Algorithm 1, line 1-3: minimal re-execution profiles per level.
  Search s(mech, cfg.requirements);
  v.failure = s.failure;
  if (s.failure != FtsFailure::kNone) return v;
  v.n_hi = *s.b_hi;
  v.n_lo = *s.b_lo;

  // Optional shortcut (paper Appendix C): keep everything un-adapted if
  // plain worst-case EDF already fits Gamma(n_HI, n_LO, n_HI).
  v.feasible_without_adaptation = mcs::EdfWorstCaseTest{}.schedulable(
      convert_to_mc(mech.at(v.n_hi, v.n_lo, v.n_hi)));
  if (cfg.prefer_no_adaptation && v.feasible_without_adaptation) {
    v.success = true;
    v.n_adapt = v.n_hi;  // the mode switch can never fire
    v.scheduler_name = "EDF(worst-case)";
    return v;
  }

  // --- Line 4-8: minimal safe and maximal schedulable adaptation profile.
  s.thresholds(mech, cfg.requirements, cfg.adaptation, *test,
               cfg.use_closed_form_umc);
  v.failure = s.failure;
  v.n1_hi = s.m1;
  v.n2_hi = s.m2;
  if (s.failure != FtsFailure::kNone) return v;

  // --- Line 9-12: success; choose the safest schedulable profile.
  v.success = true;
  v.n_adapt = *s.m2;
  return v;
}

}  // namespace

FtsVerdict ft_verdict(const FtTaskSet& ts, const FtsConfig& cfg) {
  FtMechanism mech = FtMechanism::reexecution(ts, cfg.exec);
  return verdict(ts, cfg, mech);
}

FtsResult ft_schedule(const FtTaskSet& ts, const FtsConfig& cfg) {
  FtMechanism mech = FtMechanism::reexecution(ts, cfg.exec);
  FtsResult result;
  static_cast<FtsVerdict&>(result) = verdict(ts, cfg, mech);
  if (result.failure == FtsFailure::kHiSafetyInfeasible ||
      result.failure == FtsFailure::kLoSafetyInfeasible) {
    return result;  // lines 1-3 chose no profile to report on
  }
  result.pfh_hi =
      pfh_plain(mech.at(result.n_hi, result.n_lo, 0), CritLevel::HI);
  if (!result.success) return result;

  // The shortcut schedules un-adapted: the mode switch never fires, so
  // the plain bound and worst-case utilization describe it.
  AdaptationModel adaptation = cfg.adaptation;
  if (cfg.prefer_no_adaptation && result.feasible_without_adaptation) {
    adaptation.kind = mcs::AdaptationKind::kNone;
  }
  const RoundModel chosen = mech.at(result.n_hi, result.n_lo, result.n_adapt);
  result.converted = convert_to_mc(chosen);
  result.pfh_lo = pfh_lo_under_adaptation(chosen, adaptation);
  result.u_mc = umc_closed_form(ts.utilization(CritLevel::HI),
                                ts.utilization(CritLevel::LO), result.n_hi,
                                result.n_lo, result.n_adapt, adaptation.kind,
                                adaptation.degradation_factor);
  return result;
}

CkptFtsResult ft_schedule_checkpointed(const FtTaskSet& ts,
                                       const CkptFtsConfig& config) {
  ts.validate();
  CkptFtsResult result;

  const mcs::SchedulabilityTestPtr test =
      resolve_test(config.test, config.adaptation);
  result.scheduler_name = test->name();

  // --- Line 1-3: minimal uniform retry budgets per level.
  FtMechanism mech = FtMechanism::checkpointing(ts, config.segments,
                                                config.overhead_fraction);
  Search s(mech, config.requirements);
  result.failure = s.failure;
  if (s.failure != FtsFailure::kNone) return result;
  result.r_hi = *s.b_hi;
  result.r_lo = *s.b_lo;
  result.pfh_hi =
      pfh_plain(mech.at(result.r_hi, result.r_lo, 0), CritLevel::HI);

  // --- Line 4-8: minimal safe and maximal schedulable fault threshold.
  s.thresholds(mech, config.requirements, config.adaptation, *test,
               /*closed_form=*/false);
  result.failure = s.failure;
  result.m1 = s.m1;
  result.m2 = s.m2;
  if (s.failure != FtsFailure::kNone) return result;

  // --- Line 9-12.
  result.success = true;
  result.m_adapt = *s.m2;
  const RoundModel chosen = mech.at(result.r_hi, result.r_lo, result.m_adapt);
  result.converted = convert_to_mc(chosen);
  result.pfh_lo = pfh_lo_under_adaptation(chosen, config.adaptation);
  return result;
}

std::vector<AdaptationSweepPoint> sweep_adaptation(
    const FtTaskSet& ts, int n_hi, int n_lo, const AdaptationModel& model,
    const SafetyRequirements& reqs, int n_adapt_max, ExecAssumption exec) {
  ts.validate();
  FTMC_EXPECTS(n_adapt_max >= 0, "sweep bound must be non-negative");
  const double u_hi_base = ts.utilization(CritLevel::HI);
  const double u_lo_base = ts.utilization(CritLevel::LO);
  const Dal lo_dal = ts.mapping().lo;

  std::vector<AdaptationSweepPoint> points;
  points.reserve(static_cast<std::size_t>(n_adapt_max) + 1);
  for (int n = 0; n <= n_adapt_max; ++n) {
    AdaptationSweepPoint p;
    p.n_adapt = n;
    p.u_mc = umc_closed_form(u_hi_base, u_lo_base, n_hi, n_lo, n, model.kind,
                             model.degradation_factor);
    p.pfh_lo = pfh_lo_under_adaptation(ts, n_hi, n_lo, n, model, exec);
    p.schedulable = p.u_mc <= 1.0;
    p.safe = reqs.satisfied(lo_dal, p.pfh_lo);
    points.push_back(p);
  }
  return points;
}

}  // namespace ftmc::core
