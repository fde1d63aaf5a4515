#include "ftmc/check/property.hpp"

#include "ftmc/check/blackbox.hpp"
#include "ftmc/check/replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <sstream>

#include "ftmc/core/analysis.hpp"
#include "ftmc/core/analysis_reference.hpp"
#include "ftmc/core/profiles.hpp"
#include "ftmc/mcs/edf.hpp"
#include "ftmc/mcs/edf_reference.hpp"
#include "ftmc/mcs/mc_dbf_reference.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/mcs/edf_vd_degradation.hpp"
#include "ftmc/mcs/fixed_priority.hpp"
#include "ftmc/mcs/mc_dbf.hpp"
#include "ftmc/mcs/opa.hpp"
#include "ftmc/mcs/utilization_bounds.hpp"
#include "ftmc/obs/registry.hpp"
#include "ftmc/prob/safe_math.hpp"
#include "ftmc/sim/engine.hpp"

namespace ftmc::check {
namespace {

/// The simulator works in integer microsecond ticks while the analyses
/// work in double milliseconds; rounding can inflate simulated demand by
/// ~1 us per attempt. Analysis-vs-sim properties therefore only assert on
/// sets accepted with a little slack — a *marginally* accepted set (say
/// u_mc in (1 - 1e-3, 1]) is skipped rather than risking a false alarm
/// that is really a unit-conversion artifact.
constexpr double kUmcMargin = 1e-3;
/// Response-time slack (ms) required before asserting on AMC-rtb.
constexpr Millis kResponseMargin = 0.1;

/// Counts one `name` event while the global registry is enabled.
void bump(const char* name) {
  obs::Registry& registry = obs::Registry::global();
  if (registry.is_enabled()) registry.counter(name).inc();
}

/// Runs the worst-case fault adversary over the bounded hyperperiod and
/// reports the first deadline miss as a failure of `claim`.
Outcome run_worst_case_sim(const Case& c, sim::PolicyKind policy,
                           mcs::AdaptationKind adaptation, double x,
                           const PropertyContext& ctx,
                           std::string_view claim) {
  sim::SimConfig cfg;
  cfg.policy = policy;
  cfg.adaptation = adaptation;
  cfg.degradation_factor = adaptation == mcs::AdaptationKind::kDegradation
                               ? c.degradation_factor
                               : 1.0;
  cfg.horizon = bounded_hyperperiod(c.ts, ctx.max_sim_horizon);
  cfg.seed = c.seed;  // unused by the adversary; kept for reproducibility
  cfg.fault_adversary = sim::FaultAdversary::kExhaustBudget;
  sim::Simulator simulator(
      sim::build_sim_tasks(c.ts, c.n_hi, c.n_lo, c.n_adapt, x), cfg);
  const sim::SimStats stats = simulator.run();
  bump("check.sim_runs");

  for (std::size_t i = 0; i < stats.per_task.size(); ++i) {
    if (stats.per_task[i].deadline_misses == 0) continue;
    std::ostringstream msg;
    msg << claim << " accepted the set, but the worst-case fault adversary"
        << " produced " << stats.per_task[i].deadline_misses
        << " deadline miss(es) of task '" << simulator.tasks()[i].name
        << "' within " << cfg.horizon << " ticks (x=" << x
        << ", n_hi=" << c.n_hi << ", n_lo=" << c.n_lo
        << ", n'=" << c.n_adapt << ")";
    return Outcome::fail(msg.str());
  }
  return Outcome::pass();
}

[[nodiscard]] double clamp_x(double x) {
  return std::clamp(x, 0.001, 1.0);
}

// ---------------------------------------------------------------------
// Family 1: analysis vs. simulation.
// ---------------------------------------------------------------------

Outcome p_edf_vd_killing_vs_sim(const Case& c, const PropertyContext& ctx) {
  if (c.ts.size() == 0) return Outcome::skip("empty set");
  const mcs::McTaskSet mc = convert_under_test(c, ctx.bugs);
  if (!mc.all_implicit_deadlines()) {
    return Outcome::skip("EDF-VD needs implicit deadlines");
  }
  const mcs::EdfVdAnalysis vd = mcs::analyze_edf_vd(mc);
  if (!vd.schedulable) return Outcome::skip("EDF-VD rejects");
  if (vd.u_mc > 1.0 - kUmcMargin) {
    bump("check.marginal_skips");
    return Outcome::skip("marginal acceptance");
  }
  return run_worst_case_sim(c, sim::PolicyKind::kEdfVd,
                            mcs::AdaptationKind::kKilling, clamp_x(vd.x),
                            ctx, "FT-EDF-VD (killing)");
}

Outcome p_edf_vd_degradation_vs_sim(const Case& c,
                                    const PropertyContext& ctx) {
  if (c.ts.size() == 0) return Outcome::skip("empty set");
  const mcs::McTaskSet mc = convert_under_test(c, ctx.bugs);
  if (!mc.all_implicit_deadlines()) {
    return Outcome::skip("EDF-VD needs implicit deadlines");
  }
  const mcs::EdfVdDegradationAnalysis an =
      mcs::analyze_edf_vd_degradation(mc, c.degradation_factor);
  if (!an.schedulable) return Outcome::skip("EDF-VD(degradation) rejects");
  if (an.u_mc > 1.0 - kUmcMargin) {
    bump("check.marginal_skips");
    return Outcome::skip("marginal acceptance");
  }
  return run_worst_case_sim(c, sim::PolicyKind::kEdfVd,
                            mcs::AdaptationKind::kDegradation,
                            clamp_x(an.x), ctx, "FT-EDF-VD (degradation)");
}

Outcome p_amc_rtb_vs_sim(const Case& c, const PropertyContext& ctx) {
  if (c.ts.size() == 0) return Outcome::skip("empty set");
  const mcs::McTaskSet mc = convert_under_test(c, ctx.bugs);
  if (!mc.all_constrained_deadlines()) {
    return Outcome::skip("AMC-rtb needs constrained deadlines");
  }
  const mcs::ResponseTimes rt = mcs::analyze_amc_rtb(mc);
  if (!rt.schedulable) return Outcome::skip("AMC-rtb rejects");
  for (std::size_t i = 0; i < mc.size(); ++i) {
    const Millis worst =
        std::max(rt.lo[i], rt.hi.empty() ? 0.0 : rt.hi[i]);
    if (worst > mc[i].deadline - kResponseMargin) {
      bump("check.marginal_skips");
      return Outcome::skip("marginal acceptance");
    }
  }
  return run_worst_case_sim(c, sim::PolicyKind::kFixedPriority,
                            mcs::AdaptationKind::kKilling, 1.0, ctx,
                            "AMC-rtb (DM priorities)");
}

// ---------------------------------------------------------------------
// Family 2: sufficient vs. exact.
// ---------------------------------------------------------------------

Outcome p_edf_vd_subset_mc_dbf(const Case& c, const PropertyContext& ctx) {
  if (c.ts.size() == 0) return Outcome::skip("empty set");
  const mcs::McTaskSet under_test = convert_under_test(c, ctx.bugs);
  if (!under_test.all_implicit_deadlines()) {
    return Outcome::skip("EDF-VD needs implicit deadlines");
  }
  const mcs::EdfVdAnalysis vd = mcs::analyze_edf_vd(under_test);
  if (!vd.schedulable) return Outcome::skip("EDF-VD rejects");

  // The oracle always sees the *true* demand (clean Lemma 4.1
  // conversion); an injected corruption of the set under test must
  // surface as a disagreement here or as a miss in the arbitration sim.
  const mcs::McTaskSet truth =
      core::convert_to_mc(c.ts, c.n_hi, c.n_lo, c.n_adapt);
  if (mcs::McDbfTest{}.schedulable(truth)) return Outcome::pass();

  // Disagreement. MC-DBF's virtual-deadline tuner is itself heuristic, so
  // a rejection does not by itself prove EDF-VD unsound — arbitrate by
  // simulation: a deadline miss convicts the sufficient test, no miss is
  // (bounded) evidence the exact test was merely unable to tune deadlines.
  if (vd.u_mc > 1.0 - kUmcMargin) {
    bump("check.marginal_skips");
    return Outcome::skip("marginal acceptance");
  }
  const Outcome sim_verdict = run_worst_case_sim(
      c, sim::PolicyKind::kEdfVd, mcs::AdaptationKind::kKilling,
      clamp_x(vd.x), ctx, "FT-EDF-VD (killing)");
  if (sim_verdict.verdict == Verdict::kFail) {
    return Outcome::fail(
        "EDF-VD accepted a set the exact MC-DBF test rejects, and "
        "simulation confirms it: " + sim_verdict.message);
  }
  bump("check.pessimism_disagreements");
  return Outcome::pass();
}

Outcome p_edf_vd_lo_demand(const Case& c, const PropertyContext& ctx) {
  if (c.ts.size() == 0) return Outcome::skip("empty set");
  const mcs::McTaskSet mc = convert_under_test(c, ctx.bugs);
  if (!mc.all_implicit_deadlines()) {
    return Outcome::skip("EDF-VD needs implicit deadlines");
  }
  const mcs::EdfVdAnalysis vd = mcs::analyze_edf_vd(mc);
  if (!vd.schedulable) return Outcome::skip("EDF-VD rejects");
  const double x = std::clamp(vd.x, 1e-9, 1.0);
  // Acceptance means u_lo_lo + u_hi_lo / x <= 1; close to equality the
  // demand-bound check below would be deciding floating-point dust.
  if (vd.u_lo_lo + vd.u_hi_lo / x > 1.0 - 1e-9) {
    return Outcome::skip("marginal acceptance");
  }

  // Theorem: EDF-VD acceptance with factor x implies the LO-mode view
  // (every task at C(LO); HI tasks against virtual deadline x*D) passes
  // the exact processor-demand test, because dbf_i(t) <= (t/d_i) C_i for
  // d_i <= T_i, summing to t * (U_LO^LO + U_HI^LO / x) <= t.
  std::vector<mcs::SporadicTask> lo_view;
  for (const mcs::McTask& t : mc.tasks()) {
    if (t.wcet_lo <= 0.0) continue;  // n' = 0: no LO-mode demand
    const Millis d =
        t.crit == CritLevel::HI ? x * t.deadline : t.deadline;
    lo_view.push_back({t.period, d, t.wcet_lo});
  }
  const mcs::EdfDbfResult r = mcs::edf_schedulable(lo_view);
  if (!r.schedulable) {
    std::ostringstream msg;
    msg << "EDF-VD accepted with x=" << x
        << " but its own LO-mode view fails the demand-bound test at t="
        << r.violation_at << " ms";
    return Outcome::fail(msg.str());
  }
  return Outcome::pass();
}

Outcome p_rm_bounds_subset_rta(const Case& c, const PropertyContext& ctx) {
  (void)ctx;
  if (c.ts.size() == 0) return Outcome::skip("empty set");
  const mcs::McTaskSet mc =
      core::convert_to_mc(c.ts, c.n_hi, c.n_lo, c.n_adapt);
  if (!mc.all_implicit_deadlines()) {
    return Outcome::skip("RM bounds need implicit deadlines");
  }
  std::vector<double> u;
  u.reserve(mc.size());
  for (const mcs::McTask& t : mc.tasks()) {
    u.push_back(t.utilization(t.crit));  // own-criticality budget
  }
  const bool ll = mcs::rm_schedulable_liu_layland(u);
  const bool hyp = mcs::rm_schedulable_hyperbolic(u);
  if (ll && !hyp) {
    return Outcome::fail(
        "Liu-Layland accepted a set the hyperbolic bound rejects "
        "(hyperbolic dominates Liu-Layland)");
  }
  if (hyp && !mcs::DmWorstCaseTest{}.schedulable(mc)) {
    return Outcome::fail(
        "the hyperbolic RM bound accepted a set exact worst-case RTA "
        "rejects (RTA is exact for implicit-deadline RM)");
  }
  if (!ll && !hyp) return Outcome::skip("neither bound accepts");
  return Outcome::pass();
}

Outcome p_amc_rtb_dm_subset_opa(const Case& c, const PropertyContext& ctx) {
  (void)ctx;
  if (c.ts.size() == 0) return Outcome::skip("empty set");
  const mcs::McTaskSet mc =
      core::convert_to_mc(c.ts, c.n_hi, c.n_lo, c.n_adapt);
  if (!mc.all_constrained_deadlines()) {
    return Outcome::skip("AMC-rtb needs constrained deadlines");
  }
  if (!mcs::AmcRtbTest{}.schedulable(mc)) {
    return Outcome::skip("DM-ordered AMC-rtb rejects");
  }
  if (!mcs::opa_assign_amc_rtb(mc).has_value()) {
    return Outcome::fail(
        "DM-ordered AMC-rtb accepted the set but Audsley's OPA (optimal "
        "for AMC-rtb) found no priority assignment");
  }
  return Outcome::pass();
}

// ---------------------------------------------------------------------
// Family 3: metamorphic PFH properties (Lemmas 3.1-3.4).
// ---------------------------------------------------------------------

[[nodiscard]] core::FtTaskSet scale_failure_prob(const core::FtTaskSet& ts,
                                                 double factor) {
  std::vector<core::FtTask> tasks;
  tasks.reserve(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    core::FtTask t = ts[i];
    t.failure_prob = std::min(t.failure_prob * factor, 0.5);
    tasks.push_back(std::move(t));
  }
  return core::FtTaskSet(std::move(tasks), ts.mapping());
}

[[nodiscard]] core::FtTaskSet scale_time(const core::FtTaskSet& ts,
                                         double lambda) {
  std::vector<core::FtTask> tasks;
  tasks.reserve(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    core::FtTask t = ts[i];
    t.period *= lambda;
    t.deadline *= lambda;
    t.wcet *= lambda;
    tasks.push_back(std::move(t));
  }
  return core::FtTaskSet(std::move(tasks), ts.mapping());
}

Outcome p_pfh_monotone_in_fault_rate(const Case& c,
                                     const PropertyContext& ctx) {
  (void)ctx;
  if (c.ts.size() == 0) return Outcome::skip("empty set");
  const core::PerTaskProfile n =
      core::uniform_profile(c.ts, c.n_hi, c.n_lo);
  const core::FtTaskSet hotter = scale_failure_prob(c.ts, 2.0);
  for (const CritLevel level : {CritLevel::HI, CritLevel::LO}) {
    const double base = core::pfh_plain(c.ts, n, level);
    const double hot = core::pfh_plain(hotter, n, level);
    if (hot < base * (1.0 - 1e-9)) {
      std::ostringstream msg;
      msg << "pfh_plain(" << to_string(level)
          << ") is not monotone in the fault rate: f*2 gives " << hot
          << " < " << base;
      return Outcome::fail(msg.str());
    }
  }
  return Outcome::pass();
}

Outcome p_pfh_antimonotone_in_reexec(const Case& c,
                                     const PropertyContext& ctx) {
  (void)ctx;
  if (c.ts.size() == 0) return Outcome::skip("empty set");
  const core::PerTaskProfile n =
      core::uniform_profile(c.ts, c.n_hi, c.n_lo);
  const core::PerTaskProfile n_plus =
      core::uniform_profile(c.ts, c.n_hi + 1, c.n_lo + 1);
  for (const CritLevel level : {CritLevel::HI, CritLevel::LO}) {
    const double base = core::pfh_plain(c.ts, n, level);
    const double more = core::pfh_plain(c.ts, n_plus, level);
    if (more > base * (1.0 + 1e-9)) {
      std::ostringstream msg;
      msg << "pfh_plain(" << to_string(level)
          << ") is not anti-monotone in the re-execution budget: n+1 "
          << "gives " << more << " > " << base;
      return Outcome::fail(msg.str());
    }
  }
  return Outcome::pass();
}

Outcome p_pfh_rescale_invariance(const Case& c, const PropertyContext& ctx) {
  (void)ctx;
  if (c.ts.size() == 0) return Outcome::skip("empty set");
  // lambda = 2 is exact in binary floating point, so these are equalities
  // up to log/exp roundoff, not approximations.
  const double lambda = 2.0;
  const core::FtTaskSet scaled = scale_time(c.ts, lambda);
  const core::PerTaskProfile n =
      core::uniform_profile(c.ts, c.n_hi, c.n_lo);
  const core::PerTaskProfile n_adapt =
      core::uniform_profile(c.ts, c.n_adapt, 0);

  for (const Millis t : {3'600'000.0, 1'800'000.0, 250'000.0}) {
    for (std::size_t i = 0; i < c.ts.size(); ++i) {
      const double r0 = core::rounds(c.ts[i], c.n_hi, t);
      const double r1 = core::rounds(scaled[i], c.n_hi, lambda * t);
      if (r0 != r1) {
        std::ostringstream msg;
        msg << "rounds() is not invariant under uniform time rescaling: "
            << "task '" << c.ts[i].name << "', t=" << t << ": " << r0
            << " vs " << r1;
        return Outcome::fail(msg.str());
      }
    }
    const double s0 = core::survival_no_trigger(c.ts, n_adapt, t).log();
    const double s1 =
        core::survival_no_trigger(scaled, n_adapt, lambda * t).log();
    const double tol = 1e-12 * std::max(1.0, std::abs(s0));
    if (std::abs(s0 - s1) > tol) {
      std::ostringstream msg;
      msg << "survival_no_trigger is not invariant under rescaling at t="
          << t << ": log " << s0 << " vs " << s1;
      return Outcome::fail(msg.str());
    }
  }

  const double os = 0.25;
  const double d0 = core::pfh_lo_degradation(c.ts, n, n_adapt, os);
  const double d1 =
      core::pfh_lo_degradation(scaled, n, n_adapt, lambda * os) * lambda;
  const double tol = 1e-12 * std::max(d0, 1e-300);
  if (std::abs(d0 - d1) > tol) {
    std::ostringstream msg;
    msg << "pfh_lo_degradation does not rescale covariantly: " << d0
        << " vs " << d1;
    return Outcome::fail(msg.str());
  }
  return Outcome::pass();
}

Outcome p_pfh_lo_bound_ordering(const Case& c, const PropertyContext& ctx) {
  (void)ctx;
  if (c.ts.size() == 0) return Outcome::skip("empty set");
  const core::PerTaskProfile n =
      core::uniform_profile(c.ts, c.n_hi, c.n_lo);
  const core::PerTaskProfile n_adapt =
      core::uniform_profile(c.ts, c.n_adapt, 0);
  // os_hours = 1 aligns the degradation/killing window with pfh_plain's
  // fixed one-hour horizon, making both orderings exact theorems:
  //   degradation = (1 - R) * plain <= plain, and the killing summand
  //   1 - R(alpha)(1 - f^n) >= f^n point-for-point.
  const double plain = core::pfh_plain(c.ts, n, CritLevel::LO);
  const double degradation =
      core::pfh_lo_degradation(c.ts, n, n_adapt, 1.0);
  core::KillingBoundOptions opt;
  opt.os_hours = 1.0;
  const double killing = core::pfh_lo_killing(c.ts, n, n_adapt, opt);
  if (degradation > plain * (1.0 + 1e-9)) {
    std::ostringstream msg;
    msg << "degradation bound " << degradation
        << " exceeds the plain bound " << plain << " at LO";
    return Outcome::fail(msg.str());
  }
  if (killing < plain * (1.0 - 1e-9)) {
    std::ostringstream msg;
    msg << "killing bound " << killing
        << " is below the plain bound " << plain
        << " at LO (killing can only add kill events)";
    return Outcome::fail(msg.str());
  }
  return Outcome::pass();
}

Outcome p_trigger_union_bound(const Case& c, const PropertyContext& ctx) {
  (void)ctx;
  if (c.ts.size() == 0) return Outcome::skip("empty set");
  const core::PerTaskProfile n_adapt =
      core::uniform_profile(c.ts, c.n_adapt, 0);
  const Millis t = 3'600'000.0;
  // Weierstrass: 1 - prod (1-p_j)^{r_j} <= sum r_j p_j.
  const double trigger =
      core::survival_no_trigger(c.ts, n_adapt, t).complement().linear();
  double union_bound = 0.0;
  for (std::size_t i = 0; i < c.ts.size(); ++i) {
    if (c.ts.crit_of(i) != CritLevel::HI) continue;
    union_bound += core::rounds(c.ts[i], c.n_adapt, t) *
                   prob::pow_prob(c.ts[i].failure_prob, c.n_adapt);
  }
  union_bound = std::min(union_bound, 1.0);
  if (trigger > union_bound + 1e-12) {
    std::ostringstream msg;
    msg << "trigger probability " << trigger
        << " exceeds its union bound " << union_bound;
    return Outcome::fail(msg.str());
  }

  // Survival is anti-monotone in time and monotone in the profile.
  const double r_half =
      core::survival_no_trigger(c.ts, n_adapt, t / 2.0).log();
  const double r_full =
      core::survival_no_trigger(c.ts, n_adapt, t).log();
  if (r_full > r_half + 1e-12) {
    return Outcome::fail("survival_no_trigger grew with a longer window");
  }
  const core::PerTaskProfile deeper =
      core::uniform_profile(c.ts, c.n_adapt + 1, 0);
  const double r_deeper =
      core::survival_no_trigger(c.ts, deeper, t).log();
  if (r_deeper < r_full - 1e-12) {
    return Outcome::fail(
        "survival_no_trigger shrank with a deeper adaptation profile");
  }
  return Outcome::pass();
}

// ---------------------------------------------------------------------
// Family 5: fastpath equivalence. The optimized hot paths must match the
// retained straight-line references byte for byte — the contract is
// bit-identity, so every comparison below is on the raw representation,
// never within a tolerance.
// ---------------------------------------------------------------------

[[nodiscard]] bool bits_equal(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  return ua == ub;
}

[[nodiscard]] Outcome fail_bits(const char* what, double fast,
                                double reference) {
  std::ostringstream msg;
  msg.precision(17);
  msg << what << " diverged from the straight-line reference: optimized "
      << fast << " vs reference " << reference;
  return Outcome::fail(msg.str());
}

Outcome compare_edf(const std::vector<mcs::SporadicTask>& view,
                    const char* label) {
  const mcs::EdfDbfResult fast = mcs::edf_schedulable(view);
  const mcs::EdfDbfResult ref = mcs::reference::edf_schedulable(view);
  if (fast.schedulable != ref.schedulable) {
    std::ostringstream msg;
    msg << "edf_schedulable(" << label << ") verdict diverged: optimized "
        << fast.schedulable << " vs reference " << ref.schedulable;
    return Outcome::fail(msg.str());
  }
  if (!bits_equal(fast.utilization, ref.utilization)) {
    return fail_bits("edf_schedulable utilization", fast.utilization,
                     ref.utilization);
  }
  if (!bits_equal(fast.violation_at, ref.violation_at)) {
    return fail_bits("edf_schedulable violation_at", fast.violation_at,
                     ref.violation_at);
  }
  if (!bits_equal(fast.tested_up_to, ref.tested_up_to)) {
    return fail_bits("edf_schedulable tested_up_to", fast.tested_up_to,
                     ref.tested_up_to);
  }
  return Outcome::pass();
}

Outcome p_fastpath_edf_equivalence(const Case& c,
                                   const PropertyContext& ctx) {
  (void)ctx;
  if (c.ts.size() == 0) return Outcome::skip("empty set");
  const mcs::McTaskSet mc =
      core::convert_to_mc(c.ts, c.n_hi, c.n_lo, c.n_adapt);

  // Implicit-deadline views take the D >= T shortcut; halving every
  // deadline (exact in binary floating point) forces the merge-scan and,
  // on overloaded sets, the early-violation exit.
  for (const CritLevel level : {CritLevel::LO, CritLevel::HI}) {
    std::vector<mcs::SporadicTask> view = mcs::as_sporadic(mc, level);
    Outcome o = compare_edf(view, "level view");
    if (o.verdict != Verdict::kPass) return o;
    for (mcs::SporadicTask& t : view) t.deadline *= 0.5;
    o = compare_edf(view, "constrained view");
    if (o.verdict != Verdict::kPass) return o;
  }
  return compare_edf(mcs::as_sporadic_own_level(mc), "own-level view");
}

Outcome p_fastpath_mc_dbf_equivalence(const Case& c,
                                      const PropertyContext& ctx) {
  (void)ctx;
  if (c.ts.size() == 0) return Outcome::skip("empty set");
  const mcs::McTaskSet mc =
      core::convert_to_mc(c.ts, c.n_hi, c.n_lo, c.n_adapt);
  if (!mc.all_constrained_deadlines()) {
    return Outcome::skip("MC-DBF needs constrained deadlines");
  }

  mcs::McDbfOptions coarse;
  coarse.grid = 7;
  coarse.max_refinement_steps = 8;
  for (const mcs::McDbfOptions& options :
       {mcs::McDbfOptions{}, coarse}) {
    const mcs::McDbfAnalysis fast = mcs::analyze_mc_dbf(mc, options);
    const mcs::McDbfAnalysis ref =
        mcs::reference::analyze_mc_dbf(mc, options);
    if (fast.schedulable != ref.schedulable ||
        fast.refinement_steps != ref.refinement_steps) {
      std::ostringstream msg;
      msg << "analyze_mc_dbf(grid=" << options.grid
          << ") diverged: optimized (" << fast.schedulable << ", "
          << fast.refinement_steps << " steps) vs reference ("
          << ref.schedulable << ", " << ref.refinement_steps << " steps)";
      return Outcome::fail(msg.str());
    }
    if (!bits_equal(fast.uniform_factor, ref.uniform_factor)) {
      return fail_bits("analyze_mc_dbf uniform_factor", fast.uniform_factor,
                       ref.uniform_factor);
    }
    for (std::size_t i = 0; i < fast.virtual_deadlines.size(); ++i) {
      if (!bits_equal(fast.virtual_deadlines[i],
                      ref.virtual_deadlines[i])) {
        return fail_bits("analyze_mc_dbf virtual deadline",
                         fast.virtual_deadlines[i],
                         ref.virtual_deadlines[i]);
      }
    }
  }
  return Outcome::pass();
}

Outcome p_fastpath_pfh_killing_equivalence(const Case& c,
                                           const PropertyContext& ctx) {
  (void)ctx;
  if (c.ts.size() == 0) return Outcome::skip("empty set");
  const core::PerTaskProfile n =
      core::uniform_profile(c.ts, c.n_hi, c.n_lo);
  const core::PerTaskProfile n_adapt =
      core::uniform_profile(c.ts, c.n_adapt, 0);

  core::KillingBoundOptions opt;
  opt.os_hours = 1.0;
  core::KillingBoundOptions early = opt;
  early.early_exit_above = 1e-12;  // trips on almost every generated set
  for (const core::KillingBoundOptions& options : {opt, early}) {
    const double fast = core::pfh_lo_killing(c.ts, n, n_adapt, options);
    const double ref =
        core::reference::pfh_lo_killing(c.ts, n, n_adapt, options);
    if (!bits_equal(fast, ref)) {
      return fail_bits("pfh_lo_killing", fast, ref);
    }
  }
  return Outcome::pass();
}

Outcome p_fastpath_pfh_survival_equivalence(const Case& c,
                                            const PropertyContext& ctx) {
  (void)ctx;
  if (c.ts.size() == 0) return Outcome::skip("empty set");
  const core::PerTaskProfile n =
      core::uniform_profile(c.ts, c.n_hi, c.n_lo);
  const core::PerTaskProfile n_adapt =
      core::uniform_profile(c.ts, c.n_adapt, 0);

  for (const CritLevel level : {CritLevel::HI, CritLevel::LO}) {
    const double fast = core::pfh_plain(c.ts, n, level);
    const double ref = core::reference::pfh_plain(c.ts, n, level);
    if (!bits_equal(fast, ref)) return fail_bits("pfh_plain", fast, ref);
  }
  for (const Millis t : {3'600'000.0, 1'800'000.0, 250'000.0}) {
    const double fast = core::survival_no_trigger(c.ts, n_adapt, t).log();
    const double ref =
        core::reference::survival_no_trigger(c.ts, n_adapt, t).log();
    if (!bits_equal(fast, ref)) {
      return fail_bits("survival_no_trigger", fast, ref);
    }
  }
  const double fast = core::pfh_lo_degradation(c.ts, n, n_adapt, 1.0);
  const double ref =
      core::reference::pfh_lo_degradation(c.ts, n, n_adapt, 1.0);
  if (!bits_equal(fast, ref)) {
    return fail_bits("pfh_lo_degradation", fast, ref);
  }
  return Outcome::pass();
}

constexpr Property kProperties[] = {
    {"edf_vd_killing_vs_sim", kFamilyAnalysisVsSim,
     "FT-EDF-VD(killing) acceptance survives the worst-case fault "
     "adversary with zero deadline misses",
     &p_edf_vd_killing_vs_sim},
    {"edf_vd_degradation_vs_sim", kFamilyAnalysisVsSim,
     "FT-EDF-VD(degradation) acceptance survives the worst-case fault "
     "adversary",
     &p_edf_vd_degradation_vs_sim},
    {"amc_rtb_vs_sim", kFamilyAnalysisVsSim,
     "AMC-rtb acceptance survives the worst-case fault adversary under "
     "DM fixed priorities",
     &p_amc_rtb_vs_sim},
    {"edf_vd_subset_mc_dbf", kFamilySufficientVsExact,
     "EDF-VD acceptances are a subset of the exact MC-DBF test "
     "(disagreements arbitrated by simulation)",
     &p_edf_vd_subset_mc_dbf},
    {"edf_vd_lo_demand", kFamilySufficientVsExact,
     "EDF-VD acceptance implies its own LO-mode view passes the exact "
     "demand-bound test",
     &p_edf_vd_lo_demand},
    {"rm_bounds_subset_rta", kFamilySufficientVsExact,
     "Liu-Layland implies hyperbolic implies exact RTA (worst-case RM)",
     &p_rm_bounds_subset_rta},
    {"amc_rtb_dm_subset_opa", kFamilySufficientVsExact,
     "DM-ordered AMC-rtb acceptance implies OPA finds an assignment "
     "(independent AMC-rtb implementations)",
     &p_amc_rtb_dm_subset_opa},
    {"pfh_monotone_in_fault_rate", kFamilyPfhMetamorphic,
     "pfh_plain grows when every per-attempt fault rate doubles",
     &p_pfh_monotone_in_fault_rate},
    {"pfh_antimonotone_in_reexec", kFamilyPfhMetamorphic,
     "pfh_plain shrinks when every re-execution budget grows by one",
     &p_pfh_antimonotone_in_reexec},
    {"pfh_rescale_invariance", kFamilyPfhMetamorphic,
     "rounds/survival/degradation bounds are invariant (covariant) under "
     "uniform x2 time rescaling",
     &p_pfh_rescale_invariance},
    {"pfh_lo_bound_ordering", kFamilyPfhMetamorphic,
     "degradation <= plain <= killing at LO over a common window",
     &p_pfh_lo_bound_ordering},
    {"trigger_union_bound", kFamilyPfhMetamorphic,
     "kill/degrade trigger probability obeys its union bound; survival "
     "monotone in profile, anti-monotone in time",
     &p_trigger_union_bound},
    {"replay_adversary_killing", kFamilyTraceReplay,
     "POSIX host trace replays bit-identically through the simulator "
     "host (worst-case adversary, killing)",
     &p_replay_adversary_killing},
    {"replay_bernoulli_degradation", kFamilyTraceReplay,
     "POSIX host trace replays bit-identically through the simulator "
     "host (Bernoulli faults, degradation, idle mode reset)",
     &p_replay_bernoulli_degradation},
    {"replay_determinism", kFamilyTraceReplay,
     "two seed-matched POSIX host runs produce identical event streams",
     &p_replay_determinism},
    {"blackbox_replay", kFamilyTraceReplay,
     "a flight-recorder dump (wrapped ring included) parses back and "
     "replays record-for-record against the simulator host",
     &p_blackbox_replay},
    {"fastpath_edf_equivalence", kFamilyFastpathEquivalence,
     "merge-scan edf_schedulable is byte-identical to the sort-based "
     "reference on level, constrained and own-level views",
     &p_fastpath_edf_equivalence},
    {"fastpath_mc_dbf_equivalence", kFamilyFastpathEquivalence,
     "memoized MC-DBF tuner returns byte-identical verdicts, virtual "
     "deadlines and refinement counts to the un-memoized reference",
     &p_fastpath_mc_dbf_equivalence},
    {"fastpath_pfh_killing_equivalence", kFamilyFastpathEquivalence,
     "batched pfh_lo_killing (SoA survival kernel) is byte-identical to "
     "the scalar reference, early-exit path included",
     &p_fastpath_pfh_killing_equivalence},
    {"fastpath_pfh_survival_equivalence", kFamilyFastpathEquivalence,
     "pfh_plain / survival_no_trigger / pfh_lo_degradation are "
     "byte-identical to their straight-line references",
     &p_fastpath_pfh_survival_equivalence},
};

}  // namespace

const std::vector<Property>& all_properties() {
  static const std::vector<Property> props(std::begin(kProperties),
                                           std::end(kProperties));
  return props;
}

const Property* find_property(std::string_view name) {
  for (const Property& p : all_properties()) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

sim::Tick bounded_hyperperiod(const core::FtTaskSet& ts, sim::Tick cap) {
  FTMC_EXPECTS(cap > 0, "hyperperiod cap must be positive");
  sim::Tick l = 1;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const sim::Tick p =
        std::max<sim::Tick>(sim::millis_to_ticks(ts[i].period), 1);
    const sim::Tick g = std::gcd(l, p);
    const sim::Tick step = p / g;
    if (l > cap / step) return cap;  // lcm would overflow the cap
    l *= step;
  }
  return std::min(l, cap);
}

}  // namespace ftmc::check
