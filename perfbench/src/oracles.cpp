#include "oracles.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>

#include "ftmc/mcs/mc_dbf.hpp"
#include "ftmc/taskgen/generator.hpp"

namespace perfbench::oracle {

namespace {

using ftmc::CritLevel;
using ftmc::Dal;

constexpr long double kHourMs = 3.6e6L;
/// Relative distance from a threshold below which a comparison is a
/// numerical tie that the program may decide either way.
constexpr long double kTie = 1e-9L;

/// DO-178B PFH requirements of the paper's Table 1 (D and E unconstrained).
[[nodiscard]] std::optional<long double> requirement(Dal dal) {
  switch (dal) {
    case Dal::A: return 1e-9L;
    case Dal::B: return 1e-7L;
    case Dal::C: return 1e-5L;
    default: return std::nullopt;
  }
}

struct PlainTask {
  long double period = 0;
  long double wcet = 0;
  long double f = 0;
  bool hi = false;
};

enum class Tri { kNo, kYes, kTie };

/// Eq. (1): r_i(n, t) = max(floor((t - n C_i) / T_i) + 1, 0).
[[nodiscard]] long double rounds(const PlainTask& t, int n, long double horizon) {
  return std::max(std::floor((horizon - n * t.wcet) / t.period) + 1.0L, 0.0L);
}

[[nodiscard]] bool near(long double value, long double threshold) {
  return std::fabs(value - threshold) <= kTie * std::fabs(threshold);
}

struct Profile {
  int n = 1;
  bool found = true;
};

/// Algorithm 1 line 2: the least uniform n with Eq. (2) strictly below
/// the level's requirement. Sets `tie` when a candidate lands on it.
[[nodiscard]] Profile min_profile(const std::vector<PlainTask>& tasks, bool hi,
                                  std::optional<long double> req, bool& tie) {
  const bool any = std::any_of(tasks.begin(), tasks.end(),
                               [hi](const PlainTask& t) { return t.hi == hi; });
  if (!req || !any) return {1, true};
  for (int n = 1; n <= 64; ++n) {
    long double pfh = 0;
    for (const PlainTask& t : tasks) {
      if (t.hi == hi) pfh += rounds(t, n, kHourMs) * std::pow(t.f, n);
    }
    if (near(pfh, *req)) tie = true;
    if (pfh < *req) return {n, true};
  }
  return {0, false};
}

/// Eq. (7): (1 - R(N', t)) * omega(1, t) / O_S at t = O_S hours, with
/// R(N', t) = prod_HI (1 - f^n')^r_i(n', t) (Eq. (3)).
[[nodiscard]] long double pfh_degradation(const std::vector<PlainTask>& tasks,
                                          int n_lo, int n_adapt,
                                          long double os_hours) {
  const long double t = os_hours * kHourMs;
  long double log_r = 0;
  bool certain = false;  // some HI job certainly reaches attempt n'+1
  for (const PlainTask& task : tasks) {
    if (!task.hi) continue;
    const long double r = rounds(task, n_adapt, t);
    if (r <= 0) continue;
    if (n_adapt == 0) {
      certain = true;
    } else {
      log_r += r * std::log1p(-std::pow(task.f, n_adapt));
    }
  }
  const long double trigger = certain ? 1.0L : -std::expm1(log_r);
  long double omega = 0;
  for (const PlainTask& task : tasks) {
    if (!task.hi) omega += rounds(task, n_lo, t) * std::pow(task.f, n_lo);
  }
  return trigger * omega / os_hours;
}

/// Eq. (11): U_MC of EDF-VD with service degradation by d_f.
[[nodiscard]] long double umc_degradation(long double u_lo_lo,
                                          long double u_hi_lo,
                                          long double u_hi_hi, long double df) {
  if (u_lo_lo >= 1) return std::numeric_limits<long double>::infinity();
  const long double x = u_hi_lo / (1 - u_lo_lo);
  if (x >= 1) return std::numeric_limits<long double>::infinity();
  return std::max(u_hi_lo + u_lo_lo, u_hi_hi / (1 - x) + u_lo_lo / (df - 1));
}

struct SetVerdict {
  Tri without = Tri::kNo;
  Tri with = Tri::kNo;
};

[[nodiscard]] SetVerdict fig3_set(const ftmc::core::FtTaskSet& ts,
                                  const ftmc::campaign::CellSpec& cell,
                                  bool degradation) {
  std::vector<PlainTask> tasks;
  long double u_hi = 0, u_lo = 0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    PlainTask t;
    t.period = ts[i].period;
    t.wcet = ts[i].wcet;
    t.f = ts[i].failure_prob;
    t.hi = ts.crit_of(i) == CritLevel::HI;
    (t.hi ? u_hi : u_lo) += t.wcet / t.period;
    tasks.push_back(t);
  }
  bool tie = false;
  const Profile hi = min_profile(tasks, true, requirement(cell.mapping.hi), tie);
  const Profile lo = min_profile(tasks, false, requirement(cell.mapping.lo), tie);
  SetVerdict v;
  if (!hi.found || !lo.found) return v;  // FT-S fails before either verdict

  // Plain EDF on own-level budgets (implicit deadlines: U <= 1).
  long double u_own = 0;
  for (const PlainTask& t : tasks) u_own += (t.hi ? hi.n : lo.n) * t.wcet / t.period;
  if (near(u_own, 1)) tie = true;
  v.without = u_own <= 1 ? Tri::kYes : Tri::kNo;

  if (degradation) {
    if (v.without == Tri::kYes) {
      v.with = Tri::kYes;
    } else {
      std::optional<int> n1;
      const auto req_lo = requirement(cell.mapping.lo);
      if (!req_lo) {
        n1 = 0;
      } else {
        for (int n = 0; n < hi.n && !n1; ++n) {
          const long double p =
              pfh_degradation(tasks, lo.n, n, cell.os_hours);
          if (near(p, *req_lo)) tie = true;
          if (p < *req_lo) n1 = n;
        }
      }
      std::optional<int> n2;
      for (int n = hi.n; n >= 0 && !n2; --n) {
        const long double umc =
            umc_degradation(lo.n * u_lo, n * u_hi, hi.n * u_hi,
                            cell.degradation_factor);
        if (near(umc, 1)) tie = true;
        if (umc <= 1) n2 = n;
      }
      v.with = (n1 && n2 && *n1 <= *n2) ? Tri::kYes : Tri::kNo;
    }
  }
  if (tie) v.without = v.with = Tri::kTie;
  return v;
}

void widen(CountRange& range, Tri t) {
  if (t == Tri::kYes) ++range.lo;
  if (t != Tri::kNo) ++range.hi;
}

}  // namespace

ftmc::taskgen::GeneratorParams cell_generator_params(
    const ftmc::campaign::CellSpec& cell) {
  ftmc::taskgen::GeneratorParams params;
  params.u_min = cell.generator.u_min;
  params.u_max = cell.generator.u_max;
  params.period_min = cell.generator.period_min_ms;
  params.period_max = cell.generator.period_max_ms;
  params.period_distribution = cell.generator.period_distribution;
  params.p_hi = cell.generator.p_hi;
  params.target_utilization = cell.utilization;
  params.failure_prob = cell.failure_prob;
  params.mapping = cell.mapping;
  return params;
}

Fig3Expectation fig3_expected(const ftmc::campaign::CellSpec& cell) {
  const ftmc::taskgen::GeneratorParams params = cell_generator_params(cell);
  const bool degradation = ftmc::campaign::adaptation_of(cell.scheduler) ==
                           ftmc::mcs::AdaptationKind::kDegradation;

  Fig3Expectation e;
  e.with_checked = degradation;
  ftmc::taskgen::Rng rng(cell.seed);
  for (int i = 0; i < cell.sets_per_point; ++i) {
    const ftmc::core::FtTaskSet ts = ftmc::taskgen::generate_task_set(params, rng);
    const SetVerdict v = fig3_set(ts, cell, degradation);
    widen(e.without, v.without);
    widen(e.with, v.with);
  }
  return e;
}

void check_fig3_cell(const ftmc::campaign::CellSpec& cell,
                     const ftmc::campaign::CellCounts& counts,
                     const Fig3Expectation& expected, Verdict& verdict) {
  std::ostringstream where;
  where << "cell " << cell.index << " (" << ftmc::campaign::to_string(cell.scheduler)
        << ", f=" << cell.failure_prob << ", U=" << cell.utilization << ")";
  if (!expected.without.contains(counts.accept_without)) {
    std::ostringstream msg;
    msg << where.str() << ": accept_without " << counts.accept_without
        << ", Eq. (2) + EDF bound give [" << expected.without.lo << ", "
        << expected.without.hi << "]";
    verdict.flag(msg.str());
  }
  if (expected.with_checked && !expected.with.contains(counts.accept_with)) {
    std::ostringstream msg;
    msg << where.str() << ": accept_with " << counts.accept_with
        << ", Eq. (7) + Eq. (11) give [" << expected.with.lo << ", "
        << expected.with.hi << "]";
    verdict.flag(msg.str());
  }
  if (counts.accept_with < counts.accept_without) {
    verdict.flag(where.str() + ": accept_with below accept_without");
  }
}

// ---------------------------------------------------------------------
// Demand-bound oracle
// ---------------------------------------------------------------------

namespace {

struct DemandTask {
  double period = 0;
  double deadline = 0;
  double wcet = 0;
};

struct ViewScan {
  bool holds = true;
  bool full_u = false;
  bool overload = false;
  double violation_at = 0;
  double excess = 0;
};

/// Brute force: every absolute deadline D_i + k T_i up to the horizon,
/// sorted and de-duplicated, demand summed in long double.
ViewScan scan_view(const std::vector<DemandTask>& view, double far_factor) {
  ViewScan s;
  long double u = 0;
  double d_max = 0, t_max = 0;
  bool constrained = false;
  for (const DemandTask& t : view) {
    u += static_cast<long double>(t.wcet) / t.period;
    d_max = std::max(d_max, t.deadline);
    t_max = std::max(t_max, t.period);
    constrained = constrained || t.deadline < t.period;
  }
  if (u > 1 + kTie) {
    s.holds = false;
    s.overload = true;
    return s;
  }
  s.full_u = near(u, 1);
  if (!constrained) return s;  // D >= T: U <= 1 suffices
  long double horizon = d_max;
  if (s.full_u) {
    horizon = far_factor * std::max(d_max, 1000.0 * t_max);
  } else {
    long double num = 0;
    for (const DemandTask& t : view) {
      num += (static_cast<long double>(t.wcet) / t.period) *
             std::max(0.0, t.period - t.deadline);
    }
    horizon = std::max<long double>(horizon, num / (1 - u));
  }
  std::vector<double> points;
  for (const DemandTask& t : view) {
    for (long double k = 0;; k += 1) {
      const long double p = t.deadline + k * t.period;
      if (p > horizon) break;
      points.push_back(static_cast<double>(p));
    }
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  for (const double t : points) {
    long double demand = 0;
    for (const DemandTask& task : view) {
      if (t < task.deadline) continue;
      demand += (std::floor((static_cast<long double>(t) - task.deadline) /
                            task.period) +
                 1) *
                task.wcet;
    }
    if (demand > t * (1 + 1e-12L) + 1e-9L) {
      s.holds = false;
      s.violation_at = t;
      s.excess = static_cast<double>(demand - t);
      return s;
    }
  }
  return s;
}

}  // namespace

ClaimCheck verify_mc_dbf_claim(const ftmc::mcs::McTaskSet& ts,
                               const std::vector<double>& vd,
                               double full_u_horizon_factor) {
  ClaimCheck c;
  if (vd.size() != ts.size()) {
    c.status = ClaimStatus::kMalformed;
    c.detail = "virtual deadline count differs from task count";
    return c;
  }
  // Virtual deadlines equal to the true ones claim that plain EDF on the
  // own-level budgets suffices, with no mode switch to rely on.
  bool own_level = true;
  for (std::size_t i = 0; i < ts.size(); ++i) own_level = own_level && vd[i] == ts[i].deadline;
  if (own_level) {
    std::vector<DemandTask> view;
    for (const ftmc::mcs::McTask& t : ts.tasks()) {
      view.push_back({t.period, t.deadline, t.wcet(t.crit)});
    }
    const ViewScan s = scan_view(view, full_u_horizon_factor);
    c.at_full_utilization = s.full_u;
    if (s.overload) {
      c.status = ClaimStatus::kMalformed;
      c.detail = "own-level view has U > 1";
    } else if (!s.holds) {
      c.status = ClaimStatus::kContradicted;
      c.violation_at = s.violation_at;
      c.excess = s.excess;
      std::ostringstream msg;
      msg << "own-level demand exceeds supply by " << s.excess << " ms at t = "
          << s.violation_at << " ms";
      c.detail = msg.str();
    } else if (s.full_u) {
      c.status = ClaimStatus::kUnrefuted;
    }
    return c;
  }
  std::vector<DemandTask> lo_view, hi_view;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const ftmc::mcs::McTask& t = ts[i];
    const bool hi = t.crit == CritLevel::HI;
    if (vd[i] > t.deadline || (!hi && vd[i] != t.deadline) ||
        (hi && !(t.deadline - vd[i] > 0.0))) {
      c.status = ClaimStatus::kMalformed;
      std::ostringstream msg;
      msg << "task " << i << ": virtual deadline " << vd[i]
          << " outside the admissible range (D = " << t.deadline << ")";
      c.detail = msg.str();
      return c;
    }
    if (t.wcet_lo > 0.0) lo_view.push_back({t.period, vd[i], t.wcet_lo});
    if (hi) hi_view.push_back({t.period, t.deadline - vd[i], t.wcet_hi});
  }
  const char* names[] = {"LO-mode", "HI-mode"};
  const std::vector<DemandTask>* views[] = {&lo_view, &hi_view};
  for (int v = 0; v < 2; ++v) {
    const ViewScan s = scan_view(*views[v], full_u_horizon_factor);
    c.at_full_utilization = c.at_full_utilization || s.full_u;
    if (s.overload) {
      c.status = ClaimStatus::kMalformed;
      c.detail = std::string(names[v]) + " view has U > 1";
      return c;
    }
    if (!s.holds) {
      c.status = ClaimStatus::kContradicted;
      c.violation_at = s.violation_at;
      c.excess = s.excess;
      std::ostringstream msg;
      msg << names[v] << " demand exceeds supply by " << s.excess
          << " ms at t = " << s.violation_at << " ms"
          << (s.full_u ? " (view at U = 1)" : "");
      c.detail = msg.str();
      return c;
    }
    if (s.full_u) c.status = ClaimStatus::kUnrefuted;
  }
  return c;
}

ftmc::mcs::McTaskSet scaled(const ftmc::mcs::McTaskSet& ts, double s) {
  ftmc::mcs::McTaskSet out;
  for (ftmc::mcs::McTask t : ts.tasks()) {
    t.wcet_lo *= s;
    t.wcet_hi *= s;
    out.add(std::move(t));
  }
  return out;
}

void check_headroom(const ftmc::mcs::McTaskSet& base, double factor,
                    double ceiling, double tolerance, const std::string& label,
                    Verdict& verdict) {
  if (factor <= 0.0) return;
  if (!ftmc::mcs::analyze_mc_dbf(scaled(base, factor)).schedulable) {
    verdict.flag(label + ": WCET scaling " + std::to_string(factor) +
                 " reported as headroom is rejected by MC-DBF");
  }
  if (factor < ceiling &&
      ftmc::mcs::analyze_mc_dbf(scaled(base, factor + tolerance)).schedulable) {
    verdict.flag(label + ": WCET scaling " + std::to_string(factor) +
                 " plus its tolerance is still accepted");
  }
}

// ---------------------------------------------------------------------
// Simulation oracles
// ---------------------------------------------------------------------

namespace {

/// Regularized lower incomplete gamma P(a, x) (series / continued
/// fraction, as in Numerical Recipes' gammp).
double gamma_p(double a, double x) {
  if (x <= 0.0) return 0.0;
  const double log_prefix = -x + a * std::log(x) - std::lgamma(a);
  if (x < a + 1.0) {
    double ap = a, sum = 1.0 / a, del = sum;
    for (int i = 0; i < 100000; ++i) {
      ap += 1.0;
      del *= x / ap;
      sum += del;
      if (std::fabs(del) < std::fabs(sum) * 1e-16) break;
    }
    return sum * std::exp(log_prefix);
  }
  const double tiny = 1e-300;
  double b = x + 1.0 - a, c = 1.0 / tiny, d = 1.0 / b, h = d;
  for (int i = 1; i < 100000; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::fabs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < 1e-16) break;
  }
  return 1.0 - std::exp(log_prefix) * h;
}

}  // namespace

double poisson_lower_limit(std::uint64_t k, double confidence) {
  if (k == 0) return 0.0;
  // P(X >= k | lambda) = P(k, lambda) rises with lambda; the lower limit
  // is where it equals (1 - confidence) / 2.
  const double target = (1.0 - confidence) / 2.0;
  const double a = static_cast<double>(k);
  double lo = 0.0, hi = a;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (gamma_p(a, mid) < target ? lo : hi) = mid;
  }
  return lo;
}

void check_balance(const ftmc::sim::SimStats& stats, std::uint64_t in_flight,
                   const std::string& label, Verdict& verdict) {
  for (std::size_t i = 0; i < stats.per_task.size(); ++i) {
    const ftmc::sim::TaskStats& t = stats.per_task[i];
    const std::uint64_t ended = t.completed + t.job_failures + t.killed;
    const bool ok = ended <= t.released && t.released - ended <= in_flight &&
                    t.faults <= t.attempts &&
                    t.completed <= t.attempts - t.faults &&
                    t.attempts - t.faults <= t.completed + t.killed + in_flight &&
                    t.deadline_misses <= t.completed;
    if (!ok) {
      std::ostringstream msg;
      msg << label << ": task " << i << " counts do not balance (released "
          << t.released << ", completed " << t.completed << ", failed "
          << t.job_failures << ", killed " << t.killed << ", attempts "
          << t.attempts << ", faults " << t.faults << ", misses "
          << t.deadline_misses << ")";
      verdict.flag(msg.str());
      return;
    }
  }
}

void check_exhaust(const ftmc::sim::SimStats& stats, const std::string& label,
                   Verdict& verdict) {
  std::uint64_t misses = 0, failures = 0;
  for (const ftmc::sim::TaskStats& t : stats.per_task) {
    misses += t.deadline_misses;
    failures += t.job_failures;
  }
  if (misses != 0 || failures != 0) {
    std::ostringstream msg;
    msg << label << ": FT-S admitted the set, but the exhaust-budget "
        << "adversary produced " << misses << " deadline miss(es) and "
        << failures << " job failure(s)";
    verdict.flag(msg.str());
  }
}

void check_pfh(std::uint64_t failures, double hours, double bound,
               double confidence, const std::string& label, Verdict& verdict) {
  const double lower = poisson_lower_limit(failures, confidence) / hours;
  if (lower > bound * (1.0 + 1e-12)) {
    std::ostringstream msg;
    msg << label << ": " << failures << " failure(s) in " << hours
        << " h put the " << confidence * 100.0
        << "% Poisson lower limit at " << lower
        << "/h, above the analytical PFH bound " << bound;
    verdict.flag(msg.str());
  }
}

bool same_stats(const ftmc::sim::SimStats& a, const ftmc::sim::SimStats& b) {
  if (a.per_task.size() != b.per_task.size() ||
      a.preemptions != b.preemptions || a.mode_switches != b.mode_switches ||
      a.mode_resets != b.mode_resets ||
      a.first_mode_switch != b.first_mode_switch ||
      a.busy_time != b.busy_time || a.horizon != b.horizon) {
    return false;
  }
  for (std::size_t i = 0; i < a.per_task.size(); ++i) {
    const ftmc::sim::TaskStats& x = a.per_task[i];
    const ftmc::sim::TaskStats& y = b.per_task[i];
    if (x.released != y.released || x.completed != y.completed ||
        x.attempts != y.attempts || x.faults != y.faults ||
        x.job_failures != y.job_failures || x.killed != y.killed ||
        x.deadline_misses != y.deadline_misses ||
        x.max_response != y.max_response ||
        x.total_response != y.total_response) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------
// Serving oracles
// ---------------------------------------------------------------------

std::string json_token(const std::string& json, const std::string& key,
                       std::size_t from) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle, from);
  if (at == std::string::npos) return {};
  std::size_t i = at + needle.size();
  if (i < json.size() && json[i] == '"') {
    std::size_t j = i + 1;
    while (j < json.size() && json[j] != '"') j += json[j] == '\\' ? 2 : 1;
    return json.substr(i, j + 1 - i);
  }
  std::size_t j = i;
  while (j < json.size() && json[j] != ',' && json[j] != '}' && json[j] != ']') {
    ++j;
  }
  return json.substr(i, j - i);
}

void check_ok(const std::string& item, const std::string& label,
              Verdict& verdict) {
  if (json_token(item, "ok") != "true") {
    verdict.flag(label + ": result slot is not ok: " + item.substr(0, 160));
  }
}

void check_fts_answer(const std::string& item, const FtsFacts& facts,
                      const std::string& label, Verdict& verdict) {
  const std::pair<const char*, std::string> expected[] = {
      {"success", facts.success ? "true" : "false"},
      {"n_hi", std::to_string(facts.n_hi)},
      {"n_lo", std::to_string(facts.n_lo)},
      {"n_adapt", std::to_string(facts.n_adapt)},
  };
  for (const auto& [key, value] : expected) {
    const std::string got = json_token(item, key);
    if (got != value) {
      verdict.flag(label + ": fts answer states " + key + " = " + got +
                   ", core::ft_schedule gives " + value);
      return;
    }
  }
}

void check_admit_answer(const std::string& item,
                        const std::vector<bool>& admitted,
                        const std::string& label, Verdict& verdict) {
  const bool all = std::all_of(admitted.begin(), admitted.end(),
                               [](bool b) { return b; });
  if (json_token(item, "admitted") != (all ? "true" : "false")) {
    verdict.flag(label + ": overall admission verdict differs from rt::Core");
    return;
  }
  const std::size_t tasks = item.find("\"tasks\":[");
  const std::size_t end = item.find("\"blackbox\":", tasks);
  if (tasks == std::string::npos || end == std::string::npos) {
    verdict.flag(label + ": admit answer lacks its task list");
    return;
  }
  std::size_t pos = tasks;
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    pos = item.find("\"admitted\":", pos);
    if (pos == std::string::npos || pos > end) {
      verdict.flag(label + ": admit answer lists fewer tasks than the set");
      return;
    }
    const std::string got = json_token(item, "admitted", pos);
    if (got != (admitted[i] ? "true" : "false")) {
      verdict.flag(label + ": task " + std::to_string(i) +
                   " admission differs from rt::Core::add_task");
      return;
    }
    pos += 11;
  }
  if (item.find("\"admitted\":", pos) < end) {
    verdict.flag(label + ": admit answer lists more tasks than the set");
  }
}

void check_hit(const std::string& hit, const std::string& cold,
               const std::string& label, Verdict& verdict) {
  if (hit != cold) {
    verdict.flag(label + ": cache hit differs from the cold answer");
  }
}

}  // namespace perfbench::oracle
