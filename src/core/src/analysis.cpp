#include "ftmc/core/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ftmc/prob/batch.hpp"
#include "ftmc/prob/safe_math.hpp"

namespace ftmc::core {
namespace {

/// Eq. (1) with the round budget as the busy term: the shortest window
/// accommodating k rounds is (k-1)*period + busy (Lemma 3.1 proof), so
/// r = max(floor((t - busy)/period) + 1, 0).
double round_count(Millis period, Millis busy, Millis t) {
  return std::max(std::floor((t - busy) / period) + 1.0, 0.0);
}

}  // namespace

double rounds(const FtTask& task, int n, Millis t, ExecAssumption exec) {
  task.validate();
  return round_count(task.period, attempts_busy(n, task.wcet, exec), t);
}

double pfh_plain(const RoundModel& model, CritLevel level) {
  const FtTaskSet& ts = model.tasks();
  ts.validate();
  const Millis t = kMillisPerHour;  // PFH is time-invariant (Lemma 3.1)
  double pfh = 0.0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts.crit_of(i) != level) continue;
    const Round round = model.round(i);
    pfh += round_count(ts[i].period, round.busy, t) * round.prob;
  }
  return pfh;
}

double pfh_plain(const FtTaskSet& ts, const PerTaskProfile& n,
                 CritLevel level, ExecAssumption exec) {
  // Eq. (2) reads no trigger, so n stands in for the adaptation profile.
  return pfh_plain(RoundModel::reexecution(ts, n, n, exec), level);
}

prob::LogProb survival_no_trigger(const RoundModel& model, Millis t) {
  const FtTaskSet& ts = model.tasks();
  double log_r = 0.0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts.crit_of(i) != CritLevel::HI) continue;
    const Round trigger = model.trigger(i);
    const double r = round_count(ts[i].period, trigger.busy, t);
    if (r <= 0.0) continue;  // no round fits: this task cannot trigger
    if (trigger.prob >= 1.0) return prob::LogProb::zero();  // certain
    log_r += prob::log_survival(trigger.prob, r);
  }
  return prob::LogProb::from_log(log_r);
}

prob::LogProb survival_no_trigger(const FtTaskSet& ts,
                                  const PerTaskProfile& n_adapt, Millis t,
                                  ExecAssumption exec) {
  // Eq. (3) reads no round, so n_adapt stands in for the attempt profile.
  return survival_no_trigger(
      RoundModel::reexecution(ts, n_adapt, n_adapt, exec), t);
}

std::vector<Millis> pi_points(const FtTask& task, int n, Millis t,
                              ExecAssumption exec) {
  task.validate();
  FTMC_EXPECTS(n >= 1, "re-execution profile must be at least 1");
  const Millis busy = attempts_busy(n, task.wcet, exec);
  const double r = round_count(task.period, busy, t);
  std::vector<Millis> points;
  points.reserve(static_cast<std::size_t>(std::max(r, 1.0)));
  for (double m = 1.0; m < r; m += 1.0) {
    points.push_back(t - busy - m * task.period + task.deadline);
  }
  std::reverse(points.begin(), points.end());  // ascending in alpha
  points.push_back(t);
  return points;
}

namespace {

/// Reused buffers of pfh_lo_killing: the bound is evaluated millions of
/// times per campaign (once per candidate profile per task set), and the
/// per-call vectors were the dominant allocation source of the analysis
/// layer. Capacities survive across calls; contents never do.
struct KillingWorkspace {
  // SoA layout of the HI-task terms of log R(alpha) — one contiguous
  // stream per field so survival_accumulate_batch sweeps them cache-line
  // by cache-line.
  std::vector<double> hi_period;
  std::vector<double> hi_busy;
  std::vector<double> hi_log_per_round;
  std::vector<double> alpha;  ///< one chunk of pi points, ascending
  std::vector<double> log_r;  ///< per-point log R accumulators
};

KillingWorkspace& killing_workspace() {
  thread_local KillingWorkspace ws;
  return ws;
}

/// Points per batch: bounds workspace memory and the wasted tail work
/// when early_exit_above triggers mid-chunk. Each LO task's sum starts
/// with kKillingFirstChunk points and doubles its chunk up to
/// kKillingChunk, so a sum that exits after a few points (the line-4
/// search's usual case) builds a few dozen, while a full sum runs almost
/// all its points in full-size batches.
constexpr std::size_t kKillingChunk = 4096;
constexpr std::size_t kKillingFirstChunk = 32;

}  // namespace

double pfh_lo_killing(const RoundModel& model, double os_hours,
                      double early_exit_above) {
  const FtTaskSet& ts = model.tasks();
  ts.validate();
  FTMC_EXPECTS(os_hours > 0.0, "operation duration must be positive");
  const Millis t = hours_to_millis(os_hours);

  // Pre-extract the HI-task quantities needed to evaluate log R(alpha):
  // log R(alpha) = sum_j r_j(alpha) * log(1 - p_j), with r_j counted at
  // the trigger budget and p_j the per-round trigger probability.
  KillingWorkspace& ws = killing_workspace();
  ws.hi_period.clear();
  ws.hi_busy.clear();
  ws.hi_log_per_round.clear();
  for (std::size_t j = 0; j < ts.size(); ++j) {
    if (ts.crit_of(j) != CritLevel::HI) continue;
    const Round trigger = model.trigger(j);
    ws.hi_period.push_back(ts[j].period);
    ws.hi_busy.push_back(trigger.busy);
    ws.hi_log_per_round.push_back(
        (trigger.prob >= 1.0) ? -std::numeric_limits<double>::infinity()
                              : std::log1p(-trigger.prob));
  }
  const std::size_t n_hi_terms = ws.hi_period.size();
  ws.alpha.resize(kKillingChunk);
  ws.log_r.resize(kKillingChunk);

  double failures = 0.0;  // expected failure count over [0, t]
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts.crit_of(i) != CritLevel::LO) continue;
    const Round round = model.round(i);
    const double log_ok = std::log1p(-round.prob);  // log(1 - p)

    // The pi_i(t) points of Eq. (4), generated ascending straight into the
    // chunk buffer (m descending yields exactly pi_points' reversed order,
    // with bit-identical values since every factor is the same expression).
    const double r_i = round_count(ts[i].period, round.busy, t);
    double m = r_i - 1.0;  // first ascending point; the final point is t
    bool tail_emitted = false;
    for (std::size_t chunk = kKillingFirstChunk; !tail_emitted;
         chunk = std::min(2 * chunk, kKillingChunk)) {
      std::size_t count = 0;
      for (; count < chunk && m >= 1.0; ++count, m -= 1.0) {
        ws.alpha[count] =
            t - round.busy - m * ts[i].period + ts[i].deadline;
      }
      if (count < chunk) {
        ws.alpha[count++] = t;
        tail_emitted = true;
      }

      // log R(alpha) over the whole chunk: HI terms in task order, so each
      // point's accumulation is the same addition sequence as the scalar
      // loop's.
      std::fill_n(ws.log_r.begin(), count, 0.0);
      for (std::size_t j = 0; j < n_hi_terms; ++j) {
        prob::survival_accumulate_batch(ws.log_r.data(), ws.alpha.data(),
                                        count, ws.hi_busy[j],
                                        ws.hi_period[j],
                                        ws.hi_log_per_round[j]);
      }

      for (std::size_t k = 0; k < count; ++k) {
        // 1 - R(alpha)*(1 - p), fully in the log domain: for alpha <= 0
        // the round completed before any possible kill, leaving just p.
        const double log_r = (ws.alpha[k] <= 0.0) ? 0.0 : ws.log_r[k];
        const double term = -std::expm1(log_r + log_ok);
        failures += std::clamp(term, 0.0, 1.0);
        if (early_exit_above > 0.0 &&
            failures / os_hours > early_exit_above) {
          return failures / os_hours;
        }
      }
    }
  }
  return failures / os_hours;
}

double pfh_lo_killing(const FtTaskSet& ts, const PerTaskProfile& n,
                      const PerTaskProfile& n_adapt,
                      const KillingBoundOptions& opt) {
  return pfh_lo_killing(RoundModel::reexecution(ts, n, n_adapt, opt.exec),
                        opt.os_hours, opt.early_exit_above);
}

double omega(const RoundModel& model, double df, Millis t) {
  const FtTaskSet& ts = model.tasks();
  ts.validate();
  FTMC_EXPECTS(df >= 1.0, "omega requires d_f >= 1");
  if (t <= 0.0) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts.crit_of(i) != CritLevel::LO) continue;
    const Round round = model.round(i);
    total += round_count(df * ts[i].period, round.busy, t) * round.prob;
  }
  return total;
}

double omega(const FtTaskSet& ts, const PerTaskProfile& n, double df,
             Millis t, ExecAssumption exec) {
  // Eq. (6) reads no trigger, so n stands in for the adaptation profile.
  return omega(RoundModel::reexecution(ts, n, n, exec), df, t);
}

double pfh_lo_degradation(const RoundModel& model, double os_hours) {
  model.tasks().validate();
  FTMC_EXPECTS(os_hours > 0.0, "operation duration must be positive");
  const Millis t = hours_to_millis(os_hours);
  const double trigger_prob =
      survival_no_trigger(model, t).complement().linear();
  return trigger_prob * omega(model, 1.0, t) / os_hours;
}

double pfh_lo_degradation(const FtTaskSet& ts, const PerTaskProfile& n,
                          const PerTaskProfile& n_adapt, double os_hours,
                          ExecAssumption exec) {
  return pfh_lo_degradation(RoundModel::reexecution(ts, n, n_adapt, exec),
                            os_hours);
}

double pfh_lo_degradation_at(const FtTaskSet& ts, const PerTaskProfile& n,
                             const PerTaskProfile& n_adapt, double df,
                             double os_hours, Millis t0,
                             ExecAssumption exec) {
  ts.validate();
  FTMC_EXPECTS(df > 1.0, "degradation factor must exceed 1");
  FTMC_EXPECTS(os_hours > 0.0, "operation duration must be positive");
  const Millis t = hours_to_millis(os_hours);
  FTMC_EXPECTS(t0 >= 0.0 && t0 <= t, "trigger time must lie within [0, t]");
  const RoundModel model = RoundModel::reexecution(ts, n, n_adapt, exec);
  const double trigger_prob =
      survival_no_trigger(model, t0).complement().linear();
  const double rate = omega(model, 1.0, t0) + omega(model, df, t - t0);
  return trigger_prob * rate / os_hours;
}

}  // namespace ftmc::core
