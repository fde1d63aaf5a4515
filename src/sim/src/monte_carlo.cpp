#include "ftmc/sim/monte_carlo.hpp"

#include <cmath>

#include "ftmc/common/contracts.hpp"
#include "ftmc/exec/parallel.hpp"
#include "ftmc/exec/seed.hpp"
#include "ftmc/obs/span.hpp"

namespace ftmc::sim {
namespace {

double wilson_center(double p, double n, double z) {
  return (p + z * z / (2.0 * n)) / (1.0 + z * z / n);
}

double wilson_halfwidth(double p, double n, double z) {
  return (z / (1.0 + z * z / n)) *
         std::sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n));
}

/// Per-shard accumulator: everything one mission contributes, in a form
/// that merges by plain addition so shards combine in mission order.
struct CampaignShard {
  BinomialEstimate trigger;
  BinomialEstimate job_failure_hi;
  BinomialEstimate job_failure_lo;
  std::uint64_t failures_hi = 0;
  std::uint64_t failures_lo = 0;
  double simulated_hours = 0.0;
};

void merge(CampaignShard& into, const CampaignShard& from) {
  into.trigger.successes += from.trigger.successes;
  into.trigger.trials += from.trigger.trials;
  into.job_failure_hi.successes += from.job_failure_hi.successes;
  into.job_failure_hi.trials += from.job_failure_hi.trials;
  into.job_failure_lo.successes += from.job_failure_lo.successes;
  into.job_failure_lo.trials += from.job_failure_lo.trials;
  into.failures_hi += from.failures_hi;
  into.failures_lo += from.failures_lo;
  into.simulated_hours += from.simulated_hours;
}

CampaignShard run_mission(const std::vector<SimTask>& tasks,
                          SimConfig config, std::uint64_t base_seed,
                          std::size_t mission) {
  config.seed = exec::derive_seed(base_seed, mission);
  Simulator sim(tasks, config);
  const SimStats stats = sim.run();

  CampaignShard shard;
  ++shard.trigger.trials;
  if (stats.mode_switches > 0) ++shard.trigger.successes;

  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const TaskStats& t = stats.per_task[i];
    const bool hi = tasks[i].crit == CritLevel::HI;
    BinomialEstimate& jobs =
        hi ? shard.job_failure_hi : shard.job_failure_lo;
    jobs.trials += t.released;
    jobs.successes += t.temporal_failures();
    (hi ? shard.failures_hi : shard.failures_lo) += t.temporal_failures();
  }
  shard.simulated_hours += stats.simulated_hours();
  return shard;
}

}  // namespace

double BinomialEstimate::wilson_lower(double z) const {
  if (trials == 0) return 0.0;
  const double n = static_cast<double>(trials);
  const double p = rate();
  return std::max(0.0, wilson_center(p, n, z) - wilson_halfwidth(p, n, z));
}

double BinomialEstimate::wilson_upper(double z) const {
  if (trials == 0) return 1.0;
  const double n = static_cast<double>(trials);
  const double p = rate();
  return std::min(1.0, wilson_center(p, n, z) + wilson_halfwidth(p, n, z));
}

MonteCarloResult monte_carlo_campaign(const std::vector<SimTask>& tasks,
                                      SimConfig config,
                                      const MonteCarloOptions& options) {
  FTMC_EXPECTS(options.missions > 0, "need at least one mission");
  FTMC_EXPECTS(options.mission_length > 0,
               "mission length must be positive");

  config.horizon = options.mission_length;

  exec::ParallelOptions par;
  par.threads = options.threads;
  par.phase = "monte_carlo";
  par.progress = options.progress;
  const CampaignShard total = exec::parallel_map_reduce<CampaignShard>(
      static_cast<std::size_t>(options.missions), par,
      [&](std::size_t m) {
        obs::ScopedSpan span("mission");
        return run_mission(tasks, config, options.seed, m);
      },
      [](CampaignShard& into, CampaignShard&& from) { merge(into, from); });

  MonteCarloResult out;
  out.trigger = total.trigger;
  out.job_failure_hi = total.job_failure_hi;
  out.job_failure_lo = total.job_failure_lo;
  out.simulated_hours = total.simulated_hours;
  if (out.simulated_hours > 0.0) {
    out.pfh_hi =
        static_cast<double>(total.failures_hi) / out.simulated_hours;
    out.pfh_lo =
        static_cast<double>(total.failures_lo) / out.simulated_hours;
  }
  return out;
}

}  // namespace ftmc::sim
