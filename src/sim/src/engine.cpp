#include "ftmc/sim/engine.hpp"

#include <utility>

#include "ftmc/common/contracts.hpp"
#include "ftmc/obs/registry.hpp"

namespace ftmc::sim {

namespace {

/// The loop inputs of a simulator run. The simulator opts into job-pool
/// growth: an overloaded scenario may queue an unbounded ready backlog,
/// and a simulator prefers completing the run over enforcing the embedded
/// no-alloc contract.
rt::RunConfig run_config(const SimConfig& config) {
  rt::RunConfig run;
  run.core.policy = config.policy;
  run.core.adaptation = config.adaptation;
  run.core.degradation_factor = config.degradation_factor;
  run.core.mode_reset_on_idle = config.mode_reset_on_idle;
  run.core.max_jobs = 64;
  run.core.allow_job_growth = true;
  run.core.black_box_capacity = config.black_box_capacity;
  run.horizon = config.horizon;
  run.seed = config.seed;
  run.faults = config.fault_adversary;
  run.exec_model = config.exec_model;
  run.exec_min_fraction = config.exec_min_fraction;
  run.random_phasing = config.random_phasing;
  run.sporadic_arrivals = config.sporadic_arrivals;
  run.jitter_fraction = config.jitter_fraction;
  return run;
}

/// Adds one run's totals to the sim.* counters of the global registry
/// (see engine.hpp); one branch while it is disabled.
void publish_totals(const SimStats& stats) {
  obs::Registry& registry = obs::Registry::global();
  if (!registry.is_enabled()) return;
  rt::TaskCounters sum;
  for (const rt::TaskCounters& t : stats.per_task) {
    sum.released += t.released;
    sum.completed += t.completed;
    sum.faults += t.faults;
    sum.job_failures += t.job_failures;
    sum.deadline_misses += t.deadline_misses;
    sum.killed += t.killed;
  }
  const std::pair<const char*, std::uint64_t> totals[] = {
      {"sim.releases", sum.released},
      {"sim.completions", sum.completed},
      {"sim.reexecutions", sum.faults},
      {"sim.job_failures", sum.job_failures},
      {"sim.deadline_misses", sum.deadline_misses},
      {"sim.kills", sum.killed},
      {"sim.preemptions", stats.preemptions},
      {"sim.mode_switches", stats.mode_switches},
      {"sim.mode_resets", stats.mode_resets}};
  for (const auto& [name, total] : totals) registry.counter(name).inc(total);
}

}  // namespace

Simulator::Simulator(std::vector<SimTask> tasks, const SimConfig& config)
    : Simulator(std::move(tasks), run_config(config), config.trace_capacity) {}

Simulator::Simulator(std::vector<SimTask> tasks, const rt::RunConfig& run,
                     std::size_t trace_capacity)
    : Driver(std::move(tasks), run),
      tracing_(trace_capacity > 0),
      trace_capacity_(trace_capacity) {}

// Out of line and cold: emit() itself is a single byte test (see
// engine.hpp), so an untraced run pays nothing measurable per event.
__attribute__((noinline, cold)) void Simulator::record(
    const rt::Event& event) {
  if (trace_.size() < trace_capacity_) trace_.push_back(event);
}

SimStats Simulator::run() {
  rt::VirtualClock clock;
  SimStats stats = Driver::run(clock);
  publish_totals(stats);
  return stats;
}

std::uint64_t Simulator::failure_count(const SimStats& stats,
                                       CritLevel level) const {
  std::uint64_t failures = 0;
  for (std::size_t i = 0; i < tasks().size(); ++i) {
    if (tasks()[i].crit == level) {
      failures += stats.per_task[i].temporal_failures();
    }
  }
  return failures;
}

double Simulator::empirical_pfh(const SimStats& stats,
                                CritLevel level) const {
  const double hours = stats.simulated_hours();
  FTMC_EXPECTS(hours > 0.0, "empirical PFH needs a positive horizon");
  return static_cast<double>(failure_count(stats, level)) / hours;
}

SimStats simulate(const core::FtTaskSet& ts, int n_hi, int n_lo,
                  int n_adapt_hi, double virtual_deadline_factor,
                  const SimConfig& config) {
  Simulator sim(build_sim_tasks(ts, n_hi, n_lo, n_adapt_hi,
                                virtual_deadline_factor),
                config);
  return sim.run();
}

}  // namespace ftmc::sim
