#include "ftmc/sim/engine.hpp"

#include "ftmc/common/contracts.hpp"

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

}  // namespace

Simulator::Simulator(std::vector<SimTask> tasks, const SimConfig& config)
    : Simulator(std::move(tasks), run_config(config), config.trace_capacity,
                config.registry) {}

Simulator::Simulator(std::vector<SimTask> tasks, const rt::RunConfig& run,
                     std::size_t trace_capacity, obs::Registry* registry)
    : Driver(std::move(tasks), run), trace_capacity_(trace_capacity) {
  if (registry != nullptr) {
    obs::Registry& reg = *registry;
    Metrics m;
    m.releases = reg.counter("sim.releases");
    m.dispatches = reg.counter("sim.dispatches");
    m.preemptions = reg.counter("sim.preemptions");
    m.reexecutions = reg.counter("sim.reexecutions");
    m.completions = reg.counter("sim.completions");
    m.job_failures = reg.counter("sim.job_failures");
    m.deadline_misses = reg.counter("sim.deadline_misses");
    m.mode_switches = reg.counter("sim.mode_switches");
    m.mode_resets = reg.counter("sim.mode_resets");
    m.kills = reg.counter("sim.kills");
    const std::vector<SimTask>& all = Driver::tasks();
    m.response_us.reserve(all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      const std::string& name = all[i].name;
      m.response_us.push_back(reg.histogram(
          "sim.response_us." +
          (name.empty() ? "task" + std::to_string(i) : name)));
    }
    metrics_.emplace(std::move(m));
  }
  if (trace_capacity_ > 0) record_flags_ |= kRecordTrace;
  if (metrics_) record_flags_ |= kRecordMetrics;
}

// Out of line and cold: emit() itself is a single byte test (see
// engine.hpp), so a run with neither tracing nor metrics attached pays
// nothing measurable per event.
__attribute__((noinline, cold)) void Simulator::record_slow(
    const rt::Event& event) {
  if ((record_flags_ & kRecordMetrics) != 0) {
    // Metrics piggyback on the event stream but don't need (or grow) the
    // trace buffer.
    switch (event.kind) {
      case TraceKind::kRelease: metrics_->releases.inc(); break;
      case TraceKind::kStart: metrics_->dispatches.inc(); break;
      case TraceKind::kPreempt: metrics_->preemptions.inc(); break;
      case TraceKind::kAttemptFail: metrics_->reexecutions.inc(); break;
      case TraceKind::kComplete:
        metrics_->completions.inc();
        metrics_->response_us[event.task].observe(
            static_cast<double>(event.time - event.release));
        break;
      case TraceKind::kJobFail: metrics_->job_failures.inc(); break;
      case TraceKind::kDeadlineMiss:
        metrics_->deadline_misses.inc();
        break;
      case TraceKind::kModeSwitch: metrics_->mode_switches.inc(); break;
      case TraceKind::kModeReset: metrics_->mode_resets.inc(); break;
      case TraceKind::kKill: metrics_->kills.inc(); break;
    }
  }
  if ((record_flags_ & kRecordTrace) != 0 &&
      trace_.size() < trace_capacity_) {
    trace_.push_back(event);
  }
}

SimStats Simulator::run() {
  rt::VirtualClock clock;
  return Driver::run(clock);
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
