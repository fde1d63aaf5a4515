#include "ftmc/check/replay.hpp"

#include <algorithm>
#include <sstream>

#include "ftmc/obs/registry.hpp"
#include "ftmc/sim/engine.hpp"

namespace ftmc::check {

std::string describe(const rt::Event& e) {
  std::ostringstream os;
  os << "t=" << e.time << " " << rt::to_string(e.kind) << " task=" << e.task
     << " job=" << e.job << " detail=" << e.detail;
  return os.str();
}

std::vector<rt::Event> replay_sim_trace(const std::vector<rt::Task>& tasks,
                                        const rt::PosixHostConfig& config) {
  sim::Simulator simulator(tasks, rt::run_config(config),
                           config.trace_capacity);
  (void)simulator.run();
  return simulator.trace();
}

ReplayDiff replay_through_sim(const std::vector<rt::Task>& tasks,
                              const rt::PosixHostConfig& config,
                              const std::vector<rt::Event>& posix_trace,
                              bool stopped) {
  const std::vector<rt::Event> sim_trace = replay_sim_trace(tasks, config);

  ReplayDiff diff;
  diff.posix_events = posix_trace.size();
  diff.sim_events = sim_trace.size();
  const std::size_t n = std::min(posix_trace.size(), sim_trace.size());
  for (std::size_t i = 0; i < n; ++i) {
    const rt::Event& a = posix_trace[i];
    const rt::Event& b = sim_trace[i];
    if (a == b) continue;
    diff.first_divergence = i;
    diff.message = "event " + std::to_string(i) + " diverges: posix {" +
                   describe(a) + "} vs sim {" + describe(b) + "}";
    return diff;
  }
  const bool is_prefix = stopped && posix_trace.size() < sim_trace.size();
  if (posix_trace.size() != sim_trace.size() && !is_prefix) {
    diff.first_divergence = n;
    diff.message = "trace lengths diverge: posix " +
                   std::to_string(posix_trace.size()) + " events vs sim " +
                   std::to_string(sim_trace.size());
    return diff;
  }
  diff.identical = true;
  diff.first_divergence = SIZE_MAX;
  return diff;
}

namespace {

/// Shared setup of the replay properties: bounded horizon, full tracing.
rt::PosixHostConfig replay_config(const Case& c, const PropertyContext& ctx,
                                  rt::Adaptation adaptation,
                                  rt::FaultModel fault_model,
                                  bool mode_reset) {
  rt::PosixHostConfig cfg;
  cfg.core.policy = rt::Policy::kEdfVd;
  cfg.core.adaptation = adaptation;
  cfg.core.degradation_factor =
      adaptation == rt::Adaptation::kDegradation ? c.degradation_factor : 1.0;
  cfg.core.mode_reset_on_idle = mode_reset;
  // Generated sets can overload arbitrarily; the host side of the replay
  // property is a test driver, not an embedded target, so let the job
  // pool grow rather than rejecting the case.
  cfg.core.allow_job_growth = true;
  // Keep each replay cheap: a 2-second window is enough to cross several
  // hyperperiods of generated sets and every mode-switch path.
  cfg.horizon = std::min<sim::Tick>(
      bounded_hyperperiod(c.ts, ctx.max_sim_horizon), 2'000'000);
  cfg.time_scale = 0.0;  // free-run
  cfg.seed = c.seed;
  cfg.fault_model = fault_model;
  cfg.trace_capacity = 200'000;
  return cfg;
}

Outcome run_replay(const Case& c, const PropertyContext& ctx,
                   rt::Adaptation adaptation, rt::FaultModel fault_model,
                   bool mode_reset, double fault_prob_override,
                   std::string_view claim) {
  if (c.ts.size() == 0) return Outcome::skip("empty set");
  // x is arbitrary for replay purposes (identity must hold for any
  // priority assignment); 0.75 exercises virtual deadlines distinct from
  // both the true deadline and the release.
  std::vector<rt::Task> tasks =
      sim::build_sim_tasks(c.ts, c.n_hi, c.n_lo, c.n_adapt, 0.75);
  if (fault_prob_override >= 0.0) {
    for (rt::Task& t : tasks) t.failure_prob = fault_prob_override;
  }
  const rt::PosixHostConfig cfg =
      replay_config(c, ctx, adaptation, fault_model, mode_reset);
  rt::PosixHost host(tasks, cfg);
  const rt::PosixResult result = host.run();
  static obs::Counter replay_runs =
      obs::Registry::global().counter("check.replay_runs");
  replay_runs.inc();
  const ReplayDiff diff = replay_through_sim(tasks, cfg, result.trace);
  if (diff.identical) return Outcome::pass();
  std::ostringstream msg;
  msg << claim << ": " << diff.message << " (seed=" << c.seed
      << ", horizon=" << cfg.horizon << ")";
  return Outcome::fail(msg.str());
}

}  // namespace

Outcome p_replay_adversary_killing(const Case& c, const PropertyContext& ctx) {
  return run_replay(c, ctx, rt::Adaptation::kKilling,
                    rt::FaultModel::kExhaustBudget,
                    /*mode_reset=*/false, /*fault_prob_override=*/-1.0,
                    "posix/sim replay (adversary, killing)");
}

Outcome p_replay_bernoulli_degradation(const Case& c,
                                       const PropertyContext& ctx) {
  // Inflated fault rate so mode switches, re-executions and degraded
  // releases actually occur inside the bounded window.
  return run_replay(c, ctx, rt::Adaptation::kDegradation,
                    rt::FaultModel::kBernoulli,
                    /*mode_reset=*/true, /*fault_prob_override=*/0.05,
                    "posix/sim replay (bernoulli, degradation)");
}

Outcome p_replay_determinism(const Case& c, const PropertyContext& ctx) {
  if (c.ts.size() == 0) return Outcome::skip("empty set");
  const std::vector<rt::Task> tasks =
      sim::build_sim_tasks(c.ts, c.n_hi, c.n_lo, c.n_adapt, 0.75);
  const rt::PosixHostConfig cfg =
      replay_config(c, ctx, rt::Adaptation::kKilling,
                    rt::FaultModel::kBernoulli, /*mode_reset=*/true);
  rt::PosixHost first(tasks, cfg);
  rt::PosixHost second(tasks, cfg);
  const rt::PosixResult a = first.run();
  const rt::PosixResult b = second.run();
  if (a.trace.size() != b.trace.size()) {
    return Outcome::fail("posix host is not deterministic: " +
                         std::to_string(a.trace.size()) + " vs " +
                         std::to_string(b.trace.size()) + " events");
  }
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    if (a.trace[i] != b.trace[i]) {
      return Outcome::fail("posix host is not deterministic: event " +
                           std::to_string(i) + " differs: {" +
                           describe(a.trace[i]) + "} vs {" +
                           describe(b.trace[i]) + "}");
    }
  }
  return Outcome::pass();
}

}  // namespace ftmc::check
