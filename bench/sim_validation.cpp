/// Extension experiment: validates the analytical bounds against the
/// discrete-event simulator. Faults are inflated (f = 1e-2) so that the
/// rare events become observable in minutes of simulated time; the
/// empirical probability-of-failure-per-hour must stay below each
/// analytical bound (they are upper bounds; the gap quantifies pessimism).
#include <climits>
#include <cmath>
#include <iostream>

#include "ftmc/common/cli.hpp"
#include "ftmc/core/analysis.hpp"
#include "ftmc/core/conversion.hpp"
#include "ftmc/io/table.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/obs/bench_report.hpp"
#include "ftmc/prob/poisson.hpp"
#include "ftmc/sim/engine.hpp"
#include "ftmc/sim/monte_carlo.hpp"

int main(int argc, char** argv) {
  using namespace ftmc;
  int missions = 400;
  bool progress = false;
  const cli::Command flags{
      .program = "sim_validation",
      .flags = {cli::integer("", missions, 1, INT_MAX,
                             "Monte-Carlo missions (default 400)")
                    .overridden_by("FTMC_BENCH_MISSIONS"),
                cli::toggle("--progress", progress,
                            "live progress meter on stderr")}};
  if (const auto code = cli::parse(flags, argc, argv)) return *code;
  obs::BenchReport report("sim_validation", argc, argv);
  const double f = 1e-2;
  const auto task = [f](const char* name, Millis period, Millis wcet,
                        Dal dal) {
    return core::FtTask{name, period, period, wcet, dal, f};
  };
  core::FtTaskSet ts({task("hi1", 100, 4, Dal::B),
                      task("hi2", 60, 2, Dal::B),
                      task("lo1", 80, 6, Dal::C),
                      task("lo2", 120, 8, Dal::C)},
                     {Dal::B, Dal::C});
  const int n_hi = 2, n_lo = 2;
  const auto n = core::uniform_profile(ts, n_hi, n_lo);
  const double hours = 20.0;

  std::cout << "=== Simulator validation — empirical PFH vs bounds ===\n";
  std::cout << "f = " << f << ", n_HI = n_LO = 2, " << hours
            << " simulated hours, EDF, worst-case execution times\n\n";

  sim::SimConfig cfg;
  cfg.policy = sim::PolicyKind::kEdf;
  cfg.adaptation = mcs::AdaptationKind::kNone;
  cfg.horizon = static_cast<sim::Tick>(hours * sim::kTicksPerHour);
  cfg.seed = 424242;
  sim::Simulator simulator(sim::build_sim_tasks(ts, n_hi, n_lo, n_hi, 1.0),
                           cfg);
  const sim::SimStats stats = simulator.run();

  io::Table table({"level", "analytical bound (Eq. 2)", "empirical PFH",
                   "95% Poisson CI", "consistent"});
  for (const CritLevel level : {CritLevel::HI, CritLevel::LO}) {
    const double bound = core::pfh_plain(ts, n, level);
    const std::uint64_t k = simulator.failure_count(stats, level);
    const double emp = simulator.empirical_pfh(stats, level);
    // The observed failure count is Poisson; the bound is refuted only if
    // it lies below the exact (Garwood) 95% interval on the rate. The
    // normal approximation used here previously collapses to a +-0 band
    // at k = 0, which certified the bound vacuously.
    const prob::PoissonInterval ci = prob::poisson_interval(k, 0.95);
    const bool consistent = bound >= ci.lower / hours;
    table.add_row({std::string(to_string(level)), io::Table::sci(bound, 3),
                   io::Table::sci(emp, 3),
                   "[" + io::Table::sci(ci.lower / hours, 2) + ", " +
                       io::Table::sci(ci.upper / hours, 2) + "]",
                   consistent ? "yes" : "REFUTED"});
  }
  std::cout << table << "\n";

  // Mode-switch probability vs 1 - R(N', t): a Monte-Carlo campaign over
  // short missions with a Wilson 95% interval.
  const Millis mission_ms = 1'000.0;  // one second: 1 - R ~ 0.23
  const auto n_adapt = core::uniform_profile(ts, 1, 0);
  sim::SimConfig mc_cfg;
  mc_cfg.policy = sim::PolicyKind::kEdfVd;
  mc_cfg.adaptation = mcs::AdaptationKind::kKilling;
  sim::MonteCarloOptions mc_opt;
  mc_opt.missions = missions;
  mc_opt.mission_length = sim::millis_to_ticks(mission_ms);
  mc_opt.seed = 777;
  if (progress) mc_opt.progress = obs::stderr_progress("missions");
  const sim::MonteCarloResult mc = sim::monte_carlo_campaign(
      sim::build_sim_tasks(ts, n_hi, n_lo, 1, 1.0), mc_cfg, mc_opt);
  const double bound_trigger =
      core::survival_no_trigger(ts, n_adapt, mission_ms)
          .complement()
          .linear();
  std::cout << "kill-trigger probability over a " << mission_ms / 1000.0
            << " s mission (n'_HI = 1): bound 1 - R = "
            << io::Table::num(bound_trigger, 4) << ", observed "
            << io::Table::num(mc.trigger.rate(), 4) << " (95% Wilson ["
            << io::Table::num(mc.trigger.wilson_lower(), 4) << ", "
            << io::Table::num(mc.trigger.wilson_upper(), 4) << "], "
            << mc.trigger.successes << "/" << mc.trigger.trials
            << " missions)\n";
  std::cout << "Lemma 3.2 holds iff the interval sits at or below the "
               "bound; the gap measures the bound's pessimism.\n\n";

  std::cout << "per-task simulator statistics:\n";
  io::Table per_task({"task", "released", "completed", "attempts", "faults",
                      "job failures", "misses"});
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const auto& t = stats.per_task[i];
    per_task.add_row({ts[i].name, std::to_string(t.released),
                      std::to_string(t.completed),
                      std::to_string(t.attempts), std::to_string(t.faults),
                      std::to_string(t.job_failures),
                      std::to_string(t.deadline_misses)});
  }
  std::cout << per_task;
  report.set_items(static_cast<double>(mc_opt.missions), "missions");
  report.note_number("simulated_hours", hours + mc.simulated_hours);
  return 0;
}
