/// Task-set inspector: one-stop CLI over the library for a task set in
/// the plain-text format.
///
///   taskset_inspector [file.txt] [--json] [--simulate <minutes>]
///
/// Without flags: prints utilization structure, WCET sensitivity, the
/// certification report for killing and degradation, and the adaptation
/// sweep. With --json: emits the FT-S results as JSON (for plotting or CI
/// pipelines). With --simulate: additionally runs the accepted
/// configuration in the discrete-event simulator and reports runtime
/// statistics.
#include <algorithm>
#include <climits>
#include <fstream>
#include <iostream>
#include <string>

#include "ftmc/common/cli.hpp"
#include "ftmc/core/report.hpp"
#include "ftmc/io/json.hpp"
#include "ftmc/io/table.hpp"
#include "ftmc/io/taskset_io.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/mcs/sensitivity.hpp"
#include "ftmc/sim/engine.hpp"

namespace {

using namespace ftmc;

const char* kBuiltin = R"(
# Example 3.1 of the paper (LO tasks at level D)
mapping HI=B LO=D
task tau1 T=60 C=5 dal=B f=1e-5
task tau2 T=25 C=4 dal=B f=1e-5
task tau3 T=40 C=7 dal=D f=1e-5
task tau4 T=90 C=6 dal=D f=1e-5
task tau5 T=70 C=8 dal=D f=1e-5
)";

void simulate_plan(const core::FtTaskSet& ts, const core::FtsResult& plan,
                   mcs::AdaptationKind kind, int minutes) {
  double x = 1.0;
  if (plan.n_adapt < plan.n_hi) {
    const auto vd = mcs::analyze_edf_vd(plan.converted);
    x = std::clamp(vd.x, 0.001, 1.0);
  }
  sim::SimConfig cfg;
  cfg.policy = sim::PolicyKind::kEdfVd;
  cfg.adaptation = kind;
  cfg.degradation_factor = 6.0;
  cfg.horizon = static_cast<sim::Tick>(minutes) * 60 *
                sim::kTicksPerSecond;
  sim::Simulator simulator(
      sim::build_sim_tasks(ts, plan.n_hi, plan.n_lo, plan.n_adapt, x), cfg);
  const sim::SimStats stats = simulator.run();

  io::Table table({"task", "released", "completed", "faults", "killed",
                   "misses", "max response [ms]"});
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const auto& t = stats.per_task[i];
    table.add_row(
        {ts[i].name, std::to_string(t.released),
         std::to_string(t.completed), std::to_string(t.faults),
         std::to_string(t.killed), std::to_string(t.deadline_misses),
         io::Table::num(sim::ticks_to_millis(t.max_response), 4)});
  }
  std::cout << "\nsimulated " << minutes << " min (EDF-VD runtime):\n"
            << table;
  std::cout << "mode switches: " << stats.mode_switches
            << ", utilization observed: "
            << io::Table::num(stats.utilization_observed(), 3) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool json_output = false;
  int simulate_minutes = 0;
  std::string path;
  const cli::Command flags{
      .program = "taskset_inspector",
      .flags = {
          cli::text("FILE", path, "FILE",
                    "task set file (default: built-in Example 3.1)"),
          cli::toggle("--json", json_output, "emit the FT-S results as JSON"),
          cli::integer("--simulate", simulate_minutes, 0, INT_MAX,
                       "also simulate the accepted plan for N minutes"),
      }};
  if (const auto code = cli::parse(flags, argc, argv)) return *code;

  core::FtTaskSet ts;
  if (!path.empty()) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cannot open " << path << "\n";
      return 1;
    }
    ts = io::parse_task_set(in);
  } else {
    ts = io::parse_task_set_string(kBuiltin);
    if (!json_output) {
      std::cout << "(no file given — inspecting the built-in Example 3.1 "
                   "set)\n\n";
    }
  }

  core::FtsConfig kill;
  kill.adaptation.kind = mcs::AdaptationKind::kKilling;
  kill.adaptation.os_hours = 1.0;
  core::FtsConfig degrade;
  degrade.adaptation.kind = mcs::AdaptationKind::kDegradation;
  degrade.adaptation.degradation_factor = 6.0;
  degrade.adaptation.os_hours = 1.0;

  const core::FtsResult r_kill = core::ft_schedule(ts, kill);
  const core::FtsResult r_deg = core::ft_schedule(ts, degrade);

  if (json_output) {
    std::cout << io::json::Object{}
                     .add_raw("task_set", io::task_set_to_json(ts))
                     .add_raw("killing", io::fts_result_to_json(r_kill))
                     .add_raw("degradation",
                              io::fts_result_to_json(r_deg))
                     .str()
              << "\n";
    return 0;
  }

  std::cout << "tasks: " << ts.size() << " (" << ts.count(CritLevel::HI)
            << " HI / " << ts.count(CritLevel::LO)
            << " LO), base utilization "
            << io::Table::num(ts.total_utilization(), 4) << "\n";

  // WCET headroom of the accepted configuration (if any).
  if (r_kill.success) {
    const auto headroom =
        mcs::max_wcet_scaling(r_kill.converted, mcs::EdfVdTest{});
    std::cout << "WCET headroom under killing: all budgets may grow by x"
              << io::Table::num(headroom.max_scaling, 4)
              << " before EDF-VD rejects\n";
  }
  std::cout << "\n";
  std::cout << core::certification_report(ts, kill) << "\n";
  std::cout << core::certification_report(ts, degrade);

  if (simulate_minutes > 0) {
    const core::FtsResult& plan = r_kill.success ? r_kill : r_deg;
    if (plan.success) {
      simulate_plan(ts, plan,
                    r_kill.success ? mcs::AdaptationKind::kKilling
                                   : mcs::AdaptationKind::kDegradation,
                    simulate_minutes);
    } else {
      std::cout << "\n(nothing to simulate: neither policy certifies)\n";
    }
  }
  return 0;
}
