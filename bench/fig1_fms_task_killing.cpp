/// Reproduces paper Fig. 1: the impacts of TASK KILLING on the flight
/// management system — U_MC (left axis, Algorithm 2 line 11) and
/// log10 pfh(LO) (right axis, Eq. (5)) as functions of the killing profile
/// n'_HI. Expected shape: U_MC rises from ~0.73 past 1 above n'_HI = 2;
/// pfh(LO) falls with n'_HI but stays far above the level C requirement
/// (1e-5) across the schedulable region — killing and safety regions are
/// disjoint.
#include <cmath>
#include <iostream>

#include "ftmc/common/cli.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/fms/fms.hpp"
#include "ftmc/io/table.hpp"
#include "ftmc/obs/bench_report.hpp"

int main(int argc, char** argv) {
  using namespace ftmc;
  const cli::Command flags{.program = "fig1_fms_task_killing"};
  if (const auto code = cli::parse(flags, argc, argv)) return *code;
  obs::BenchReport report("fig1_fms_task_killing", argc, argv);
  const core::FtTaskSet fms = fms::canonical_fms_instance();
  const auto reqs = core::SafetyRequirements::do178b();

  // Minimal re-execution profiles (Sec. 5.1: n_HI = 3, n_LO = 2).
  const int n_hi = *core::min_reexec_profile(fms, CritLevel::HI, reqs);
  const int n_lo = *core::min_reexec_profile(fms, CritLevel::LO, reqs);

  std::cout << "=== Fig. 1 — the impacts of task killing (FMS) ===\n";
  std::cout << "canonical FMS instance: U_HI = "
            << fms.utilization(CritLevel::HI)
            << ", U_LO = " << fms.utilization(CritLevel::LO)
            << ", f = " << fms::kFmsFailureProb
            << ", O_S = " << fms::kFmsOperationHours << " h\n";
  std::cout << "minimal re-execution profiles: n_HI = " << n_hi
            << ", n_LO = " << n_lo << "\n\n";

  core::AdaptationModel model;
  model.kind = mcs::AdaptationKind::kKilling;
  model.os_hours = fms::kFmsOperationHours;
  const auto points =
      core::sweep_adaptation(fms, n_hi, n_lo, model, reqs, 4);

  io::Table table({"n'_HI", "U_MC", "log10 pfh(LO)", "schedulable",
                   "safe (pfh < 1e-5)"});
  for (const auto& p : points) {
    table.add_row({std::to_string(p.n_adapt), io::Table::num(p.u_mc, 4),
                   io::Table::num(std::log10(p.pfh_lo), 3),
                   p.schedulable ? "yes" : "no", p.safe ? "yes" : "no"});
  }
  std::cout << table << "\n";
  std::cout << "Paper reference points: U_MC crosses 1 for n'_HI > 2; at "
               "n'_HI = 2 the order of magnitude of pfh(LO) is 1e-1.\n";
  std::cout << "CSV: n_adapt,u_mc,pfh_lo\n";
  for (const auto& p : points) {
    std::cout << p.n_adapt << "," << p.u_mc << "," << p.pfh_lo << "\n";
  }
  return 0;
}
