/// FMS case study (paper Sec. 5.1): should the level C flightplan tasks be
/// KILLED or DEGRADED when the level B localization tasks need extra
/// re-executions?
///
/// This example runs FT-S under both policies on the flight management
/// system of Table 4 and prints the safety/schedulability trade-off that
/// leads to the paper's conclusion: "service degradation is more proper
/// than task killing".
///
/// Build & run:  ./build/examples/fms_case_study [--trace-out <file>]
///
/// --trace-out additionally simulates one second of the degraded FMS
/// deployment (fault rate inflated so the mode switch fires) and writes
/// the schedule as Chrome trace-event JSON for Perfetto/chrome://tracing.
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>

#include "ftmc/common/cli.hpp"
#include "ftmc/core/conversion.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/fms/fms.hpp"
#include "ftmc/io/table.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/sim/engine.hpp"

namespace {

void report(const char* label, const ftmc::core::FtsResult& r) {
  using ftmc::io::Table;
  std::cout << label << ": "
            << (r.success ? "SUCCESS" : "FAILURE") << "\n";
  if (r.success) {
    std::cout << "  profiles n_HI=" << r.n_hi << " n_LO=" << r.n_lo
              << " n'_HI=" << r.n_adapt << ", U_MC = "
              << Table::num(r.u_mc, 4) << ", pfh(LO) = "
              << Table::sci(r.pfh_lo, 2) << "\n";
  } else {
    std::cout << "  reason: " << ftmc::core::to_string(r.failure) << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftmc;
  std::string trace_out;
  const cli::Command flags{
      .program = "fms_case_study",
      .flags = {cli::text("--trace-out", trace_out, "FILE",
                          "trace one simulated second of the degraded FMS")}};
  if (const auto code = cli::parse(flags, argc, argv)) return *code;
  const core::FtTaskSet fms = fms::canonical_fms_instance();
  const auto reqs = core::SafetyRequirements::do178b();

  std::cout << "Flight management system: 7 level B localization tasks, "
               "4 level C flightplan tasks\n";
  std::cout << "U_HI = " << fms.utilization(CritLevel::HI)
            << ", U_LO = " << fms.utilization(CritLevel::LO)
            << ", f = " << fms::kFmsFailureProb << ", O_S = "
            << fms::kFmsOperationHours << " h\n\n";

  // The re-execution profiles required by safety alone.
  const int n_hi = *core::min_reexec_profile(fms, CritLevel::HI, reqs);
  const int n_lo = *core::min_reexec_profile(fms, CritLevel::LO, reqs);
  const double worst = n_hi * fms.utilization(CritLevel::HI) +
                       n_lo * fms.utilization(CritLevel::LO);
  std::cout << "safety alone needs n_HI = " << n_hi << ", n_LO = " << n_lo
            << " -> worst-case utilization " << io::Table::num(worst, 4)
            << (worst > 1.0 ? " > 1: NOT schedulable without adaptation\n\n"
                            : " <= 1\n\n");

  // Option A: kill the flightplan tasks at the mode switch.
  core::FtsConfig kill;
  kill.adaptation.kind = mcs::AdaptationKind::kKilling;
  kill.adaptation.os_hours = fms::kFmsOperationHours;
  const auto r_kill = core::ft_schedule(fms, kill);
  report("Option A - task killing", r_kill);

  // Option B: degrade them (periods x6) instead.
  core::FtsConfig degrade;
  degrade.adaptation.kind = mcs::AdaptationKind::kDegradation;
  degrade.adaptation.degradation_factor = fms::kFmsDegradationFactor;
  degrade.adaptation.os_hours = fms::kFmsOperationHours;
  const auto r_deg = core::ft_schedule(fms, degrade);
  report("Option B - service degradation (d_f = 6)", r_deg);

  // Why killing failed: show pfh(LO) across the schedulable region.
  std::cout << "\npfh(LO) comparison across killing profiles "
               "(level C requires < 1e-5):\n";
  core::AdaptationModel km;
  km.kind = mcs::AdaptationKind::kKilling;
  km.os_hours = fms::kFmsOperationHours;
  core::AdaptationModel dm;
  dm.kind = mcs::AdaptationKind::kDegradation;
  dm.degradation_factor = fms::kFmsDegradationFactor;
  dm.os_hours = fms::kFmsOperationHours;

  io::Table table({"n'_HI", "pfh(LO) killing", "pfh(LO) degradation"});
  for (int n_adapt = 0; n_adapt <= 2; ++n_adapt) {
    table.add_row({std::to_string(n_adapt),
                   io::Table::sci(core::pfh_lo_under_adaptation(
                                      fms, n_hi, n_lo, n_adapt, km),
                                  2),
                   io::Table::sci(core::pfh_lo_under_adaptation(
                                      fms, n_hi, n_lo, n_adapt, dm),
                                  2)});
  }
  std::cout << table;
  std::cout << "\nConclusion (paper Sec. 5.1): if the flightplan must keep "
               "flowing, degrade it — killing wipes out ~10 orders of "
               "magnitude of safety.\n";

  if (!trace_out.empty() && r_deg.success) {
    // One simulated second of the degraded deployment, faults inflated so
    // re-executions and the mode switch show up on the timeline.
    std::vector<core::FtTask> noisy_tasks = fms.tasks();
    for (auto& t : noisy_tasks) t.failure_prob = 0.05;
    const core::FtTaskSet noisy(noisy_tasks, fms.mapping());
    const auto converted =
        core::convert_to_mc(fms, r_deg.n_hi, r_deg.n_lo, r_deg.n_adapt);
    const double x = mcs::analyze_edf_vd(converted).x;
    sim::SimConfig cfg;
    cfg.policy = sim::PolicyKind::kEdfVd;
    cfg.adaptation = mcs::AdaptationKind::kDegradation;
    cfg.degradation_factor = fms::kFmsDegradationFactor;
    cfg.horizon = sim::kTicksPerSecond;
    cfg.seed = 7;
    cfg.trace_capacity = 100'000;
    sim::Simulator simulator(
        sim::build_sim_tasks(noisy, r_deg.n_hi, r_deg.n_lo, r_deg.n_adapt,
                             x),
        cfg);
    simulator.run();

    std::vector<std::string> names;
    for (const auto& t : simulator.tasks()) names.push_back(t.name);
    std::ofstream out(trace_out);
    if (!out) {
      std::cerr << "cannot write " << trace_out << "\n";
      return 1;
    }
    sim::write_trace_chrome_json(out, simulator.trace(), names);
    std::cout << "\nChrome trace of the degraded deployment written to "
              << trace_out << " — open in Perfetto or chrome://tracing.\n";
  }
  return r_deg.success ? 0 : 1;
}
