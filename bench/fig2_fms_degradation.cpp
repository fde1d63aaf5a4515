/// Reproduces paper Fig. 2: the impacts of SERVICE DEGRADATION (d_f = 6)
/// on the flight management system — U_MC (Eq. (11)) and log10 pfh(LO)
/// (Eq. (7)) vs the degradation profile n'_HI. Expected shape: U_MC again
/// crosses 1 above n'_HI = 2, but pfh(LO) is ~1e-10/1e-11 — ten orders of
/// magnitude safer than killing — so a schedulable AND safe region exists.
#include <cmath>
#include <iostream>
#include <limits>

#include "ftmc/common/cli.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/fms/fms.hpp"
#include "ftmc/io/table.hpp"
#include "ftmc/obs/bench_report.hpp"

int main(int argc, char** argv) {
  using namespace ftmc;
  const cli::Command flags{.program = "fig2_fms_degradation"};
  if (const auto code = cli::parse(flags, argc, argv)) return *code;
  obs::BenchReport report("fig2_fms_degradation", argc, argv);
  const core::FtTaskSet fms = fms::canonical_fms_instance();
  const auto reqs = core::SafetyRequirements::do178b();

  const int n_hi = *core::min_reexec_profile(fms, CritLevel::HI, reqs);
  const int n_lo = *core::min_reexec_profile(fms, CritLevel::LO, reqs);

  std::cout << "=== Fig. 2 — the impacts of service degradation (FMS) ===\n";
  std::cout << "canonical FMS instance, d_f = " << fms::kFmsDegradationFactor
            << ", f = " << fms::kFmsFailureProb
            << ", O_S = " << fms::kFmsOperationHours << " h\n";
  std::cout << "minimal re-execution profiles: n_HI = " << n_hi
            << ", n_LO = " << n_lo << "\n\n";

  core::AdaptationModel model;
  model.kind = mcs::AdaptationKind::kDegradation;
  model.degradation_factor = fms::kFmsDegradationFactor;
  model.os_hours = fms::kFmsOperationHours;
  const auto points =
      core::sweep_adaptation(fms, n_hi, n_lo, model, reqs, 4);

  io::Table table({"n'_HI", "U_MC", "log10 pfh(LO)", "schedulable",
                   "safe (pfh < 1e-5)"});
  for (const auto& p : points) {
    const std::string umc =
        std::isinf(p.u_mc) ? "inf (lambda >= 1)" : io::Table::num(p.u_mc, 4);
    table.add_row({std::to_string(p.n_adapt), umc,
                   io::Table::num(std::log10(p.pfh_lo), 3),
                   p.schedulable ? "yes" : "no", p.safe ? "yes" : "no"});
  }
  std::cout << table << "\n";
  std::cout << "Paper reference points: schedulable region n'_HI <= 2; at "
               "n'_HI = 2 pfh(LO) is ~1e-10/1e-11 vs ~1e-1 under killing; "
               "the schedulable & safe region is non-empty.\n";
  std::cout << "CSV: n_adapt,u_mc,pfh_lo\n";
  for (const auto& p : points) {
    std::cout << p.n_adapt << "," << p.u_mc << "," << p.pfh_lo << "\n";
  }
  return 0;
}
