/// Ablation: mission duration O_S. The paper fixes O_S = 10 h for the FMS
/// and notes the commercial-aircraft range 1 <= O_S <= 10 (Sec. 2.1). The
/// killing bound (Eq. 5) worsens with O_S — the LO tasks are ever more
/// likely to have been killed — while the degradation bound (Eq. 7) also
/// grows with the trigger probability but stays orders of magnitude lower.
/// This sweep quantifies how the feasible design space shrinks with
/// mission length.
#include <cmath>
#include <iostream>

#include "ftmc/common/cli.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/fms/fms.hpp"
#include "ftmc/io/table.hpp"
#include "ftmc/obs/bench_report.hpp"

int main(int argc, char** argv) {
  using namespace ftmc;
  const cli::Command flags{.program = "ablation_os_hours"};
  if (const auto code = cli::parse(flags, argc, argv)) return *code;
  obs::BenchReport report("ablation_os_hours", argc, argv);
  const core::FtTaskSet fms = fms::canonical_fms_instance();
  const auto reqs = core::SafetyRequirements::do178b();
  const int n_hi = 3, n_lo = 2, n_adapt = 2;

  std::cout << "=== Ablation — mission duration O_S (FMS, n'_HI = 2) ===\n\n";
  io::Table table({"O_S [h]", "pfh(LO) killing", "pfh(LO) degradation",
                   "killing safe", "degradation safe"});
  for (const double os : {1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 16.0, 24.0}) {
    core::AdaptationModel kill;
    kill.kind = mcs::AdaptationKind::kKilling;
    kill.os_hours = os;
    core::AdaptationModel degrade;
    degrade.kind = mcs::AdaptationKind::kDegradation;
    degrade.degradation_factor = fms::kFmsDegradationFactor;
    degrade.os_hours = os;
    const double pk =
        core::pfh_lo_under_adaptation(fms, n_hi, n_lo, n_adapt, kill);
    const double pd =
        core::pfh_lo_under_adaptation(fms, n_hi, n_lo, n_adapt, degrade);
    table.add_row({io::Table::num(os, 3), io::Table::sci(pk, 2),
                   io::Table::sci(pd, 2),
                   reqs.satisfied(Dal::C, pk) ? "yes" : "no",
                   reqs.satisfied(Dal::C, pd) ? "yes" : "no"});
  }
  std::cout << table;
  std::cout << "\nReading: killing is unsafe at every mission length here; "
               "degradation keeps ~5 orders of margin even at 24 h. Both "
               "bounds are monotone in O_S (longer missions accumulate "
               "trigger probability).\n";
  return 0;
}
