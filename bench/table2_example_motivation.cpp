/// Reproduces paper Table 2 and Example 3.1: the motivating task set, its
/// minimal re-execution profiles, the resulting pfh(HI) = 2.04e-10, and
/// the infeasibility without killing (U = 1.08595 > 1).
#include <iostream>

#include "ftmc/common/cli.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/io/table.hpp"
#include "ftmc/io/taskset_io.hpp"
#include "ftmc/obs/bench_report.hpp"

int main(int argc, char** argv) {
  using namespace ftmc;
  const cli::Command flags{.program = "table2_example_motivation"};
  if (const auto code = cli::parse(flags, argc, argv)) return *code;
  obs::BenchReport report("table2_example_motivation", argc, argv);
  const core::FtTaskSet ts = io::parse_task_set_string(R"(
mapping HI=B LO=D
task tau1 T=60 C=5 dal=B f=1e-5
task tau2 T=25 C=4 dal=B f=1e-5
task tau3 T=40 C=7 dal=D f=1e-5
task tau4 T=90 C=6 dal=D f=1e-5
task tau5 T=70 C=8 dal=D f=1e-5
)");

  std::cout << "=== Table 2 / Example 3.1 — the motivating task set ===\n\n";
  io::Table table({"task", "chi", "T/D [ms]", "C [ms]", "f"});
  for (std::size_t i = 0; i < ts.size(); ++i) {
    table.add_row({ts[i].name, std::string(to_string(ts.crit_of(i))),
                   io::Table::num(ts[i].period, 4),
                   io::Table::num(ts[i].wcet, 4),
                   io::Table::sci(ts[i].failure_prob, 0)});
  }
  std::cout << table << "\n";

  const auto reqs = core::SafetyRequirements::do178b();
  const int n_hi = *core::min_reexec_profile(ts, CritLevel::HI, reqs);
  const int n_lo = *core::min_reexec_profile(ts, CritLevel::LO, reqs);
  const auto n = core::uniform_profile(ts, n_hi, n_lo);
  const double pfh_hi = core::pfh_plain(ts, n, CritLevel::HI);
  const double worst_u = n_hi * ts.utilization(CritLevel::HI) +
                         n_lo * ts.utilization(CritLevel::LO);

  std::cout << "minimal re-execution profiles: n_HI = " << n_hi
            << " (paper: 3), n_LO = " << n_lo << " (paper: 1)\n";
  std::cout << "pfh(HI) = " << io::Table::sci(pfh_hi, 3)
            << " (paper: 2.04e-10)\n";
  std::cout << "worst-case utilization without killing: U = "
            << io::Table::num(worst_u, 6) << " (paper: 1.08595) -> "
            << (worst_u > 1.0 ? "NOT schedulable" : "schedulable") << "\n\n";

  core::FtsConfig cfg;
  cfg.adaptation.kind = mcs::AdaptationKind::kKilling;
  cfg.adaptation.os_hours = 1.0;
  const auto r = core::ft_schedule(ts, cfg);
  std::cout << "FT-EDF-VD with task killing: "
            << (r.success ? "SUCCESS" : "FAILURE") << " (n'_HI = "
            << r.n_adapt << ", U_MC = " << io::Table::num(r.u_mc, 4)
            << ") — killing the level D tasks makes the set schedulable, "
               "as the paper's Example 4.1 concludes.\n";
  return 0;
}
