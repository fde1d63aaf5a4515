/// Reproduces paper Table 3 / Example 4.1: the problem conversion of the
/// Example 3.1 task set into a conventional mixed-criticality task set
/// (C(HI) = 3C, C(LO) = 2C for HI tasks) and its EDF-VD schedulability.
#include <iostream>

#include "ftmc/common/cli.hpp"
#include "ftmc/core/conversion.hpp"
#include "ftmc/io/table.hpp"
#include "ftmc/io/taskset_io.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/obs/bench_report.hpp"

int main(int argc, char** argv) {
  using namespace ftmc;
  const cli::Command flags{.program = "table3_problem_conversion"};
  if (const auto code = cli::parse(flags, argc, argv)) return *code;
  obs::BenchReport report("table3_problem_conversion", argc, argv);
  const core::FtTaskSet ts = io::parse_task_set_string(R"(
mapping HI=B LO=D
task tau1 T=60 C=5 dal=B f=1e-5
task tau2 T=25 C=4 dal=B f=1e-5
task tau3 T=40 C=7 dal=D f=1e-5
task tau4 T=90 C=6 dal=D f=1e-5
task tau5 T=70 C=8 dal=D f=1e-5
)");

  std::cout << "=== Table 3 / Example 4.1 — problem conversion ===\n";
  std::cout << "Gamma(n_HI = 3, n_LO = 1, n'_HI = 2):\n\n";
  const mcs::McTaskSet mc = core::convert_to_mc(ts, 3, 1, 2);

  io::Table table({"task", "chi", "T/D [ms]", "C(HI)", "C(LO)"});
  for (const auto& t : mc.tasks()) {
    table.add_row({t.name, std::string(to_string(t.crit)),
                   io::Table::num(t.period, 4),
                   io::Table::num(t.wcet_hi, 4),
                   io::Table::num(t.wcet_lo, 4)});
  }
  std::cout << table << "\n";
  std::cout << "Paper Table 3: C(HI) = {15, 12, 7, 6, 8}, "
               "C(LO) = {10, 8, 7, 6, 8}.\n\n";

  const auto vd = mcs::analyze_edf_vd(mc);
  std::cout << "EDF-VD analysis (Eq. 10): U_LO^LO = "
            << io::Table::num(vd.u_lo_lo, 5)
            << ", U_HI^LO = " << io::Table::num(vd.u_hi_lo, 5)
            << ", U_HI^HI = " << io::Table::num(vd.u_hi_hi, 5) << "\n";
  std::cout << "U_MC = " << io::Table::num(vd.u_mc, 5)
            << ", virtual-deadline factor x = " << io::Table::num(vd.x, 5)
            << " -> " << (vd.schedulable ? "SCHEDULABLE" : "NOT schedulable")
            << " (paper: schedulable by EDF-VD)\n";
  return 0;
}
