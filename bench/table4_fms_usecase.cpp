/// Reproduces paper Table 4: the FMS use-case template, plus the canonical
/// random instance used by the Fig. 1/Fig. 2 reproduction benches.
#include <iostream>

#include "ftmc/common/cli.hpp"
#include "ftmc/fms/fms.hpp"
#include "ftmc/io/table.hpp"
#include "ftmc/obs/bench_report.hpp"

int main(int argc, char** argv) {
  using namespace ftmc;
  const cli::Command flags{.program = "table4_fms_usecase"};
  if (const auto code = cli::parse(flags, argc, argv)) return *code;
  obs::BenchReport report("table4_fms_usecase", argc, argv);
  std::cout << "=== Table 4 — FMS use case ===\n\n";

  io::Table tmpl_table({"task", "T/D [ms]", "C range [ms]", "chi"});
  for (const auto& spec : fms::fms_template()) {
    tmpl_table.add_row({spec.name, io::Table::num(spec.period, 5),
                        "(0, " + io::Table::num(spec.wcet_max, 4) + "]",
                        std::string(to_string(spec.dal))});
  }
  std::cout << tmpl_table << "\n";

  const core::FtTaskSet inst = fms::canonical_fms_instance();
  std::cout << "canonical instance (one random draw conforming to the "
               "table, fixed for reproducibility):\n\n";
  io::Table inst_table({"task", "T/D [ms]", "C [ms]", "u", "chi"});
  for (std::size_t i = 0; i < inst.size(); ++i) {
    inst_table.add_row({inst[i].name, io::Table::num(inst[i].period, 5),
                        io::Table::num(inst[i].wcet, 4),
                        io::Table::num(inst[i].utilization(), 4),
                        std::string(to_string(inst[i].dal))});
  }
  std::cout << inst_table << "\n";
  std::cout << "U_HI = " << inst.utilization(CritLevel::HI)
            << ", U_LO = " << inst.utilization(CritLevel::LO)
            << ", f = " << fms::kFmsFailureProb
            << ", O_S = " << fms::kFmsOperationHours
            << " h, d_f = " << fms::kFmsDegradationFactor << "\n";
  return 0;
}
