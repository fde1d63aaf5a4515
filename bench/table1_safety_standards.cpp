/// Reproduces paper Table 1: the DO-178B safety requirements encoded by
/// the library (plus the IEC 61508 profile provided as an extension).
#include <iostream>

#include "ftmc/common/cli.hpp"
#include "ftmc/core/safety.hpp"
#include "ftmc/io/table.hpp"
#include "ftmc/obs/bench_report.hpp"

namespace {

void print_standard(const ftmc::core::SafetyRequirements& reqs) {
  using ftmc::io::Table;
  std::cout << reqs.standard_name() << ":\n";
  Table table({"criticality", "PFH requirement"});
  for (const ftmc::Dal dal : ftmc::kAllDals) {
    const auto bound = reqs.requirement(dal);
    table.add_row({std::string(ftmc::to_string(dal)),
                   bound ? "< " + Table::sci(*bound, 0) : "(none)"});
  }
  std::cout << table << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const ftmc::cli::Command flags{.program = "table1_safety_standards"};
  if (const auto code = ftmc::cli::parse(flags, argc, argv)) return *code;
  ftmc::obs::BenchReport report("table1_safety_standards", argc, argv);
  std::cout << "=== Table 1 — safety requirements per criticality ===\n\n";
  print_standard(ftmc::core::SafetyRequirements::do178b());
  print_standard(ftmc::core::SafetyRequirements::iec61508());
  std::cout << "Paper reference: DO-178B requires PFH < 1e-9 / 1e-7 / 1e-5 "
               "for levels A/B/C; levels D and E are not safety-related.\n";
  return 0;
}
