/// Entry point of the FTMC benchmark:
///   ftmc_perfbench --workload W --seed N --seconds S --trace 0|1
/// Prints one JSON result line (see README.md) as the last line of stdout.
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::map<std::string, WorkloadFactory> workloads = {
      {"fig3-campaign", make_fig3_campaign},
      {"dbf-sensitivity", make_dbf_sensitivity},
      {"sim-missions", make_sim_missions},
      {"serve-queries", make_serve_queries},
  };
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "ftmc_perfbench: " << e.what() << "\n"
              << "usage: ftmc_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--out-dir D]\n";
    return 2;
  }
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    std::cerr << "ftmc_perfbench: unknown workload \"" << args.workload
              << "\" (fig3-campaign, dbf-sensitivity, sim-missions, "
                 "serve-queries)\n";
    return 2;
  }
  try {
    return drive(args, it->second);
  } catch (const std::exception& e) {
    std::cerr << "ftmc_perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
}
