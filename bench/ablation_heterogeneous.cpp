/// Ablation: uniform vs per-task (heterogeneous) adaptation profiles.
/// The paper restricts all HI tasks to one n' "to simplify the problem"
/// (Sec. 4.2). This bench measures what the restriction costs: for the
/// FMS and for random task sets, compare pfh(LO) of the best uniform
/// profile against the greedy per-task allocation at identical
/// schedulability (both consume the same U_HI^LO budget from Eq. 10/12).
#include <cmath>
#include <iostream>

#include "ftmc/common/cli.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/core/heterogeneous.hpp"
#include "ftmc/fms/fms.hpp"
#include "ftmc/io/table.hpp"
#include "ftmc/obs/bench_report.hpp"
#include "ftmc/taskgen/generator.hpp"

namespace {

using namespace ftmc;

/// Best uniform profile: the largest n' whose budget fits (Algorithm 2's
/// n2), evaluated with the same PFH bound.
double best_uniform_pfh(const core::FtTaskSet& ts, int n_hi, int n_lo,
                        const core::AdaptationModel& model, double budget) {
  const double u_hi = ts.utilization(CritLevel::HI);
  int n = 0;
  while (n < n_hi && (n + 1) * u_hi <= budget + 1e-12) ++n;
  return core::pfh_lo_under_adaptation(ts, n_hi, n_lo, n, model);
}

void compare(const char* label, const core::FtTaskSet& ts, int n_hi,
             int n_lo, const core::AdaptationModel& model) {
  const auto reqs = core::SafetyRequirements::do178b();
  const auto het =
      core::optimize_adaptation_profiles(ts, n_hi, n_lo, model, reqs);
  if (!het.feasible) {
    std::cout << label << ": infeasible at n' = 0, skipped\n";
    return;
  }
  const double uni = best_uniform_pfh(ts, n_hi, n_lo, model, het.budget);
  const double gain = (het.pfh_lo > 0.0 && uni > 0.0)
                          ? std::log10(uni / het.pfh_lo)
                          : 0.0;
  std::cout << label << ": uniform pfh(LO) = " << io::Table::sci(uni, 2)
            << ", heterogeneous = " << io::Table::sci(het.pfh_lo, 2)
            << "  (" << io::Table::num(gain, 3)
            << " orders of magnitude, budget "
            << io::Table::num(het.budget_used, 3) << "/"
            << io::Table::num(het.budget, 3) << ", " << het.steps
            << " greedy steps)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const ftmc::cli::Command flags{.program = "ablation_heterogeneous"};
  if (const auto code = ftmc::cli::parse(flags, argc, argv)) return *code;
  ftmc::obs::BenchReport report("ablation_heterogeneous", argc, argv);
  std::cout << "=== Ablation — uniform vs heterogeneous adaptation "
               "profiles ===\n\n";

  // FMS under degradation (the paper's feasible configuration).
  core::AdaptationModel deg;
  deg.kind = mcs::AdaptationKind::kDegradation;
  deg.degradation_factor = fms::kFmsDegradationFactor;
  deg.os_hours = fms::kFmsOperationHours;
  compare("FMS / degradation", fms::canonical_fms_instance(), 3, 2, deg);

  // FMS under killing (infeasible uniformly; heterogeneous cannot rescue
  // safety but shows the budget utilization).
  core::AdaptationModel kill;
  kill.kind = mcs::AdaptationKind::kKilling;
  kill.os_hours = fms::kFmsOperationHours;
  compare("FMS / killing    ", fms::canonical_fms_instance(), 3, 2, kill);

  // Random sets: heterogeneity pays when HI utilizations are skewed —
  // cheap tasks can afford high n' that the uniform profile cannot.
  taskgen::GeneratorParams params;
  params.target_utilization = 0.5;
  params.failure_prob = 1e-4;
  params.mapping = {Dal::B, Dal::C};
  taskgen::Rng rng(7);
  for (int i = 0; i < 5; ++i) {
    const auto ts = taskgen::generate_task_set(params, rng);
    core::AdaptationModel m;
    m.kind = mcs::AdaptationKind::kKilling;
    m.os_hours = 1.0;
    const std::string label = "random set " + std::to_string(i) + "     ";
    compare(label.c_str(), ts, 3, 2, m);
  }
  std::cout << "\nReading: per-task profiles never do worse (they start "
               "from the best uniform point) and exploit leftover budget "
               "the uniform restriction wastes.\n";
  return 0;
}
