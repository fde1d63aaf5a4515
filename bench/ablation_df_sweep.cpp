/// Ablation: the degradation factor d_f. The paper fixes d_f = 6 for the
/// FMS (Appendix C). d_f trades LO service quality against schedulability:
/// Eq. (12) retains U_LO^LO / (d_f - 1) of LO load after the switch, so
/// small d_f squeezes the adaptation budget, while large d_f approaches
/// killing's schedulability at (per Lemma 3.4) no safety cost — the
/// safety bound (Eq. 7) does not depend on d_f at all.
#include <cmath>
#include <iostream>
#include <limits>

#include "ftmc/common/cli.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/core/heterogeneous.hpp"
#include "ftmc/fms/fms.hpp"
#include "ftmc/io/table.hpp"
#include "ftmc/obs/bench_report.hpp"

int main(int argc, char** argv) {
  using namespace ftmc;
  const cli::Command flags{.program = "ablation_df_sweep"};
  if (const auto code = cli::parse(flags, argc, argv)) return *code;
  obs::BenchReport report("ablation_df_sweep", argc, argv);
  const core::FtTaskSet fms = fms::canonical_fms_instance();
  const int n_hi = 3, n_lo = 2;
  const double u_lo_lo = n_lo * fms.utilization(CritLevel::LO);
  const double u_hi_hi = n_hi * fms.utilization(CritLevel::HI);

  std::cout << "=== Ablation — degradation factor d_f (FMS) ===\n\n";
  io::Table table({"d_f", "U_MC at n'=2", "max schedulable n'",
                   "U_HI^LO budget"});
  for (const double df : {1.2, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 24.0}) {
    const double umc = core::umc_closed_form(
        fms.utilization(CritLevel::HI), fms.utilization(CritLevel::LO),
        n_hi, n_lo, 2, mcs::AdaptationKind::kDegradation, df);
    int max_n = -1;
    for (int n = n_hi; n >= 0; --n) {
      if (core::umc_closed_form(fms.utilization(CritLevel::HI),
                                fms.utilization(CritLevel::LO), n_hi, n_lo,
                                n, mcs::AdaptationKind::kDegradation,
                                df) <= 1.0) {
        max_n = n;
        break;
      }
    }
    const double budget = core::adaptation_budget(
        u_lo_lo, u_hi_hi, mcs::AdaptationKind::kDegradation, df);
    table.add_row({io::Table::num(df, 3),
                   std::isinf(umc) ? "inf" : io::Table::num(umc, 4),
                   max_n < 0 ? "none" : std::to_string(max_n),
                   budget < 0.0 ? "none" : io::Table::num(budget, 4)});
  }
  std::cout << table;
  std::cout << "\nReading: below d_f ~ 2 the residual LO load erases the "
               "adaptation budget entirely; the paper's d_f = 6 sits on "
               "the flat part of the curve where further degradation buys "
               "little. pfh(LO) (Eq. 7) is d_f-independent, so the choice "
               "is purely a schedulability-vs-service knob.\n";
  return 0;
}
