/// Ablation: task re-execution (the paper's mechanism) vs checkpoint/
/// restart (the related-work alternative, [8]/[13]). At equal per-job
/// safety targets, checkpointing re-runs only the faulted segment, so its
/// worst-case budget — and hence the utilization FT-S must schedule —
/// is smaller, at the price of checkpoint-save overhead. This bench
/// quantifies the trade on the Example 3.1 HI tasks across segment counts
/// and overhead levels.
#include <iostream>

#include "ftmc/common/cli.hpp"
#include "ftmc/core/checkpointing.hpp"
#include "ftmc/core/profiles.hpp"
#include "ftmc/io/table.hpp"
#include "ftmc/obs/bench_report.hpp"

int main(int argc, char** argv) {
  using namespace ftmc;
  const cli::Command flags{.program = "ablation_checkpointing"};
  if (const auto code = cli::parse(flags, argc, argv)) return *code;
  obs::BenchReport report("ablation_checkpointing", argc, argv);
  core::FtTaskSet ts(
      {core::FtTask{"tau1", 60.0, 60.0, 5.0, Dal::B, 1e-4},
       core::FtTask{"tau2", 25.0, 25.0, 4.0, Dal::B, 1e-4}},
      DualCriticalityMapping{Dal::B, Dal::E});

  // Per-job failure target equivalent to what n = 3 re-execution buys at
  // f = 1e-4 (f^3 = 1e-12 < 1e-11).
  const double target = 1e-11;

  std::cout << "=== Ablation — re-execution vs checkpoint/restart ===\n";
  std::cout << "Example 3.1 HI tasks, f = 1e-4, per-job failure target "
            << io::Table::sci(target, 0) << "\n\n";

  io::Table table({"k (segments)", "overhead/ckpt", "retry budget R",
                   "U_HI (budgeted)", "pfh(HI)"});
  for (const int k : {1, 2, 4, 8}) {
    for (const double o : {0.0, 0.02, 0.10}) {
      if (k == 1 && o > 0.0) continue;  // no checkpoints to save
      std::vector<core::CheckpointScheme> schemes;
      bool feasible = true;
      int max_r = 0;
      for (std::size_t i = 0; i < ts.size(); ++i) {
        const auto r = core::min_retry_budget(ts[i], k, o, target);
        if (!r) {
          feasible = false;
          break;
        }
        max_r = std::max(max_r, *r);
        schemes.push_back({k, *r, o});
      }
      if (!feasible) {
        table.add_row({std::to_string(k), io::Table::num(o, 3), "inf",
                       "-", "-"});
        continue;
      }
      const double u =
          core::utilization_checkpointed(ts, schemes, CritLevel::HI);
      const double pfh =
          core::pfh_plain_checkpointed(ts, schemes, CritLevel::HI);
      table.add_row({std::to_string(k), io::Table::num(o, 3),
                     std::to_string(max_r), io::Table::num(u, 4),
                     io::Table::sci(pfh, 2)});
    }
  }
  std::cout << table;
  std::cout << "\nReading: k = 1, R = 2 is exactly the paper's n = 3 "
               "re-execution (U_HI = 3 * 0.243 = 0.73). Segmenting to "
               "k = 4 cuts the budgeted utilization by roughly the retry "
               "share — the schedulability headroom FT-S would otherwise "
               "have to buy by killing/degrading LO tasks — until "
               "checkpoint overhead eats the gain back (k = 8 at 10%).\n";
  return 0;
}
