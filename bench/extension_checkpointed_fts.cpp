/// Extension experiment: FT-S with checkpoint/restart instead of full
/// re-execution, end to end. Acceptance ratio vs utilization on the
/// Fig. 3a workload for k = 1 (the paper's re-execution), k = 2 and
/// k = 4 segments, with and without checkpoint overhead — quantifying how
/// much schedulable region finer-grained fault tolerance buys once it is
/// pushed through the whole pipeline (safety gate + conversion + EDF-VD).
#include <iostream>
#include <string>

#include "common/experiment_util.hpp"
#include "ftmc/core/ft_checkpoint.hpp"
#include "ftmc/io/table.hpp"
#include "ftmc/obs/bench_report.hpp"
#include "ftmc/taskgen/generator.hpp"

int main(int argc, char** argv) {
  using namespace ftmc;
  int sets = 200;
  const cli::Command flags{.program = "extension_checkpointed_fts",
                           .flags = {bench::sets_flag(sets)}};
  if (const auto code = cli::parse(flags, argc, argv)) return *code;
  obs::BenchReport report("extension_checkpointed_fts", argc, argv);

  struct Variant {
    const char* label;
    int segments;
    double overhead;
  };
  const std::vector<Variant> variants = {
      {"k=1 (paper)", 1, 0.0},
      {"k=2", 2, 0.0},
      {"k=4", 4, 0.0},
      {"k=4, 5% ovh", 4, 0.05},
  };

  std::cout << "=== Extension — checkpointed FT-S vs re-execution ===\n";
  std::cout << "task killing, HI=B, LO=D, f=1e-3 (faults frequent enough "
               "that budgets differ), "
            << sets << " sets per point\n\n";

  std::vector<std::string> header = {"U"};
  for (const auto& v : variants) header.emplace_back(v.label);
  io::Table table(header);

  for (const double u : {0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
    std::vector<std::string> row = {io::Table::num(u, 3)};
    for (const auto& variant : variants) {
      taskgen::GeneratorParams params;
      params.target_utilization = u;
      params.failure_prob = 1e-3;
      params.mapping = {Dal::B, Dal::D};
      taskgen::Rng rng(451);
      int accepted = 0;
      for (int i = 0; i < sets; ++i) {
        const core::FtTaskSet ts = taskgen::generate_task_set(params, rng);
        core::CkptFtsConfig cfg;
        cfg.segments = variant.segments;
        cfg.overhead_fraction = variant.overhead;
        cfg.adaptation.kind = mcs::AdaptationKind::kKilling;
        cfg.adaptation.os_hours = 1.0;
        if (core::ft_schedule_checkpointed(ts, cfg).success) ++accepted;
      }
      row.push_back(io::Table::num(static_cast<double>(accepted) / sets, 3));
    }
    table.add_row(row);
  }
  std::cout << table;
  std::cout << "\nReading: at f = 1e-3 the level B tasks need n = 5 full "
               "re-executions (worst case 5C); k = 4 checkpointing meets "
               "the same PFH with a ~1.5C budget, roughly tripling the "
               "feasible utilization. Checkpoint overhead taxes every "
               "job, fault or not, so 5% per segment already gives back "
               "part of the gain.\n";
  return 0;
}
