#include "experiment_util.hpp"

#include <climits>
#include <iostream>
#include <string>

#include "ftmc/io/parse_error.hpp"
#include "ftmc/io/table.hpp"
#include "ftmc/obs/bench_report.hpp"

namespace ftmc::bench {

std::vector<Fig3Point> fig3_points_from(
    const campaign::CampaignResult& result) {
  std::vector<Fig3Point> points;
  points.reserve(result.cells.size());
  for (const campaign::CellOutcome& outcome : result.cells) {
    if (!outcome.completed) continue;
    Fig3Point p;
    p.failure_prob = outcome.cell.failure_prob;
    p.utilization = outcome.cell.utilization;
    p.ratio_without = outcome.ratio_without();
    p.ratio_with = outcome.ratio_with();
    points.push_back(p);
  }
  return points;
}

void print_fig3(const campaign::CampaignSpec& spec,
                const std::vector<Fig3Point>& points) {
  std::cout << "=== " << spec.title << " ===\n";
  std::cout << "mapping HI=" << to_string(spec.mapping.hi)
            << " LO=" << to_string(spec.mapping.lo)
            << ", mechanism="
            << (campaign::adaptation_of(spec.schedulers.front()) ==
                        mcs::AdaptationKind::kKilling
                    ? "task killing"
                    : "service degradation")
            << ", O_S=" << spec.os_hours << "h, " << spec.sets_per_point
            << " task sets per point\n\n";

  for (const double f : spec.failure_probs) {
    io::Table table({"U", "accept(no adaptation)", "accept(FT-EDF-VD)",
                     "gap"});
    for (const Fig3Point& p : points) {
      if (p.failure_prob != f) continue;
      table.add_row({io::Table::num(p.utilization, 3),
                     io::Table::num(p.ratio_without, 3),
                     io::Table::num(p.ratio_with, 3),
                     io::Table::num(p.ratio_with - p.ratio_without, 3)});
    }
    std::cout << "f = " << io::Table::sci(f, 0) << "\n" << table << "\n";
  }

  std::cout << "CSV: f,U,accept_without,accept_with\n";
  for (const Fig3Point& p : points) {
    std::cout << p.failure_prob << "," << p.utilization << ","
              << p.ratio_without << "," << p.ratio_with << "\n";
  }
  std::cout << std::endl;
}

cli::Flag sets_flag(int& sets) {
  return cli::integer("--sets", sets, 1, INT_MAX, "task sets per point")
      .overridden_by("FTMC_BENCH_SETS");
}

cli::Command bench_flags(std::string program, BenchOverrides& overrides,
                         bool campaign_flags) {
  cli::Command command{.program = std::move(program)};
  command.flags = {
      sets_flag(overrides.sets),
      cli::uint64("--seed", overrides.seed, "base seed of the sweep"),
      cli::integer("--threads", overrides.threads, INT_MIN, INT_MAX,
                   "worker threads (1 = serial, 0 = all; default 0)")
          .overridden_by("FTMC_BENCH_THREADS"),
      cli::toggle("--progress", overrides.progress,
                  "live progress meter on stderr"),
  };
  if (campaign_flags) {
    command.flags.push_back(cli::text("--spec", overrides.spec, "FILE",
                                      "campaign spec to run instead"));
    command.flags.push_back(cli::text(
        "--out", overrides.out, "DIR",
        "persist the campaign in DIR (journal, results)"));
  }
  return command;
}

int fig3_campaign_main(const char* bench_name,
                       const char* default_spec_path, int argc,
                       char** argv) {
  BenchOverrides overrides;
  overrides.spec = default_spec_path;
  const cli::Command flags =
      bench_flags(bench_name, overrides, /*campaign_flags=*/true);
  if (const auto code = cli::parse(flags, argc, argv)) return *code;
  obs::BenchReport report(bench_name, argc, argv);
  try {
    campaign::CampaignSpec spec = campaign::load_spec_file(overrides.spec);
    if (overrides.sets > 0) spec.sets_per_point = overrides.sets;
    if (overrides.seed) spec.seed = *overrides.seed;

    campaign::RunnerOptions options;
    options.threads = overrides.threads;
    options.dir = overrides.out;
    if (overrides.progress) options.progress = obs::stderr_progress("fig3");

    const campaign::CampaignResult result =
        campaign::run_campaign(spec, options);
    const std::vector<Fig3Point> points = fig3_points_from(result);
    print_fig3(spec, points);

    report.set_items(
        static_cast<double>(points.size()) * spec.sets_per_point,
        "task sets");
    report.note_number("campaign_cells_run",
                       static_cast<double>(result.cells_run));
    report.note_number("campaign_cache_hits",
                       static_cast<double>(result.cache_hits));
    return 0;
  } catch (const io::ParseError& e) {
    std::cerr << bench_name << ": " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << bench_name << ": " << e.what() << "\n";
    return 1;
  }
}

}  // namespace ftmc::bench
