/// \file experiment_util.hpp
/// \brief Shared helpers for the reproduction benches: the Fig. 3
///        acceptance-ratio experiment driver (a thin veneer over
///        ftmc::campaign) and the sweep benches' flag table. Telemetry
///        (BENCH_<name>.json) is ftmc/obs/bench_report.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ftmc/campaign/runner.hpp"
#include "ftmc/campaign/spec.hpp"
#include "ftmc/common/cli.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/obs/progress.hpp"
#include "ftmc/taskgen/generator.hpp"

namespace ftmc::bench {

/// One data point: acceptance ratios with and without the adaptation
/// mechanism (the shaded "schedulability gap" of Fig. 3).
struct Fig3Point {
  double failure_prob = 0.0;
  double utilization = 0.0;
  double ratio_without = 0.0;  ///< plain worst-case EDF, no mode switch
  double ratio_with = 0.0;     ///< FT-EDF-VD (killing or degradation)
};

/// Completed campaign cells as Fig. 3 points (expansion order ==
/// the historical point order: failure_probs major, utilizations minor).
[[nodiscard]] std::vector<Fig3Point> fig3_points_from(
    const campaign::CampaignResult& result);

/// Prints a Fig. 3 campaign's points as aligned text plus a CSV block
/// for plotting, with the headline fields taken from its spec.
void print_fig3(const campaign::CampaignSpec& spec,
                const std::vector<Fig3Point>& points);

/// The flags of the Fig. 3 sweep benches; empty or 0 = not given.
struct BenchOverrides {
  int sets = 0;
  std::optional<std::uint64_t> seed;
  int threads = 0;  ///< benches: all hardware threads
  bool progress = false;
  std::string spec;  ///< --spec FILE (campaign benches)
  std::string out;   ///< --out DIR (campaign benches)
};

/// `--sets N` (N >= 1), overridden by FTMC_BENCH_SETS: CI smoke runs
/// shrink every sweep with it, so it wins over the flag and must parse.
[[nodiscard]] cli::Flag sets_flag(int& sets);

/// The sweep benches' table: "--sets N", "--seed S", "--threads T",
/// "--progress" and (when `campaign_flags`) "--spec FILE" / "--out DIR";
/// FTMC_BENCH_SETS / FTMC_BENCH_THREADS override --sets / --threads.
[[nodiscard]] cli::Command bench_flags(std::string program,
                                       BenchOverrides& overrides,
                                       bool campaign_flags = false);

/// Shared main() of the fig3a-d benches: loads the campaign spec at
/// `default_spec_path` (overridable with --spec), applies CLI/env
/// overrides, runs it through the campaign runner (persistently when
/// --out DIR is given) and prints the Fig. 3 tables. Returns the process
/// exit code (2 on bad input).
[[nodiscard]] int fig3_campaign_main(const char* bench_name,
                                     const char* default_spec_path,
                                     int argc, char** argv);

}  // namespace ftmc::bench
