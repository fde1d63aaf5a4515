/// Google-benchmark microbenchmarks of the analysis layer, including the
/// ablation called out in DESIGN.md: log-domain probability arithmetic vs
/// naive doubles (the naive path silently loses the entire result for
/// realistic f, which is why the library pays for expm1/log1p).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <vector>

#include "ftmc/core/analysis.hpp"
#include "ftmc/core/conversion.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/fms/fms.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/mcs/mc_dbf.hpp"
#include "ftmc/obs/bench_report.hpp"
#include "ftmc/taskgen/generator.hpp"

namespace {

using namespace ftmc;

core::FtTaskSet fms() { return fms::canonical_fms_instance(); }

void BM_PfhPlain(benchmark::State& state) {
  const auto ts = fms();
  const auto n = core::uniform_profile(ts, 3, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::pfh_plain(ts, n, CritLevel::HI));
  }
}
BENCHMARK(BM_PfhPlain);

void BM_SurvivalBound(benchmark::State& state) {
  const auto ts = fms();
  const auto n_adapt = core::uniform_profile(ts, 2, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::survival_no_trigger(ts, n_adapt, hours_to_millis(10.0)));
  }
}
BENCHMARK(BM_SurvivalBound);

/// Eq. (5) over O_S hours: the dominant analysis cost (sum over ~36k/h
/// round-completion points per LO task).
void BM_PfhKilling(benchmark::State& state) {
  const auto ts = fms();
  const auto n = core::uniform_profile(ts, 3, 2);
  const auto n_adapt = core::uniform_profile(ts, 2, 0);
  core::KillingBoundOptions opt;
  opt.os_hours = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::pfh_lo_killing(ts, n, n_adapt, opt));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PfhKilling)->Arg(1)->Arg(5)->Arg(10)->Complexity();

void BM_PfhDegradation(benchmark::State& state) {
  const auto ts = fms();
  const auto n = core::uniform_profile(ts, 3, 2);
  const auto n_adapt = core::uniform_profile(ts, 2, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::pfh_lo_degradation(ts, n, n_adapt, 10.0));
  }
}
BENCHMARK(BM_PfhDegradation);

void BM_EdfVdTest(benchmark::State& state) {
  const auto mc = core::convert_to_mc(fms(), 3, 2, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mcs::analyze_edf_vd(mc));
  }
}
BENCHMARK(BM_EdfVdTest);

void BM_FtScheduleEndToEnd(benchmark::State& state) {
  const auto ts = fms();
  core::FtsConfig cfg;
  cfg.adaptation.kind = mcs::AdaptationKind::kDegradation;
  cfg.adaptation.degradation_factor = fms::kFmsDegradationFactor;
  cfg.adaptation.os_hours = fms::kFmsOperationHours;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ft_schedule(ts, cfg));
  }
}
BENCHMARK(BM_FtScheduleEndToEnd);

// --- Ablation: log-domain vs naive complement-of-survival -----------------

/// Naive 1 - (1-p)^r in plain doubles.
double naive_complement(double p, double r) {
  return 1.0 - std::pow(1.0 - p, r);
}

void BM_Ablation_LogDomainComplement(benchmark::State& state) {
  double p = 1e-10, r = 1e6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        prob::complement_from_log(prob::log_survival(p, r)));
  }
}
BENCHMARK(BM_Ablation_LogDomainComplement);

void BM_Ablation_NaiveComplement(benchmark::State& state) {
  double p = 1e-10, r = 1e6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive_complement(p, r));
  }
}
BENCHMARK(BM_Ablation_NaiveComplement);

/// Correctness side of the ablation, printed once: at f^n' = 1e-10 and
/// r = 1e6 rounds the naive path returns ~9.999e-5 with only a few correct
/// digits left, and at f^n' = 1e-17 it returns exactly 0 — i.e. "perfectly
/// safe" — while the true trigger probability is 1e-11.
void BM_Ablation_AccuracyReport(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        prob::complement_from_log(prob::log_survival(1e-17, 1e6)));
  }
  state.counters["naive_at_1e-17"] = naive_complement(1e-17, 1e6);
  state.counters["logdomain_at_1e-17"] =
      prob::complement_from_log(prob::log_survival(1e-17, 1e6));
}
BENCHMARK(BM_Ablation_AccuracyReport);

/// Fixed, deterministic analysis workload for the perf gate: FT-S
/// end-to-end (killing + degradation) and the MC-DBF virtual-deadline
/// tuner over Appendix-C generated task sets, timed separately from the
/// google-benchmark phase above (whose wall time is pinned by
/// --benchmark_min_time and would dilute the rate). One item = one task
/// set pushed through all three analyses.
void run_gate_workload(ftmc::obs::BenchReport& report) {
  constexpr int sets = 96;
  constexpr double kUtilizations[] = {0.3, 0.5, 0.7, 0.9};

  core::FtsConfig killing;
  killing.adaptation.kind = mcs::AdaptationKind::kKilling;
  killing.adaptation.os_hours = 1.0;
  core::FtsConfig degradation;
  degradation.adaptation.kind = mcs::AdaptationKind::kDegradation;
  degradation.adaptation.degradation_factor = 2.0;
  degradation.adaptation.os_hours = 1.0;
  const mcs::McDbfOptions dbf_options;

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t accepted = 0;
  for (int i = 0; i < sets; ++i) {
    taskgen::GeneratorParams params;
    params.target_utilization = kUtilizations[i % 4];
    taskgen::Rng rng(20140601u + static_cast<std::uint64_t>(i));
    const core::FtTaskSet ts = taskgen::generate_task_set(params, rng);
    accepted += core::ft_schedule(ts, killing).success ? 1 : 0;
    accepted += core::ft_schedule(ts, degradation).success ? 1 : 0;
    const mcs::McTaskSet mc = core::convert_to_mc(ts, 3, 2, 2);
    accepted += mcs::analyze_mc_dbf(mc, dbf_options).schedulable ? 1 : 0;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  report.set_items_measured(static_cast<double>(sets), seconds, "task sets");
  report.note_number("gate_workload_accepted",
                     static_cast<double>(accepted));
  report.note_number("gate_workload_sets", static_cast<double>(sets));
}

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark drops the flags it takes from argv; the report
  // records the whole command line, and only once it was accepted.
  const std::vector<char*> command_line(argv, argv + argc);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  ftmc::obs::BenchReport report("micro_analysis",
                                static_cast<int>(command_line.size()),
                                command_line.data());
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  run_gate_workload(report);
  return 0;
}
