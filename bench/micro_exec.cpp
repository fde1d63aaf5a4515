/// Google-benchmark microbenchmarks of the parallel execution runtime:
/// seed-derivation and dispatch overhead, plus the headline scaling
/// measurement — a Monte-Carlo fault-injection campaign sharded over 1,
/// 2, 4 and 8 workers. On an 8-core machine the 8-thread campaign is
/// expected to run >= 3x faster than the serial one (compare the
/// real_time column across BM_MonteCarloCampaign/threads:N rows).
/// Campaign size: FTMC_BENCH_MISSIONS (default 1000; the acceptance run
/// uses 10000).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <vector>

#include "ftmc/common/cli.hpp"
#include "ftmc/core/conversion.hpp"
#include "ftmc/exec/parallel.hpp"
#include "ftmc/exec/seed.hpp"
#include "ftmc/fms/fms.hpp"
#include "ftmc/obs/bench_report.hpp"
#include "ftmc/sim/monte_carlo.hpp"

namespace {

using namespace ftmc;

/// Missions of the BM_MonteCarloCampaign runs (FTMC_BENCH_MISSIONS).
int g_missions = 1000;

void BM_DeriveSeed(benchmark::State& state) {
  std::uint64_t acc = 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    acc ^= exec::derive_seed(acc, i++);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_DeriveSeed);

void BM_ParallelForDispatch(benchmark::State& state) {
  // Pure dispatch cost: trivial bodies, so this measures pool spin-up,
  // chunk claiming and the completion barrier.
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::atomic<std::uint64_t> sink{0};
    exec::ParallelOptions opt;
    opt.threads = threads;
    exec::parallel_for(4096, opt,
                       [&](std::size_t begin, std::size_t end) {
                         sink.fetch_add(end - begin,
                                        std::memory_order_relaxed);
                       });
    benchmark::DoNotOptimize(sink.load());
  }
}
BENCHMARK(BM_ParallelForDispatch)->Arg(1)->Arg(4)->UseRealTime();

void BM_MonteCarloCampaign(benchmark::State& state) {
  const auto tasks =
      sim::build_sim_tasks(fms::canonical_fms_instance(), 3, 2, 2, 0.5);
  sim::SimConfig cfg;
  cfg.policy = sim::PolicyKind::kEdfVd;
  cfg.adaptation = mcs::AdaptationKind::kKilling;

  sim::MonteCarloOptions opt;
  opt.missions = g_missions;
  opt.mission_length = sim::kTicksPerSecond;  // one simulated second
  opt.seed = 20140601;
  opt.threads = static_cast<int>(state.range(0));

  double hours = 0.0;
  for (auto _ : state) {
    const auto r = monte_carlo_campaign(tasks, cfg, opt);
    hours += r.simulated_hours;
    benchmark::DoNotOptimize(r.pfh_lo);
  }
  state.counters["missions/s"] = benchmark::Counter(
      static_cast<double>(opt.missions) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MonteCarloCampaign)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgName("threads")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Fixed Monte-Carlo campaign for the perf gate, timed separately from the
/// google-benchmark phase (see micro_analysis): all hardware threads, one
/// item = one completed mission.
void run_gate_workload(ftmc::obs::BenchReport& report) {
  const auto tasks =
      sim::build_sim_tasks(fms::canonical_fms_instance(), 3, 2, 2, 0.5);
  sim::SimConfig cfg;
  cfg.policy = sim::PolicyKind::kEdfVd;
  cfg.adaptation = mcs::AdaptationKind::kKilling;

  sim::MonteCarloOptions opt;
  // Sized independently of FTMC_BENCH_MISSIONS (which pins the
  // google-benchmark campaign above): the gate needs a workload long
  // enough to time stably even on CI smoke runs.
  opt.missions = 50000;
  opt.mission_length = sim::kTicksPerSecond;  // one simulated second
  opt.seed = 20140601;
  opt.threads = 0;  // all hardware threads

  const auto t0 = std::chrono::steady_clock::now();
  const auto r = monte_carlo_campaign(tasks, cfg, opt);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  report.set_items_measured(static_cast<double>(opt.missions), seconds,
                            "missions");
  report.note_number("gate_workload_simulated_hours", r.simulated_hours);
}

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark drops the flags it takes from argv; the report
  // records the whole command line, and only once it was accepted.
  const std::vector<char*> command_line(argv, argv + argc);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  // google-benchmark took its flags; the rest is the environment.
  const ftmc::cli::Command flags{
      .program = "micro_exec",
      .flags = {ftmc::cli::integer("", g_missions, 1, INT_MAX,
                                   "campaign missions (default 1000)")
                    .overridden_by("FTMC_BENCH_MISSIONS")}};
  if (const auto code = ftmc::cli::parse(flags, argc, argv)) return *code;
  ftmc::obs::BenchReport report("micro_exec",
                                static_cast<int>(command_line.size()),
                                command_line.data());
  report.note_number("missions", g_missions);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  run_gate_workload(report);
  return 0;
}
