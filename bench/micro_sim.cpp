/// Google-benchmark microbenchmarks of the discrete-event simulator:
/// event throughput under EDF / EDF-VD / fixed priority, with and without
/// fault injection and mode switching.
#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "ftmc/core/conversion.hpp"
#include "ftmc/fms/fms.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/obs/bench_report.hpp"
#include "ftmc/sim/engine.hpp"

namespace {

using namespace ftmc;

std::vector<sim::SimTask> fms_tasks(double vd_factor = 1.0) {
  return sim::build_sim_tasks(fms::canonical_fms_instance(), 3, 2, 2,
                              vd_factor);
}

void run_policy(benchmark::State& state, sim::PolicyKind policy,
                double failure_prob_scale) {
  auto tasks = fms_tasks(policy == sim::PolicyKind::kEdfVd ? 0.5 : 1.0);
  for (auto& t : tasks) t.failure_prob *= failure_prob_scale;

  std::uint64_t jobs = 0;
  for (auto _ : state) {
    sim::SimConfig cfg;
    cfg.policy = policy;
    cfg.adaptation = mcs::AdaptationKind::kKilling;
    cfg.horizon = 60 * sim::kTicksPerSecond;  // one simulated minute
    cfg.seed = 7;
    sim::Simulator simulator(tasks, cfg);
    const sim::SimStats s = simulator.run();
    for (const auto& t : s.per_task) jobs += t.released;
    benchmark::DoNotOptimize(s.busy_time);
  }
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(jobs), benchmark::Counter::kIsRate);
}

void BM_SimEdf(benchmark::State& state) {
  run_policy(state, sim::PolicyKind::kEdf, 1.0);
}
BENCHMARK(BM_SimEdf);

void BM_SimEdfVd(benchmark::State& state) {
  run_policy(state, sim::PolicyKind::kEdfVd, 1.0);
}
BENCHMARK(BM_SimEdfVd);

void BM_SimFixedPriority(benchmark::State& state) {
  run_policy(state, sim::PolicyKind::kFixedPriority, 1.0);
}
BENCHMARK(BM_SimFixedPriority);

void BM_SimHeavyFaults(benchmark::State& state) {
  // f scaled to 0.1: frequent re-executions stress the re-dispatch path.
  run_policy(state, sim::PolicyKind::kEdfVd, 1e4);
}
BENCHMARK(BM_SimHeavyFaults);

void BM_SimSporadicArrivals(benchmark::State& state) {
  const auto tasks = fms_tasks();
  for (auto _ : state) {
    sim::SimConfig cfg;
    cfg.policy = sim::PolicyKind::kEdf;
    cfg.horizon = 60 * sim::kTicksPerSecond;
    cfg.sporadic_arrivals = true;
    cfg.jitter_fraction = 0.2;
    cfg.seed = 7;
    sim::Simulator simulator(tasks, cfg);
    benchmark::DoNotOptimize(simulator.run().busy_time);
  }
}
BENCHMARK(BM_SimSporadicArrivals);

/// Fixed, deterministic simulator workload for the perf gate: EDF-VD with
/// task killing over the FMS case study plus an elevated-fault variant,
/// timed separately from the google-benchmark phase (see micro_analysis).
/// One item = one released job.
void run_gate_workload(ftmc::obs::BenchReport& report) {
  constexpr int minutes = 600;

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t jobs = 0;
  for (const double fault_scale : {1.0, 1e4}) {
    auto tasks = fms_tasks(0.5);
    for (auto& t : tasks) t.failure_prob *= fault_scale;
    sim::SimConfig cfg;
    cfg.policy = sim::PolicyKind::kEdfVd;
    cfg.adaptation = mcs::AdaptationKind::kKilling;
    cfg.horizon = static_cast<sim::Tick>(minutes) * 60 *
                  sim::kTicksPerSecond;
    cfg.seed = 20140601;
    sim::Simulator simulator(std::move(tasks), cfg);
    const sim::SimStats s = simulator.run();
    for (const auto& t : s.per_task) jobs += t.released;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  report.set_items_measured(static_cast<double>(jobs), seconds, "jobs");
  report.note_number("gate_workload_minutes", 2.0 * minutes);
}

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark drops the flags it takes from argv; the report
  // records the whole command line, and only once it was accepted.
  const std::vector<char*> command_line(argv, argv + argc);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  ftmc::obs::BenchReport report("micro_sim",
                                static_cast<int>(command_line.size()),
                                command_line.data());
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  run_gate_workload(report);
  return 0;
}
