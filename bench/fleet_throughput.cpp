/// \file fleet_throughput.cpp
/// \brief Distributed-campaign throughput: a fleet::CoordinatorService
///        on loopback TCP, driven by in-process run_worker() loops.
///
/// Two phases over the same in-memory campaign grid:
///  1. one worker — the protocol's serial floor (lease round trips plus
///     single-threaded cell evaluation);
///  2. four workers — the sharded configuration the CI fleet job runs.
///
/// Telemetry: BENCH_fleet_throughput.json with items = total cells
/// computed across both phases (items_per_sec is the gated headline),
/// plus per-phase cells/sec and the measured speedup under "notes".
/// The fleet.* coordinator metrics ride along in the registry snapshot.
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/experiment_util.hpp"
#include "ftmc/campaign/spec.hpp"
#include "ftmc/fleet/service.hpp"
#include "ftmc/fleet/worker.hpp"
#include "ftmc/obs/bench_report.hpp"

namespace {

using namespace ftmc;

[[nodiscard]] campaign::CampaignSpec bench_spec(int sets_per_point) {
  campaign::CampaignSpec spec;
  spec.name = "fleet_throughput";
  spec.schedulers = {campaign::Scheduler::kEdfVdKilling};
  spec.failure_probs = {1e-3, 1e-5};
  spec.utilizations = {0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
  spec.sets_per_point = sets_per_point;
  return spec;
}

/// Runs one phase: `workers` loops against a fresh in-memory
/// coordinator. Returns cells per second.
[[nodiscard]] double run_phase(const campaign::CampaignSpec& spec,
                               int workers, double* wall_out) {
  fleet::CoordinatorOptions coordinator_options;
  coordinator_options.lease_cells = 2;
  fleet::ServiceOptions service_options;
  service_options.linger_ms = 5000;
  fleet::CoordinatorService service(spec, coordinator_options,
                                    service_options);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&service, w] {
      fleet::WorkerOptions options;
      options.port = service.port();
      options.name = "w" + std::to_string(w);
      options.poll_ms = 10;
      (void)fleet::run_worker(options);
    });
  }
  const campaign::CampaignResult result = service.serve();
  for (std::thread& thread : threads) thread.join();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  if (!result.complete) {
    std::cerr << "fleet_throughput: phase with " << workers
              << " workers did not complete\n";
    std::exit(1);
  }
  *wall_out = wall;
  return wall > 0.0 ? static_cast<double>(result.cells_run) / wall : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  int sets = 100;
  const cli::Command flags{.program = "fleet_throughput",
                           .flags = {bench::sets_flag(sets)}};
  if (const auto code = cli::parse(flags, argc, argv)) return *code;
  obs::BenchReport report("fleet_throughput", argc, argv);

  const campaign::CampaignSpec spec = bench_spec(sets);
  const double cells =
      static_cast<double>(campaign::expand_cells(spec).size());

  double wall_one = 0.0;
  const double one_cps = run_phase(spec, 1, &wall_one);
  double wall_four = 0.0;
  const double four_cps = run_phase(spec, 4, &wall_four);

  report.set_items(2.0 * cells, "cells");
  report.note_number("cells_per_phase", cells);
  report.note_number("sets_per_point", sets);
  report.note_number("one_worker_cells_per_sec", one_cps);
  report.note_number("four_worker_cells_per_sec", four_cps);
  report.note_number("speedup_4v1", one_cps > 0.0 ? four_cps / one_cps
                                                  : 0.0);

  std::cout << "fleet_throughput: " << cells << " cells/phase, 1 worker "
            << one_cps << " cells/s, 4 workers " << four_cps
            << " cells/s\n";
  return 0;
}
