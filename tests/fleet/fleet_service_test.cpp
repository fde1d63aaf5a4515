/// \file fleet_service_test.cpp
/// \brief End-to-end fleet test over real loopback TCP: a
///        CoordinatorService and in-process run_worker() loops, checking
///        completion, clean drain, and byte-identity with the
///        single-process runner.
#include "ftmc/fleet/service.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "ftmc/campaign/journal.hpp"
#include "ftmc/campaign/runner.hpp"
#include "ftmc/campaign/spec.hpp"
#include "ftmc/fleet/worker.hpp"
#include "ftmc/io/json.hpp"
#include "ftmc/obs/registry.hpp"

namespace ftmc::fleet {
namespace {

[[nodiscard]] campaign::CampaignSpec service_spec() {
  return campaign::parse_spec_text(R"({
    "name": "servicetest",
    "schedulers": ["edf_vd_killing"],
    "failure_probs": [1e-3, 1e-5],
    "utilizations": [0.3, 0.6, 0.9],
    "sets_per_point": 4,
    "seed": 20140601
  })");
}

[[nodiscard]] std::string scratch_dir(const std::string& leaf) {
  const std::string dir = (std::filesystem::temp_directory_path() /
                           "ftmc_fleet_service" / leaf)
                              .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(CoordinatorService, TwoWorkersOverTcpMatchSingleProcessBytes) {
  const std::string solo_dir = scratch_dir("solo");
  campaign::RunnerOptions runner;
  runner.dir = solo_dir;
  ASSERT_TRUE(campaign::run_campaign(service_spec(), runner).complete);

  const std::string fleet_dir = scratch_dir("fleet");
  CoordinatorOptions coordinator_options;
  coordinator_options.dir = fleet_dir;
  coordinator_options.lease_cells = 2;
  ServiceOptions service_options;
  service_options.linger_ms = 10000;  // workers always get their goodbye
  CoordinatorService service(service_spec(), coordinator_options,
                             service_options);
  ASSERT_GT(service.port(), 0);

  std::vector<WorkerReport> reports(2);
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&service, &reports, w] {
      WorkerOptions options;
      options.port = service.port();
      options.name = "w" + std::to_string(w);
      options.poll_ms = 20;
      reports[static_cast<std::size_t>(w)] = run_worker(options);
    });
  }
  const campaign::CampaignResult result = service.serve();
  for (std::thread& worker : workers) worker.join();

  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.cells_total, 6u);
  EXPECT_EQ(reports[0].cells_computed + reports[1].cells_computed, 6u);
  EXPECT_EQ(campaign::read_file(solo_dir + "/journal.jsonl"),
            campaign::read_file(fleet_dir + "/journal.jsonl"));
  EXPECT_EQ(campaign::read_file(solo_dir + "/results.json"),
            campaign::read_file(fleet_dir + "/results.json"));
}

TEST(CoordinatorService, AlreadyCompleteCampaignDrainsOnLinger) {
  // A coordinator whose journal already covers the grid never sees a
  // worker; the linger clock alone must conclude serve().
  const std::string dir = scratch_dir("prefilled");
  campaign::RunnerOptions runner;
  runner.dir = dir;
  ASSERT_TRUE(campaign::run_campaign(service_spec(), runner).complete);

  CoordinatorOptions coordinator_options;
  coordinator_options.dir = dir;
  ServiceOptions service_options;
  service_options.linger_ms = 50;
  service_options.net.accept_poll_ms = 10;
  CoordinatorService service(service_spec(), coordinator_options,
                             service_options);
  const campaign::CampaignResult result = service.serve();
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.cache_hits, 6u);
}

TEST(CoordinatorService, BenchReportCarriesCellsAndNotes) {
  // Two of the six cells are journaled before the coordinator opens, so
  // the worker computes four and the ledger replays two.
  const std::string dir = scratch_dir("report");
  campaign::RunnerOptions runner;
  runner.dir = dir;
  runner.max_cells = 2;
  ASSERT_FALSE(campaign::run_campaign(service_spec(), runner).complete);

  CoordinatorOptions coordinator_options;
  coordinator_options.dir = dir;
  ServiceOptions service_options;
  service_options.linger_ms = 10000;  // the worker gets its goodbye
  CoordinatorService service(service_spec(), coordinator_options,
                             service_options);
  std::thread worker([&service] {
    WorkerOptions options;
    options.port = service.port();
    options.name = "solo";
    options.poll_ms = 20;
    (void)run_worker(options);
  });
  const campaign::CampaignResult result = service.serve();
  worker.join();

  const bool was_enabled = obs::Registry::global().is_enabled();
  const char* old_dir = std::getenv("FTMC_BENCH_DIR");
  const std::string saved_dir = old_dir != nullptr ? old_dir : "";
  ::setenv("FTMC_BENCH_DIR", dir.c_str(), 1);
  {
    const char* const argv[] = {"ftmc_campaign", "coordinate"};
    obs::BenchReport report("fleet", 2, argv);
    report_result(report, result, 0.5);
  }
  if (old_dir != nullptr) {
    ::setenv("FTMC_BENCH_DIR", saved_dir.c_str(), 1);
  } else {
    ::unsetenv("FTMC_BENCH_DIR");
  }
  obs::Registry::global().enable(was_enabled);

  const io::json::Value doc =
      io::json::parse(campaign::read_file(dir + "/BENCH_fleet.json"));
  EXPECT_EQ(doc.at("name").as_string(), "fleet");
  EXPECT_EQ(doc.at("items").as_number(), 4.0);
  EXPECT_EQ(doc.at("items_unit").as_string(), "cells");
  EXPECT_EQ(doc.at("measured_seconds").as_number(), 0.5);
  EXPECT_EQ(doc.at("items_per_sec").as_number(), 8.0);
  const io::json::Value& notes = doc.at("notes");
  EXPECT_EQ(notes.at("cells_total").kind(), io::json::Value::Kind::kNumber);
  EXPECT_EQ(notes.at("cells_total").as_uint64(), 6u);
  EXPECT_EQ(notes.at("cache_hits").as_uint64(), 2u);
  EXPECT_EQ(notes.at("complete").kind(), io::json::Value::Kind::kBool);
  EXPECT_TRUE(notes.at("complete").as_bool());
}

TEST(CoordinatorService, WorkerReconnectBudgetSurfacesDeadCoordinator) {
  std::uint16_t dead_port = 0;
  {
    CoordinatorOptions coordinator_options;
    ServiceOptions service_options;
    CoordinatorService probe(service_spec(), coordinator_options,
                             service_options);
    dead_port = probe.port();
  }
  WorkerOptions options;
  options.port = dead_port;
  options.connect_timeout_ms = 200;
  options.reconnect_attempts = 2;
  options.reconnect_backoff_ms = 10;
  EXPECT_THROW((void)run_worker(options), std::runtime_error);
}

}  // namespace
}  // namespace ftmc::fleet
