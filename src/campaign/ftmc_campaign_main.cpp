/// \file ftmc_campaign_main.cpp
/// \brief The `ftmc_campaign` CLI: run, resume, expand and print
///        declarative experiment campaigns (see docs/campaigns.md),
///        plus the distributed modes — `coordinate`, `worker` and
///        `run --fleet N` (coordinator + N local worker processes).
///
/// Exit codes: 0 = campaign complete, 3 = stopped early (--max-cells),
/// 2 = usage / input error, 1 = runtime failure.
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <climits>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ftmc/campaign/journal.hpp"
#include "ftmc/campaign/runner.hpp"
#include "ftmc/campaign/spec.hpp"
#include "ftmc/common/cli.hpp"
#include "ftmc/common/file.hpp"
#include "ftmc/exec/parallel.hpp"
#include "ftmc/fleet/service.hpp"
#include "ftmc/fleet/worker.hpp"
#include "ftmc/io/json.hpp"
#include "ftmc/obs/bench_report.hpp"
#include "ftmc/obs/progress.hpp"
#include "ftmc/obs/registry.hpp"
#include "ftmc/obs/span.hpp"

namespace {

using namespace ftmc;

struct CliOptions {
  CliOptions() { runner.threads = 0; }  // CLI: all hardware threads

  std::string spec_path;
  std::string dir;  ///< the runner's, the coordinator's or print's
  campaign::RunnerOptions runner;
  bool progress = false;
  bool stats = false;
  std::string trace_out;
  // Fleet modes.
  int fleet = 0;
  fleet::CoordinatorOptions coordinator;
  fleet::ServiceOptions listener;
  std::string port_file;
  cli::Endpoint connect;
  fleet::WorkerOptions worker;
};

/// One table per command, each holding exactly the flags it reads.
/// `run` keeps the coordinator's flags for `run --fleet N`.
[[nodiscard]] std::vector<cli::Command> commands(CliOptions& opt) {
  const cli::Flag spec =
      cli::text("--spec", opt.spec_path, "FILE", "campaign spec").require();
  const cli::Flag dir =
      cli::text("DIR", opt.dir, "DIR", "campaign directory").require();
  const cli::Flag out = cli::text("--out", opt.dir, "DIR",
                                  "campaign directory (journal, results)");
  const std::vector<cli::Flag> runner = {
      cli::integer("--threads", opt.runner.threads, INT_MIN, INT_MAX,
                   "worker threads (1 = serial, 0 = all hardware threads)"),
      cli::integer("--max-cells", opt.runner.max_cells, 0, LLONG_MAX,
                   "stop after N newly computed cells (crash drill)"),
      cli::toggle("--progress", opt.progress,
                  "live progress meter on stderr"),
      cli::text("--trace-out", opt.trace_out, "FILE",
                "write a Chrome trace of the run to FILE"),
      cli::toggle("--stats", opt.stats,
                  "print per-phase run counters on completion"),
  };
  const std::vector<cli::Flag> coordinator = {
      cli::integer("--port", opt.listener.net.port, 0, 65535,
                   "TCP port (default 0 = ephemeral)"),
      cli::integer("--lease-cells", opt.coordinator.lease_cells, 1, LLONG_MAX,
                   "cells per lease (default 8)"),
      cli::integer("--lease-ttl-ms", opt.coordinator.lease_ttl_ms, 1,
                   LLONG_MAX,
                   "reissue a lease not answered within N ms\n"
                   "(default 30000)"),
      cli::integer("--linger-ms", opt.listener.linger_ms, 0, LLONG_MAX,
                   "after completion, wait up to N ms for workers to\n"
                   "collect their goodbye (default 2000)"),
  };
  // A command's own rows, then the shared groups it reads.
  const auto rows = [](std::vector<cli::Flag> own, const auto&... groups) {
    (own.insert(own.end(), groups.begin(), groups.end()), ...);
    return own;
  };
  const std::string program = "ftmc_campaign";
  return {
      {program, "run", "expand and run a campaign spec",
       rows({spec, out,
             cli::integer("--fleet", opt.fleet, 0, INT_MAX,
                          "shard across N local worker processes instead "
                          "of\nin-process threads (results are "
                          "byte-identical)")},
            runner, coordinator)},
      {program, "resume", "continue the campaign persisted in DIR",
       rows({dir}, runner)},
      {program, "--resume", "alias of resume DIR", rows({dir}, runner)},
      {program, "expand", "list cells and cache hashes (dry run)", {spec}},
      {program, "print", "render DIR/results.json as CSV", {dir}},
      {program, "coordinate", "serve the campaign to fleet workers",
       rows({spec, cli::Flag(out).require(),
             cli::text("--port-file", opt.port_file, "FILE",
                       "also write the chosen port to FILE (atomic)")},
            coordinator)},
      {program, "worker", "lease and compute cells for a coordinator",
       {cli::endpoint("--connect", opt.connect, "the coordinator").require(),
        cli::integer("--threads", opt.worker.threads, INT_MIN, INT_MAX,
                     "threads per lease (default 1; 0 also means 1)"),
        cli::text("--name", opt.worker.name, "S",
                  "worker name for telemetry (default \"worker\")"),
        cli::integer("--poll-ms", opt.worker.poll_ms, 0, INT_MAX,
                     "wait between polls while the grid is drained"),
        cli::integer("--throttle-ms", opt.worker.throttle_ms, 0, INT_MAX,
                     "artificial per-cell delay (crash-drill pacing)")}},
  };
}

void print_summary(const campaign::CampaignResult& result) {
  std::cout << "campaign " << result.spec.name << ": "
            << result.cells_total << " cells, " << result.cells_run
            << " run, " << result.cache_hits << " cache hits"
            << (result.complete ? "" : " (INCOMPLETE)") << "\n";
  if (!result.results_path.empty()) {
    std::cout << "results: " << result.results_path << "\n";
  }
  std::cout << "CSV: scheduler,f,U,accept_without,accept_with\n";
  for (const campaign::CellOutcome& outcome : result.cells) {
    if (!outcome.completed) continue;
    std::cout << campaign::to_string(outcome.cell.scheduler) << ","
              << outcome.cell.failure_prob << ","
              << outcome.cell.utilization << ","
              << outcome.ratio_without() << "," << outcome.ratio_with()
              << "\n";
  }
}

/// Spawns one worker process speaking to 127.0.0.1:port; the child
/// re-execs this binary's `worker` command, so coordinator and workers
/// provably run the same code. Returns -1 on fork failure.
[[nodiscard]] pid_t spawn_worker(std::uint16_t port, int index,
                                 const CliOptions& opt) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  const std::string endpoint = "127.0.0.1:" + std::to_string(port);
  const std::string threads = std::to_string(opt.runner.threads);
  const std::string name = "w" + std::to_string(index);
  execl("/proc/self/exe", "ftmc_campaign", "worker", "--connect",
        endpoint.c_str(), "--threads", threads.c_str(), "--name",
        name.c_str(), static_cast<char*>(nullptr));
  // exec only returns on failure; _exit keeps the child out of the
  // parent's atexit/stream state.
  _exit(127);
}

int cmd_worker(const CliOptions& opt) {
  obs::Registry::global().enable();

  fleet::WorkerOptions options = opt.worker;
  options.host = opt.connect.host;
  options.port = opt.connect.port;
  // 0 is run's default, handed on by --fleet: one thread per lease.
  if (options.threads == 0) options.threads = 1;
  const fleet::WorkerReport report = fleet::run_worker(options);
  // One write(2) for the whole line: `run --fleet N` forks N workers onto
  // one stderr, and a line written piece by piece interleaves with theirs.
  std::ostringstream line;
  line << "worker " << options.name << ": " << report.cells_computed
       << " cells over " << report.leases << " leases in "
       << report.wall_seconds << " s\n";
  const std::string text = line.str();
  [[maybe_unused]] const ssize_t written =
      ::write(STDERR_FILENO, text.data(), text.size());
  return 0;
}

/// `coordinate` (workers connect on their own) and `run --fleet N` (N
/// forked local workers): one coordinator either way.
int cmd_fleet(const CliOptions& opt, int argc, char** argv) {
  // `run` shares these flags with the in-process runner; the fleet's
  // cells run in other processes, so it rejects them rather than
  // ignoring them.
  const std::pair<bool, const char*> runner_only[] = {
      {opt.runner.max_cells > 0, "--max-cells"},
      {opt.progress, "--progress"},
      {opt.stats, "--stats"},
      {!opt.trace_out.empty(), "--trace-out"}};
  for (const auto& [given, flag] : runner_only) {
    if (given) {
      std::cerr << "ftmc_campaign: " << flag
                << " is not read by run --fleet\n";
      return 2;
    }
  }
  // Enabled before the ledger opens, so its campaign.* counts are kept.
  obs::Registry::global().enable();
  fleet::CoordinatorOptions coordinator = opt.coordinator;
  coordinator.dir = opt.dir;
  fleet::CoordinatorService service(campaign::load_spec_file(opt.spec_path),
                                    coordinator, opt.listener);
  obs::BenchReport report("fleet", argc, argv);
  if (opt.fleet == 0) {
    std::cout << "listening on 127.0.0.1:" << service.port() << std::endl;
    if (!opt.port_file.empty()) {
      write_file_atomic(opt.port_file, std::to_string(service.port()) + "\n");
    }
  }

  std::vector<pid_t> workers;
  for (int k = 0; k < opt.fleet; ++k) {
    const pid_t pid = spawn_worker(service.port(), k, opt);
    if (pid < 0) {
      std::cerr << "ftmc_campaign: fork failed\n";
      service.stop();
      break;
    }
    workers.push_back(pid);
  }

  const auto serve_start = std::chrono::steady_clock::now();
  const campaign::CampaignResult result = service.serve();
  const double serve_seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   serve_start)
                                   .count();

  bool workers_ok = workers.size() == static_cast<std::size_t>(opt.fleet);
  for (const pid_t pid : workers) {
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      workers_ok = false;
    }
  }
  if (!workers_ok) std::cerr << "ftmc_campaign: worker failure\n";

  fleet::report_result(report, result, serve_seconds);
  report.write();
  print_summary(result);
  if (!result.complete) return 3;
  return workers_ok ? 0 : 1;
}

int cmd_run_or_resume(const CliOptions& opt, bool run) {
  obs::Registry::global().enable();
  campaign::RunnerOptions runner = opt.runner;
  runner.dir = opt.dir;
  if (opt.progress) runner.progress = obs::stderr_progress("campaign");
  obs::SpanRecorder::global().enable(!opt.trace_out.empty());

  const campaign::CampaignResult result =
      run ? campaign::run_campaign(campaign::load_spec_file(opt.spec_path),
                                   runner)
          : campaign::resume_campaign(opt.dir, runner);

  if (!opt.trace_out.empty()) {
    std::ofstream trace(opt.trace_out);
    obs::SpanRecorder::global().write_chrome_trace(trace);
    std::cerr << "trace: " << opt.trace_out << "\n";
  }
  if (opt.stats) std::cerr << exec::phase_summary(obs::Registry::global());
  print_summary(result);
  return result.complete ? 0 : 3;
}

int cmd_expand(const CliOptions& opt) {
  const campaign::CampaignSpec spec =
      campaign::load_spec_file(opt.spec_path);
  const std::vector<campaign::CellSpec> cells =
      campaign::expand_cells(spec);
  std::cout << "campaign " << spec.name << ": " << cells.size()
            << " cells\n";
  std::cout << "CSV: index,hash,scheduler,f,U,seed\n";
  for (const campaign::CellSpec& cell : cells) {
    std::cout << cell.index << "," << campaign::cell_hash(cell) << ","
              << campaign::to_string(cell.scheduler) << ","
              << cell.failure_prob << "," << cell.utilization << ","
              << cell.seed << "\n";
  }
  return 0;
}

int cmd_print(const CliOptions& opt) {
  // Dogfoods the ftmc::io JSON parser on the runner's own output.
  const io::json::Value doc = io::json::parse(
      campaign::read_file(opt.dir + "/results.json"));
  std::cout << "campaign "
            << doc.at("spec").at("name").as_string() << ", "
            << doc.at("cells_total").as_uint64() << " cells\n";
  std::cout << "CSV: scheduler,f,U,accept_without,accept_with\n";
  // Default ostream precision: matches the table the runner prints
  // (0.1, not the 17-digit form stored in results.json).
  for (const io::json::Value& cell : doc.at("cells").items()) {
    std::cout << cell.at("scheduler").as_string() << ","
              << cell.at("failure_prob").as_number() << ","
              << cell.at("utilization").as_number() << ","
              << cell.at("ratio_without").as_number() << ","
              << cell.at("ratio_with").as_number() << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  const std::vector<cli::Command> table = commands(opt);
  std::size_t chosen = 0;
  if (const auto code = cli::parse(table, argc, argv, chosen)) return *code;
  const std::string& command = table[chosen].name;
  try {
    if (command == "expand") return cmd_expand(opt);
    if (command == "print") return cmd_print(opt);
    if (command == "worker") return cmd_worker(opt);
    if (command == "coordinate" || opt.fleet > 0) {
      return cmd_fleet(opt, argc, argv);
    }
    return cmd_run_or_resume(opt, command == "run");
  } catch (const io::ParseError& e) {
    std::cerr << "ftmc_campaign: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "ftmc_campaign: " << e.what() << "\n";
    return 1;
  }
}
