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

#include <climits>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "ftmc/campaign/journal.hpp"
#include "ftmc/campaign/runner.hpp"
#include "ftmc/campaign/spec.hpp"
#include "ftmc/common/expected.hpp"
#include "ftmc/common/parse.hpp"
#include "ftmc/exec/stats.hpp"
#include "ftmc/fleet/service.hpp"
#include "ftmc/fleet/worker.hpp"
#include "ftmc/io/json.hpp"
#include "ftmc/obs/progress.hpp"
#include "ftmc/obs/registry.hpp"
#include "ftmc/obs/span.hpp"

namespace {

using namespace ftmc;

constexpr const char* kUsage = R"(usage: ftmc_campaign <command> [options]

commands:
  run        --spec FILE [--out DIR]  expand and run a campaign spec
  resume     DIR                      continue the campaign persisted in DIR
  expand     --spec FILE              list cells and cache hashes (dry run)
  print      DIR                      render DIR/results.json as CSV
  coordinate --spec FILE --out DIR    serve the campaign to fleet workers
  worker     --connect HOST:PORT      lease and compute cells for a
                                      coordinator

options (run / resume):
  --threads N       worker threads (1 = serial, 0 = all hardware threads)
  --max-cells N     stop after N newly computed cells (crash drill)
  --progress        live progress meter on stderr
  --trace-out F     write a Chrome trace of the run to F
  --stats           print per-phase run counters on completion
  --fleet N         run: shard across N local worker processes instead of
                    in-process threads (results are byte-identical)

options (coordinate):
  --port P          TCP port (default 0 = ephemeral; the chosen endpoint
                    is printed as "listening on 127.0.0.1:PORT")
  --port-file F     also write the chosen port to F (atomic)
  --lease-cells K   cells per lease (default 8)
  --lease-ttl-ms T  reissue a lease not answered within T ms
                    (default 30000)
  --linger-ms L     after completion, wait up to L ms for workers to
                    collect their goodbye (default 2000)

options (worker):
  --threads N       threads per lease (default 1)
  --name S          worker name for telemetry (default "worker")
  --poll-ms N       wait between polls while the grid is drained
  --throttle-ms N   artificial per-cell delay (crash-drill pacing)

`ftmc_campaign --resume DIR` is accepted as an alias for `resume DIR`.
)";

struct CliOptions {
  std::string command;
  std::string spec_path;
  std::string dir;
  int threads = 0;  // CLI default: all hardware threads
  std::size_t max_cells = 0;
  bool progress = false;
  bool stats = false;
  std::string trace_out;
  // Fleet modes.
  int fleet = 0;
  int port = 0;
  std::string port_file;
  long long lease_cells = 8;
  long long lease_ttl_ms = 30000;
  long long linger_ms = 2000;
  std::string connect;
  std::string name = "worker";
  int poll_ms = 200;
  int throttle_ms = 0;
};

[[nodiscard]] Expected<CliOptions> parse_cli(int argc, char** argv) {
  using Fail = Expected<CliOptions>;
  if (argc < 2) return Fail::failure(kUsage);
  CliOptions opt;
  int i = 1;
  const std::string first = argv[i];
  if (first == "--resume") {  // alias documented in the issue tracker
    opt.command = "resume";
    ++i;
  } else if (first == "run" || first == "resume" || first == "expand" ||
             first == "print" || first == "coordinate" ||
             first == "worker") {
    opt.command = first;
    ++i;
  } else if (first == "--help" || first == "-h") {
    opt.command = "help";
    return opt;
  } else {
    return Fail::failure("ftmc_campaign: unknown command \"" + first +
                         "\"\n" + kUsage);
  }

  // Integer-valued flags shared by the fleet modes: flag -> (slot, min).
  const auto int_flag = [&opt](const std::string& flag)
      -> std::pair<long long*, long long> {
    if (flag == "--fleet") return {nullptr, 0};  // handled inline (int)
    if (flag == "--lease-cells") return {&opt.lease_cells, 1};
    if (flag == "--lease-ttl-ms") return {&opt.lease_ttl_ms, 1};
    if (flag == "--linger-ms") return {&opt.linger_ms, 0};
    return {nullptr, 0};
  };

  for (; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> Expected<std::string> {
      if (i + 1 >= argc) {
        return Expected<std::string>::failure(
            "ftmc_campaign: " + flag + " expects a value");
      }
      return std::string(argv[++i]);
    };
    auto int_value = [&](long long min,
                         long long max) -> Expected<long long> {
      auto v = value();
      if (!v) return Expected<long long>::failure(v.error());
      auto n = parse_int(flag, *v, min, max);
      if (!n) {
        return Expected<long long>::failure("ftmc_campaign: " + n.error());
      }
      return n;
    };
    if (flag == "--spec") {
      auto v = value();
      if (!v) return Fail::failure(v.error());
      opt.spec_path = *v;
    } else if (flag == "--out") {
      auto v = value();
      if (!v) return Fail::failure(v.error());
      opt.dir = *v;
    } else if (flag == "--threads" || flag == "--port" ||
               flag == "--fleet" || flag == "--poll-ms" ||
               flag == "--throttle-ms") {
      auto n = int_value(flag == "--threads" ? INT_MIN : 0,
                         flag == "--port" ? 65535 : INT_MAX);
      if (!n) return Fail::failure(n.error());
      if (flag == "--threads") opt.threads = static_cast<int>(*n);
      else if (flag == "--port") opt.port = static_cast<int>(*n);
      else if (flag == "--fleet") opt.fleet = static_cast<int>(*n);
      else if (flag == "--poll-ms") opt.poll_ms = static_cast<int>(*n);
      else opt.throttle_ms = static_cast<int>(*n);
    } else if (long long* slot = int_flag(flag).first; slot != nullptr) {
      auto n = int_value(int_flag(flag).second, LLONG_MAX);
      if (!n) return Fail::failure(n.error());
      *slot = *n;
    } else if (flag == "--max-cells") {
      auto n = int_value(0, LLONG_MAX);
      if (!n) return Fail::failure(n.error());
      opt.max_cells = static_cast<std::size_t>(*n);
    } else if (flag == "--port-file") {
      auto v = value();
      if (!v) return Fail::failure(v.error());
      opt.port_file = *v;
    } else if (flag == "--connect") {
      auto v = value();
      if (!v) return Fail::failure(v.error());
      opt.connect = *v;
    } else if (flag == "--name") {
      auto v = value();
      if (!v) return Fail::failure(v.error());
      opt.name = *v;
    } else if (flag == "--progress") {
      opt.progress = true;
    } else if (flag == "--stats") {
      opt.stats = true;
    } else if (flag == "--trace-out") {
      auto v = value();
      if (!v) return Fail::failure(v.error());
      opt.trace_out = *v;
    } else if (flag[0] == '-') {
      return Fail::failure("ftmc_campaign: unknown flag \"" + flag +
                           "\"\n" + kUsage);
    } else if ((opt.command == "resume" || opt.command == "print") &&
               opt.dir.empty()) {
      opt.dir = flag;  // positional DIR
    } else {
      return Fail::failure("ftmc_campaign: unexpected argument \"" + flag +
                           "\"");
    }
  }

  if (opt.command == "run" || opt.command == "expand" ||
      opt.command == "coordinate") {
    if (opt.spec_path.empty()) {
      return Fail::failure("ftmc_campaign: " + opt.command +
                           " requires --spec FILE");
    }
  }
  if ((opt.command == "resume" || opt.command == "print") &&
      opt.dir.empty()) {
    return Fail::failure("ftmc_campaign: " + opt.command +
                         " requires a campaign DIR");
  }
  if (opt.command == "coordinate" && opt.dir.empty()) {
    return Fail::failure("ftmc_campaign: coordinate requires --out DIR");
  }
  if (opt.command == "worker" && opt.connect.empty()) {
    return Fail::failure(
        "ftmc_campaign: worker requires --connect HOST:PORT");
  }
  if (opt.fleet > 0 && opt.command != "run") {
    return Fail::failure("ftmc_campaign: --fleet only applies to run");
  }
  return opt;
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

[[nodiscard]] std::vector<std::string> argv_vector(int argc, char** argv) {
  return std::vector<std::string>(argv, argv + argc);
}

[[nodiscard]] fleet::CoordinatorOptions coordinator_options(
    const CliOptions& opt) {
  fleet::CoordinatorOptions options;
  options.dir = opt.dir;
  options.lease_cells = static_cast<std::size_t>(opt.lease_cells);
  options.lease_ttl_ms = opt.lease_ttl_ms;
  return options;
}

[[nodiscard]] fleet::ServiceOptions service_options(const CliOptions& opt) {
  fleet::ServiceOptions options;
  options.net.port = static_cast<std::uint16_t>(opt.port);
  options.linger_ms = opt.linger_ms;
  return options;
}

/// Spawns one worker process speaking to 127.0.0.1:port; the child
/// re-execs this binary's `worker` command, so coordinator and workers
/// provably run the same code. Returns -1 on fork failure.
[[nodiscard]] pid_t spawn_worker(std::uint16_t port, int index,
                                 const CliOptions& opt) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  const std::string endpoint = "127.0.0.1:" + std::to_string(port);
  const std::string threads = std::to_string(opt.threads);
  const std::string name = "w" + std::to_string(index);
  execl("/proc/self/exe", "ftmc_campaign", "worker", "--connect",
        endpoint.c_str(), "--threads", threads.c_str(), "--name",
        name.c_str(), static_cast<char*>(nullptr));
  // exec only returns on failure; _exit keeps the child out of the
  // parent's atexit/stream state.
  _exit(127);
}

int cmd_coordinate(const CliOptions& opt, int argc, char** argv) {
  obs::Registry::global().enable();
  fleet::CoordinatorService service(campaign::load_spec_file(opt.spec_path),
                                    coordinator_options(opt),
                                    service_options(opt));
  std::cout << "listening on 127.0.0.1:" << service.port() << std::endl;
  if (!opt.port_file.empty()) {
    campaign::write_file_atomic(opt.port_file,
                                std::to_string(service.port()) + "\n");
  }
  const campaign::CampaignResult result = service.serve();
  service.write_bench_report(argv_vector(argc, argv));
  print_summary(result);
  return result.complete ? 0 : 3;
}

int cmd_worker(const CliOptions& opt) {
  const std::size_t colon = opt.connect.rfind(':');
  if (colon == std::string::npos || colon + 1 >= opt.connect.size()) {
    std::cerr << "ftmc_campaign: --connect expects HOST:PORT, got \""
              << opt.connect << "\"\n";
    return 2;
  }
  const Expected<long long> port =
      parse_int("--connect", opt.connect.substr(colon + 1), 1, 65535);
  if (!port) {
    std::cerr << "ftmc_campaign: bad port in \"" << opt.connect << "\"\n";
    return 2;
  }
  obs::Registry::global().enable();

  fleet::WorkerOptions options;
  options.host = opt.connect.substr(0, colon);
  options.port = static_cast<std::uint16_t>(*port);
  options.threads = opt.threads == 0 ? 1 : opt.threads;
  options.name = opt.name;
  options.poll_ms = opt.poll_ms;
  options.throttle_ms = opt.throttle_ms;
  const fleet::WorkerReport report = fleet::run_worker(options);
  std::cerr << "worker " << options.name << ": " << report.cells_computed
            << " cells over " << report.leases << " leases in "
            << report.wall_seconds << " s\n";
  return 0;
}

int cmd_run_fleet(const CliOptions& opt, int argc, char** argv) {
  obs::Registry::global().enable();
  fleet::CoordinatorService service(campaign::load_spec_file(opt.spec_path),
                                    coordinator_options(opt),
                                    service_options(opt));

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

  const campaign::CampaignResult result = service.serve();

  bool workers_ok = !workers.empty();
  for (const pid_t pid : workers) {
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      workers_ok = false;
    }
  }
  if (!workers_ok) std::cerr << "ftmc_campaign: worker failure\n";

  service.write_bench_report(argv_vector(argc, argv));
  print_summary(result);
  if (!result.complete) return 3;
  return workers_ok ? 0 : 1;
}

int cmd_run_or_resume(const CliOptions& opt) {
  obs::Registry::global().enable();
  campaign::RunnerOptions runner;
  runner.threads = opt.threads;
  runner.dir = opt.dir;
  runner.max_cells = opt.max_cells;
  if (opt.progress) runner.progress = obs::stderr_progress("campaign");
  exec::RunStats stats;
  if (opt.stats) runner.stats = &stats;
  obs::SpanRecorder spans;
  if (!opt.trace_out.empty()) runner.spans = &spans;

  const campaign::CampaignResult result =
      opt.command == "resume"
          ? campaign::resume_campaign(opt.dir, runner)
          : campaign::run_campaign(
                campaign::load_spec_file(opt.spec_path), runner);

  if (!opt.trace_out.empty()) {
    std::ofstream trace(opt.trace_out);
    spans.write_chrome_trace(trace);
    std::cerr << "trace: " << opt.trace_out << "\n";
  }
  if (opt.stats) std::cerr << stats.summary();
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
  const Expected<CliOptions> parsed = parse_cli(argc, argv);
  if (!parsed) {
    std::cerr << parsed.error() << "\n";
    return 2;
  }
  const CliOptions& opt = *parsed;
  if (opt.command == "help") {
    std::cout << kUsage;
    return 0;
  }
  try {
    if (opt.command == "expand") return cmd_expand(opt);
    if (opt.command == "print") return cmd_print(opt);
    if (opt.command == "coordinate") return cmd_coordinate(opt, argc, argv);
    if (opt.command == "worker") return cmd_worker(opt);
    if (opt.command == "run" && opt.fleet > 0) {
      return cmd_run_fleet(opt, argc, argv);
    }
    return cmd_run_or_resume(opt);
  } catch (const io::ParseError& e) {
    std::cerr << "ftmc_campaign: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "ftmc_campaign: " << e.what() << "\n";
    return 1;
  }
}
