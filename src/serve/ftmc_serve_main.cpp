/// \file ftmc_serve_main.cpp
/// \brief The `ftmc_serve` daemon: FT-S admission-control analysis over
///        a length-prefixed TCP protocol (see docs/serving.md).
///
/// Three modes:
///  - default: bind a TCP listener, print "ftmc_serve: listening on
///    ADDR:PORT" (the line CI greps for) and serve until SIGINT/SIGTERM
///    or a {"type":"shutdown"} request;
///  - --stdin: read the whole of stdin as ONE request document, write
///    the response plus a newline to stdout and exit — no sockets, the
///    mode the tests and quick shell pipelines use;
///  - --obs-export: read a JSON registry snapshot (a BENCH_*.json file,
///    a {"type":"metrics"} response, or a bare snapshot) from stdin and
///    print it in Prometheus text exposition format.
///
/// Exit codes: 0 = clean shutdown, 2 = usage error, 1 = runtime failure.
#include <climits>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>

#include "ftmc/common/expected.hpp"
#include "ftmc/common/parse.hpp"
#include "ftmc/obs/exposition.hpp"
#include "ftmc/obs/registry.hpp"
#include "ftmc/serve/expose.hpp"
#include "ftmc/serve/server.hpp"
#include "ftmc/serve/tcp.hpp"

namespace {

using namespace ftmc;

constexpr const char* kUsage = R"(usage: ftmc_serve [options]

options:
  --port N             TCP port (default 0 = ephemeral; printed on start)
  --bind ADDR          bind address (default 127.0.0.1)
  --threads N          worker threads per batch (1 = serial, 0 = all)
  --cache-entries N    answer-cache capacity (0 = unbounded)
  --max-frame-bytes N  frame payload ceiling (default 16 MiB)
  --stdin              one-shot: read one request from stdin, answer on
                       stdout, exit (no sockets)
  --obs-export         one-shot: read a JSON metrics snapshot from stdin,
                       print it as Prometheus text exposition, exit
  --trace-out FILE     write the request spans as a Chrome trace on exit
                       (open in Perfetto; --stdin and TCP modes)
)";

struct CliOptions {
  serve::ServerOptions server;
  serve::TcpOptions tcp;
  bool stdin_mode = false;
  bool obs_export = false;
  std::string trace_out;
};

[[nodiscard]] Expected<CliOptions> parse_cli(int argc, char** argv) {
  using Fail = Expected<CliOptions>;
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> Expected<std::string> {
      if (i + 1 >= argc) {
        return Expected<std::string>::failure("ftmc_serve: " + flag +
                                              " expects a value");
      }
      return std::string(argv[++i]);
    };
    auto int_value = [&](long long min,
                         long long max) -> Expected<long long> {
      auto v = value();
      if (!v) return Expected<long long>::failure(v.error());
      auto n = parse_int(flag, *v, min, max);
      if (!n) return Expected<long long>::failure("ftmc_serve: " + n.error());
      return n;
    };
    if (flag == "--help" || flag == "-h") {
      std::cout << kUsage;
      std::exit(0);
    } else if (flag == "--stdin") {
      opt.stdin_mode = true;
    } else if (flag == "--obs-export") {
      opt.obs_export = true;
    } else if (flag == "--trace-out") {
      auto v = value();
      if (!v) return Fail::failure(v.error());
      opt.trace_out = *v;
    } else if (flag == "--port") {
      auto n = int_value(0, 65535);
      if (!n) return Fail::failure(n.error());
      opt.tcp.port = static_cast<std::uint16_t>(*n);
    } else if (flag == "--bind") {
      auto v = value();
      if (!v) return Fail::failure(v.error());
      opt.tcp.bind_address = *v;
    } else if (flag == "--threads") {
      auto n = int_value(INT_MIN, INT_MAX);
      if (!n) return Fail::failure(n.error());
      opt.server.threads = static_cast<int>(*n);
    } else if (flag == "--cache-entries") {
      auto n = int_value(0, LLONG_MAX);
      if (!n) return Fail::failure(n.error());
      opt.server.cache_entries = static_cast<std::size_t>(*n);
    } else if (flag == "--max-frame-bytes") {
      auto n = int_value(4, LLONG_MAX);
      if (!n) return Fail::failure(n.error());
      opt.server.max_frame_bytes = static_cast<std::size_t>(*n);
    } else {
      return Fail::failure("ftmc_serve: unknown flag \"" + flag + "\"\n" +
                           kUsage);
    }
  }
  return opt;
}

// Signal handlers may only touch this through async-signal-safe
// TcpServer::stop(); set before handlers are installed.
serve::TcpServer* g_listener = nullptr;

extern "C" void handle_stop_signal(int) {
  if (g_listener != nullptr) g_listener->stop();
}

/// Writes the server's request spans to opt.trace_out (no-op when the
/// flag was not given). Called after the transports have drained.
void write_trace(serve::Server& server, const CliOptions& opt) {
  if (opt.trace_out.empty()) return;
  std::ofstream out(opt.trace_out);
  if (!out) {
    std::cerr << "ftmc_serve: cannot write trace to \"" << opt.trace_out
              << "\"\n";
    return;
  }
  server.spans().write_chrome_trace(out);
  std::cerr << "ftmc_serve: wrote " << server.spans().total_events()
            << " spans to " << opt.trace_out << "\n";
}

int run_obs_export() {
  const std::string text(std::istreambuf_iterator<char>(std::cin),
                         std::istreambuf_iterator<char>{});
  const obs::Snapshot snapshot =
      serve::snapshot_from_json(io::json::parse(text));
  std::cout << obs::to_prometheus(snapshot);
  return 0;
}

int run_stdin(const CliOptions& opt) {
  serve::Server server(opt.server);
  const std::string request(std::istreambuf_iterator<char>(std::cin),
                            std::istreambuf_iterator<char>{});
  std::cout << server.handle(request) << "\n";
  write_trace(server, opt);
  return 0;
}

int run_tcp(const CliOptions& opt) {
  serve::Server server(opt.server);
  serve::TcpServer listener(server, opt.tcp);
  g_listener = &listener;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  // CI greps this exact line to learn the ephemeral port; flush so a
  // pipe sees it before the accept loop blocks.
  std::cout << "ftmc_serve: listening on " << opt.tcp.bind_address << ":"
            << listener.port() << std::endl;
  listener.serve();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_listener = nullptr;
  write_trace(server, opt);
  std::cout << "ftmc_serve: shut down cleanly" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Expected<CliOptions> parsed = parse_cli(argc, argv);
  if (!parsed) {
    std::cerr << parsed.error() << "\n";
    return 2;
  }
  obs::Registry::global().enable();
  try {
    if (parsed->obs_export) return run_obs_export();
    return parsed->stdin_mode ? run_stdin(*parsed) : run_tcp(*parsed);
  } catch (const std::exception& e) {
    std::cerr << "ftmc_serve: " << e.what() << "\n";
    return 1;
  }
}
