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
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>

#include "ftmc/common/cli.hpp"
#include "ftmc/obs/exposition.hpp"
#include "ftmc/obs/registry.hpp"
#include "ftmc/obs/span.hpp"
#include "ftmc/serve/expose.hpp"
#include "ftmc/serve/server.hpp"
#include "ftmc/serve/tcp.hpp"

namespace {

using namespace ftmc;

struct CliOptions {
  serve::ServerOptions server;
  serve::TcpOptions tcp;
  bool stdin_mode = false;
  bool obs_export = false;
  std::string trace_out;
};

[[nodiscard]] cli::Command flags(CliOptions& opt) {
  return {
      .program = "ftmc_serve",
      .flags = {
          cli::integer("--port", opt.tcp.port, 0, 65535,
                       "TCP port (default 0 = ephemeral; printed on start)"),
          cli::text("--bind", opt.tcp.bind_address, "ADDR",
                    "bind address (default 127.0.0.1)"),
          cli::integer("--threads", opt.server.threads, INT_MIN, INT_MAX,
                       "worker threads per batch (1 = serial, 0 = all)"),
          cli::integer("--cache-entries", opt.server.cache_entries, 0,
                       LLONG_MAX, "answer-cache capacity (0 = unbounded)"),
          cli::integer("--max-frame-bytes", opt.server.max_frame_bytes, 4,
                       LLONG_MAX, "frame payload ceiling (default 16 MiB)"),
          cli::toggle("--stdin", opt.stdin_mode,
                      "one-shot: read one request from stdin, answer on\n"
                      "stdout, exit (no sockets)"),
          cli::toggle("--obs-export", opt.obs_export,
                      "one-shot: read a JSON metrics snapshot from stdin,\n"
                      "print it as Prometheus text exposition, exit"),
          cli::text("--trace-out", opt.trace_out, "FILE",
                    "write the request spans as a Chrome trace on exit\n"
                    "(open in Perfetto; --stdin and TCP modes)"),
      }};
}

// Signal handlers may only touch this through async-signal-safe
// TcpServer::stop(); set before handlers are installed.
serve::TcpServer* g_listener = nullptr;

extern "C" void handle_stop_signal(int) {
  if (g_listener != nullptr) g_listener->stop();
}

/// Writes the recorded request spans to opt.trace_out (no-op when the
/// flag was not given). Called after the transports have drained.
void write_trace(const CliOptions& opt) {
  if (opt.trace_out.empty()) return;
  std::ofstream out(opt.trace_out);
  if (!out) {
    std::cerr << "ftmc_serve: cannot write trace to \"" << opt.trace_out
              << "\"\n";
    return;
  }
  const obs::SpanRecorder& spans = obs::SpanRecorder::global();
  spans.write_chrome_trace(out);
  std::cerr << "ftmc_serve: wrote " << spans.total_events() << " spans to "
            << opt.trace_out << "\n";
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
  write_trace(opt);
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
  write_trace(opt);
  std::cout << "ftmc_serve: shut down cleanly" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  if (const auto code = cli::parse(flags(opt), argc, argv)) return *code;
  obs::Registry::global().enable();
  obs::SpanRecorder::global().enable(!opt.trace_out.empty());
  try {
    if (opt.obs_export) return run_obs_export();
    return opt.stdin_mode ? run_stdin(opt) : run_tcp(opt);
  } catch (const std::exception& e) {
    std::cerr << "ftmc_serve: " << e.what() << "\n";
    return 1;
  }
}
