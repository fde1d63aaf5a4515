/// \file serve_throughput.cpp
/// \brief Load generator for the ftmc_serve admission-control daemon.
///
/// Measures batch-analysis throughput three ways:
///  1. in-process cold: a fresh Server, every query computed;
///  2. in-process warm: the same Server re-asked the same batch, every
///     query answered from the content-hashed cache;
///  3. loopback TCP: a TcpServer thread plus client connections pushing
///     framed requests (skipped with --no-tcp, e.g. sandboxes without
///     sockets).
///
/// With --connect HOST:PORT the TCP phase drives an EXTERNAL daemon
/// instead (the CI smoke job's mode); --shutdown-after then sends
/// {"type":"shutdown"} once done so the job can assert a clean exit.
///
/// Telemetry: BENCH_serve_throughput.json with items = total queries
/// answered (so items_per_sec is the headline), plus cold_qps, warm_qps
/// and tcp_qps notes. The warm/cold ratio is the cache's measured win;
/// CI asserts warm_qps > cold_qps.
#include <chrono>
#include <climits>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "ftmc/common/cli.hpp"
#include "ftmc/io/json.hpp"
#include "ftmc/net/socket.hpp"
#include "ftmc/obs/bench_report.hpp"
#include "ftmc/serve/server.hpp"
#include "ftmc/serve/tcp.hpp"
#include "ftmc/taskgen/generator.hpp"

namespace {

using namespace ftmc;

struct Options {
  int queries = 64;        ///< task sets per batch
  int rounds = 4;          ///< warm rounds (cold is always one round)
  int threads = 0;         ///< server worker threads (0 = all)
  int clients = 4;         ///< concurrent TCP client connections
  bool no_tcp = false;     ///< skip the loopback TCP phase
  bool shutdown_after = false;
  bool progress = false;   ///< accepted like the other benches; no effect
  cli::Endpoint connect;   ///< an external daemon (empty host: none)
};

[[nodiscard]] cli::Command flags(Options& opt) {
  return {
      .program = "serve_throughput",
      .flags = {
          cli::integer("--queries", opt.queries, 1, INT_MAX,
                       "task sets per batch (default 64)"),
          cli::integer("--rounds", opt.rounds, 1, INT_MAX,
                       "warm rounds (default 4)"),
          cli::integer("--threads", opt.threads, INT_MIN, INT_MAX,
                       "server worker threads (0 = all; default 0)"),
          cli::integer("--clients", opt.clients, 1, INT_MAX,
                       "concurrent TCP client connections (default 4)"),
          cli::toggle("--no-tcp", opt.no_tcp, "skip the loopback TCP phase"),
          cli::endpoint("--connect", opt.connect,
                        "drive an external daemon in the TCP phase"),
          cli::toggle("--shutdown-after", opt.shutdown_after,
                      "send {\"type\":\"shutdown\"} once done"),
          cli::toggle("--progress", opt.progress, "accepted; no effect"),
      }};
}

/// One analyze request carrying `n` random Appendix-C task sets. The
/// seed stream is fixed, so every phase asks the same questions.
[[nodiscard]] std::string make_request(int n) {
  taskgen::GeneratorParams params;
  std::vector<std::string> queries;
  queries.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Mix utilizations so some sets are infeasible (error-free either
    // way: infeasible answers are still {"ok":true} FT-S results).
    params.target_utilization = 0.3 + 0.1 * (i % 5);
    taskgen::Rng rng(20140601u + static_cast<std::uint64_t>(i));
    const core::FtTaskSet ts = taskgen::generate_task_set(params, rng);
    queries.push_back(io::json::Object{}
                          .add_string("query", "fts")
                          .add_string("scheduler", "edf_vd_killing")
                          .add_raw("task_set", io::task_set_to_json(ts))
                          .str());
  }
  return io::json::Object{}
      .add_string("type", "analyze")
      .add_raw("queries", io::json::array(queries))
      .str();
}

[[nodiscard]] double seconds_since(
    std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

/// Answered-query count of a {"type":"result"} response; exits on error
/// responses so a broken server fails the bench loudly.
[[nodiscard]] int result_count(const std::string& response) {
  const io::json::Value doc = io::json::parse(response);
  if (doc.at("type").as_string() != "result") {
    std::cerr << "serve_throughput: server error: " << response << "\n";
    std::exit(1);
  }
  return static_cast<int>(doc.at("count").as_uint64());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (const auto code = cli::parse(flags(opt), argc, argv)) return *code;
  obs::BenchReport report("serve_throughput", argc, argv);
  const std::string request = make_request(opt.queries);
  double total_queries = 0.0;

  // Phase 1+2: in-process engine, cold then warm (cache on).
  serve::ServerOptions server_options;
  server_options.threads = opt.threads;
  serve::Server server(server_options);

  auto t0 = std::chrono::steady_clock::now();
  int answered = result_count(server.handle(request));
  const double cold_seconds = seconds_since(t0);
  const double cold_qps = answered / cold_seconds;
  total_queries += answered;

  t0 = std::chrono::steady_clock::now();
  int warm_answered = 0;
  for (int round = 0; round < opt.rounds; ++round) {
    warm_answered += result_count(server.handle(request));
  }
  const double warm_seconds = seconds_since(t0);
  const double warm_qps = warm_answered / warm_seconds;
  total_queries += warm_answered;

  std::cout << "in-process: cold " << cold_qps << " q/s, warm (cached) "
            << warm_qps << " q/s over " << opt.rounds << " rounds\n";
  report.note_number("cold_qps", cold_qps);
  report.note_number("warm_qps", warm_qps);
  report.note_number("queries_per_batch", opt.queries);

  // Phase 3: framed TCP — loopback by default, an external daemon with
  // --connect. Each client opens its own connection and pushes the same
  // batch; the server's answer cache is warm after the first round, so
  // this measures transport + dispatch more than raw analysis.
  double tcp_qps = 0.0;
  if (!opt.no_tcp) {
    std::string host = opt.connect.host;
    std::uint16_t port = opt.connect.port;
    serve::Server tcp_engine(server_options);
    std::unique_ptr<serve::TcpServer> listener;
    std::thread accept_thread;
    if (host.empty()) {
      host = "127.0.0.1";
      listener =
          std::make_unique<serve::TcpServer>(tcp_engine, serve::TcpOptions{});
      port = listener->port();
      accept_thread = std::thread([&] { listener->serve(); });
    }

    t0 = std::chrono::steady_clock::now();
    std::vector<int> answered_by(static_cast<std::size_t>(opt.clients), 0);
    std::vector<std::thread> clients;
    clients.reserve(static_cast<std::size_t>(opt.clients));
    for (int c = 0; c < opt.clients; ++c) {
      clients.emplace_back([&, c] {
        net::FramedClient client(host, port);
        for (int round = 0; round < opt.rounds; ++round) {
          answered_by[static_cast<std::size_t>(c)] +=
              result_count(client.call(request));
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const double tcp_seconds = seconds_since(t0);
    int tcp_answered = 0;
    for (const int n : answered_by) tcp_answered += n;
    tcp_qps = tcp_answered / tcp_seconds;
    total_queries += tcp_answered;
    std::cout << "tcp (" << opt.clients << " clients): " << tcp_qps
              << " q/s against " << host << ":" << port << "\n";
    report.note_number("tcp_qps", tcp_qps);
    report.note_number("tcp_clients", opt.clients);

    if (opt.shutdown_after) {
      net::FramedClient client(host, port);
      std::cout << "shutdown: " << client.call("{\"type\":\"shutdown\"}")
                << "\n";
    }
    if (listener) {
      listener->stop();
      accept_thread.join();
    }
  }

  report.set_items(total_queries, "queries");
  report.note_number("cache_speedup", warm_qps / cold_qps);
  std::cout << "total queries answered: " << total_queries
            << " (cache speedup " << warm_qps / cold_qps << "x)\n";
  return 0;
}
