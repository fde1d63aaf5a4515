/// \file server.hpp
/// \brief The ftmc_serve request engine: admission-control analysis as
///        a service.
///
/// The paper's FT-S analysis answers "can this fault-tolerant task set
/// be admitted, and at what re-execution profile?"; this engine serves
/// that question over batches. One request carries N independent
/// queries; the server shards them across ftmc::exec, answers through a
/// content-hashed answer cache (the campaign cell-cache design —
/// cache.hpp), and exposes ftmc::obs metrics.
///
/// Determinism contract (tested): the "results" array of an analyze
/// response is a pure function of the request — bit-identical to serial
/// local analysis for every thread count, batch order and cache state.
/// Only the response's `cache_hits` field reflects server state.
///
/// Transport-agnostic: handle() maps one request document to one
/// response document. The TCP listener (tcp.hpp) and the --stdin
/// one-shot mode are thin byte pumps around it. handle() is
/// thread-safe — concurrent connections may call it simultaneously.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "ftmc/campaign/cache.hpp"
#include "ftmc/net/frame.hpp"
#include "ftmc/obs/registry.hpp"

namespace ftmc::io::json {
class Value;
}  // namespace ftmc::io::json

namespace ftmc::serve {

/// Knobs of one server instance.
struct ServerOptions {
  /// Worker threads per analyze batch (exec convention: 1 = serial,
  /// <= 0 = one per hardware thread). Never affects answers.
  int threads = 1;
  /// Answer-cache capacity in entries; 0 = unbounded. A full cache
  /// declines new entries (answers are then recomputed, never wrong).
  std::size_t cache_entries = 1u << 16;
  /// Frame payload ceiling for the transports (see ftmc/net/frame.hpp).
  std::size_t max_frame_bytes = net::kDefaultMaxFrameBytes;
};

/// Metric handles of the serve layer (registered in
/// obs::Registry::global(); see docs/serving.md for the catalog).
struct ServeMetrics {
  obs::Counter requests_total;
  obs::Counter queries_total;
  obs::Counter cache_hits;
  obs::Counter cache_misses;
  obs::Counter request_errors;
  obs::Counter query_errors;
  obs::Histogram query_latency_us;
  /// Per-query-type latency (serve.latency_us.<kind>): the operator view
  /// of where analysis time goes; query_latency_us stays the aggregate.
  obs::Histogram latency_fts_us;
  obs::Histogram latency_sweep_us;
  obs::Histogram latency_sensitivity_us;
  obs::Histogram latency_admit_us;
  obs::Gauge cache_entries;

  [[nodiscard]] static ServeMetrics global();
};

/// The request engine. See docs/serving.md for the JSON schema:
///   {"type":"ping"}                 -> {"type":"pong",...}
///   {"type":"metrics"}              -> {"type":"metrics","metrics":{...}}
///   {"type":"expose"}               -> {"type":"expose","content_type":
///                                       ...,"body":"<Prometheus text>"}
///   {"type":"shutdown"}             -> {"type":"bye",...} (+ shutdown flag)
///   {"type":"analyze","queries":[...]}
///     -> {"type":"result","trace_id":T,"count":N,"cache_hits":H,
///         "results":[...]}
///
/// End-to-end tracing: every request may carry a "trace_id" string; the
/// server echoes it (or a synthesized "t-<n>") as the `trace_id` field of
/// every response, right after "type" — never inside the results array,
/// which stays a pure function of the request (the determinism
/// contract). Each request is parsed once and covered by RAII spans
/// (request/parse/lookup/analyze/respond) on a lane of its own, recorded
/// while obs::SpanRecorder::global() is enabled (`ftmc_serve
/// --trace-out`).
class Server {
 public:
  explicit Server(ServerOptions options = {});
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Maps one request document to one response document. Never throws
  /// on bad input: malformed requests answer {"type":"error",...},
  /// malformed queries answer {"ok":false,...} in their result slot.
  [[nodiscard]] std::string handle(std::string_view request_json);

  /// True once a {"type":"shutdown"} request was handled; transports
  /// poll this to stop accepting.
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }

  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }

 private:
  [[nodiscard]] std::string handle_analyze(const io::json::Value& request,
                                           const std::string& trace_id);

  ServerOptions options_;
  campaign::HashCache<std::string> cache_;
  ServeMetrics metrics_;
  std::atomic<std::uint64_t> trace_seq_{0};
  std::atomic<bool> shutdown_{false};
};

}  // namespace ftmc::serve
