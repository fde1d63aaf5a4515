/// \file service.hpp
/// \brief The coordinator's network face: a net::FramedServer pumping
///        bytes into fleet::Coordinator, with a completion-aware stop
///        condition, and the fields of its BENCH_fleet.json report.
///
/// Stop condition: the listener drains once the campaign is complete
/// AND either every worker that said hello has said bye, or
/// `linger_ms` has passed since completion — so a worker that crashed
/// *after* the last result (and will never say bye) cannot hold the
/// coordinator open forever, while orderly workers always get their
/// goodbye.
#pragma once

#include <cstdint>

#include "ftmc/fleet/coordinator.hpp"
#include "ftmc/net/socket.hpp"
#include "ftmc/obs/bench_report.hpp"

namespace ftmc::fleet {

struct ServiceOptions {
  /// Listener knobs; metrics_prefix is forced to "fleet" so transport
  /// counters land beside the coordinator's fleet.* metrics.
  net::FramedServerOptions net;
  /// Grace period after completion for workers to collect their done /
  /// goodbye answers before the listener drains.
  std::int64_t linger_ms = 2000;
};

/// Owns a Coordinator and its listener. Single-use: construct, serve(),
/// read result().
class CoordinatorService {
 public:
  /// Binds immediately (throws std::runtime_error on failure); port()
  /// is valid right away — the pattern the CLI uses to print the
  /// endpoint before blocking in serve().
  CoordinatorService(campaign::CampaignSpec spec,
                     CoordinatorOptions coordinator_options,
                     ServiceOptions service_options = {});

  [[nodiscard]] std::uint16_t port() const noexcept {
    return server_.port();
  }

  /// Runs the accept loop until the stop condition holds (see file
  /// comment). Returns the merged campaign outcome.
  [[nodiscard]] campaign::CampaignResult serve();

  /// Cross-thread / signal-safe abort.
  void stop() noexcept { server_.stop(); }

 private:
  Coordinator coordinator_;
  net::FramedServer server_;
};

/// Fills a coordinator's BENCH_fleet.json from the outcome of serve():
/// the cells run over `serve_seconds` (items_per_sec is cells per second
/// of serving), and the notes cells_total, cache_hits and complete. The
/// metrics snapshot carries the coordinator's fleet.* and campaign.*
/// counters, per-worker gauges included.
void report_result(obs::BenchReport& report,
                   const campaign::CampaignResult& result,
                   double serve_seconds);

}  // namespace ftmc::fleet
