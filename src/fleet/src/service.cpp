#include "ftmc/fleet/service.hpp"

namespace ftmc::fleet {

namespace {

[[nodiscard]] net::FramedServerOptions fleet_net_options(
    net::FramedServerOptions options) {
  options.metrics_prefix = "fleet";
  return options;
}

}  // namespace

CoordinatorService::CoordinatorService(campaign::CampaignSpec spec,
                                       CoordinatorOptions coordinator_options,
                                       ServiceOptions service_options)
    : coordinator_(std::move(spec), coordinator_options),
      server_(
          [this](std::string_view payload) {
            return coordinator_.handle(payload);
          },
          fleet_net_options(service_options.net),
          [this, now = coordinator_options.now_ms,
           linger = service_options.linger_ms] {
            if (!coordinator_.complete()) return false;
            if (coordinator_.active_workers() == 0) return true;
            const std::optional<std::int64_t> at =
                coordinator_.completed_at_ms();
            return at.has_value() && now() - *at >= linger;
          }) {}

campaign::CampaignResult CoordinatorService::serve() {
  server_.serve();
  return coordinator_.result();
}

void report_result(obs::BenchReport& report,
                   const campaign::CampaignResult& result,
                   double serve_seconds) {
  report.set_items_measured(static_cast<double>(result.cells_run),
                            serve_seconds, "cells");
  report.note_number("cells_total", static_cast<double>(result.cells_total));
  report.note_number("cache_hits", static_cast<double>(result.cache_hits));
  report.note_bool("complete", result.complete);
}

}  // namespace ftmc::fleet
