#include "ftmc/fleet/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "ftmc/io/json.hpp"
#include "ftmc/io/parse_error.hpp"

namespace ftmc::fleet {

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

FleetMetrics FleetMetrics::global() {
  obs::Registry& reg = obs::Registry::global();
  return {reg.counter("fleet.leases_issued"),
          reg.counter("fleet.leases_expired"),
          reg.counter("fleet.leases_reissued"),
          reg.counter("fleet.results_total"),
          reg.counter("fleet.records_accepted"),
          reg.counter("fleet.records_duplicate"),
          reg.counter("fleet.records_rejected"),
          reg.counter("fleet.workers_connected"),
          reg.gauge("fleet.workers_active"),
          reg.histogram("fleet.merge_latency_us")};
}

Coordinator::Coordinator(campaign::CampaignSpec spec,
                         CoordinatorOptions options)
    : options_(std::move(options)), ledger_(std::move(spec), options_.dir) {
  const std::vector<std::size_t> pending = ledger_.pending();
  pending_.assign(pending.begin(), pending.end());
  finish_if_complete();
}

std::string Coordinator::handle(std::string_view payload) {
  const std::lock_guard<std::mutex> lock(mu_);
  return handle_locked(payload);
}

std::string Coordinator::handle_locked(std::string_view payload) {
  expire_leases();
  io::json::Value request;
  std::string type;
  try {
    request = io::json::parse(payload);
    type = request.at("type").as_string();
    if (type == "hello") return do_hello(request);
    if (type == "lease") return do_lease(request);
    if (type == "result") return do_result(request);
    if (type == "bye") return do_bye(request);
  } catch (const io::ParseError& e) {
    return error_response(e.what());
  }
  return error_response("unknown request type \"" + type + "\"");
}

std::string Coordinator::do_hello(const io::json::Value& request) {
  const std::string& protocol = request.at("protocol").as_string();
  if (protocol != kProtocolVersion) {
    return error_response("protocol mismatch: coordinator speaks " +
                          std::string(kProtocolVersion) + ", worker sent " +
                          protocol);
  }
  const std::string& worker = request.at("worker").as_string();
  if (active_workers_.insert(worker).second) {
    metrics_.workers_connected.inc();
    metrics_.workers_active.set(
        static_cast<double>(active_workers_.size()));
  }
  return io::json::Object{}
      .add_string("type", "welcome")
      .add_string("protocol", kProtocolVersion)
      .add_raw("spec", campaign::spec_to_json(ledger_.spec()))
      .add_int("cells_total", static_cast<long long>(ledger_.cells_total()))
      .add_int("lease_cells", static_cast<long long>(options_.lease_cells))
      .add_bool("complete", ledger_.complete())
      .str();
}

std::string Coordinator::do_lease(const io::json::Value& request) {
  const std::string& worker = request.at("worker").as_string();
  if (ledger_.complete()) {
    return io::json::Object{}
        .add_string("type", "done")
        .add_bool("complete", true)
        .str();
  }
  if (pending_.empty()) {
    // Everything outstanding is leased; the worker polls again and picks
    // up any lease that expires in the meantime.
    return io::json::Object{}
        .add_string("type", "drained")
        .add_bool("complete", false)
        .str();
  }

  Lease lease;
  lease.worker = worker;
  lease.deadline_ms = options_.now_ms() + options_.lease_ttl_ms;
  const std::size_t take =
      std::min(options_.lease_cells == 0 ? std::size_t{1}
                                         : options_.lease_cells,
               pending_.size());
  std::vector<std::string> indices;
  indices.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t index = pending_.front();
    pending_.pop_front();
    lease.indices.push_back(index);
    indices.push_back(std::to_string(index));
  }
  const std::uint64_t lease_id = next_lease_id_++;
  leases_.emplace(lease_id, std::move(lease));
  metrics_.leases_issued.inc();
  return io::json::Object{}
      .add_string("type", "lease")
      .add_int("lease_id", static_cast<long long>(lease_id))
      .add_raw("indices", io::json::array(indices))
      .add_bool("complete", false)
      .str();
}

std::string Coordinator::do_result(const io::json::Value& request) {
  const auto start = std::chrono::steady_clock::now();
  metrics_.results_total.inc();

  std::vector<ResultRecord> records = parse_result_records(request);
  std::size_t accepted = 0;
  std::size_t duplicates = 0;
  std::size_t rejected = 0;
  for (const ResultRecord& record : records) {
    switch (ledger_.fold(record.index, record.record)) {
      case campaign::FoldVerdict::kAccepted:
        ++accepted;
        metrics_.records_accepted.inc();
        break;
      case campaign::FoldVerdict::kDuplicate:
        ++duplicates;
        metrics_.records_duplicate.inc();
        break;
      case campaign::FoldVerdict::kRejected:
        ++rejected;
        metrics_.records_rejected.inc();
        break;
    }
  }

  // Retire the lease. Indices the records did not cover (a worker that
  // delivered partially, which the reference worker never does) go back
  // to pending rather than waiting for expiry.
  const std::uint64_t lease_id = request.at("lease_id").as_uint64();
  if (const auto it = leases_.find(lease_id); it != leases_.end()) {
    for (const std::size_t index : it->second.indices) {
      if (!ledger_.completed(index)) pending_.push_back(index);
    }
    leases_.erase(it);
  }

  finish_if_complete();
  metrics_.merge_latency_us.observe(
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
          std::chrono::steady_clock::now() - start)
          .count());
  return io::json::Object{}
      .add_string("type", "ack")
      .add_int("accepted", static_cast<long long>(accepted))
      .add_int("duplicates", static_cast<long long>(duplicates))
      .add_int("rejected", static_cast<long long>(rejected))
      .add_bool("complete", ledger_.complete())
      .str();
}

std::string Coordinator::do_bye(const io::json::Value& request) {
  const std::string& worker = request.at("worker").as_string();
  if (active_workers_.erase(worker) > 0) {
    metrics_.workers_active.set(
        static_cast<double>(active_workers_.size()));
  }
  // Per-worker telemetry lands as gauges in the coordinator's registry,
  // so one BENCH_fleet.json snapshot carries the whole fleet.
  const io::json::Value* cells = request.find("cells_computed");
  const io::json::Value* wall = request.find("wall_seconds");
  if (cells != nullptr && wall != nullptr) {
    obs::Registry& reg = obs::Registry::global();
    const double computed = static_cast<double>(cells->as_uint64());
    const double seconds = wall->as_number();
    reg.gauge("fleet.worker." + worker + ".cells_computed").set(computed);
    reg.gauge("fleet.worker." + worker + ".cells_per_sec")
        .set(seconds > 0.0 ? computed / seconds : 0.0);
  }
  return io::json::Object{}
      .add_string("type", "goodbye")
      .add_bool("complete", ledger_.complete())
      .str();
}

std::string Coordinator::error_response(std::string_view message) const {
  return io::json::Object{}
      .add_string("type", "error")
      .add_string("error", message)
      .add_bool("complete", ledger_.complete())
      .str();
}

void Coordinator::expire_leases() {
  const std::int64_t now = options_.now_ms();
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second.deadline_ms > now) {
      ++it;
      continue;
    }
    metrics_.leases_expired.inc();
    for (const std::size_t index : it->second.indices) {
      if (!ledger_.completed(index)) {
        // Front of the queue: reissued cells should not wait behind the
        // whole remaining grid a second time.
        pending_.push_front(index);
        metrics_.leases_reissued.inc();
      }
    }
    it = leases_.erase(it);
  }
}

void Coordinator::finish_if_complete() {
  if (completed_at_ms_ || !ledger_.complete()) return;
  completed_at_ms_ = options_.now_ms();
  ledger_.finish();
}

bool Coordinator::complete() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return completed_at_ms_.has_value();
}

std::optional<std::int64_t> Coordinator::completed_at_ms() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return completed_at_ms_;
}

std::size_t Coordinator::active_workers() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return active_workers_.size();
}

campaign::CampaignResult Coordinator::result() const {
  return ledger_.result();
}

}  // namespace ftmc::fleet
