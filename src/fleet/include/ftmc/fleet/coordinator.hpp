/// \file coordinator.hpp
/// \brief The fleet coordinator: hands out cell leases to workers and
///        folds their results into the campaign ledger
///        (ftmc/campaign/ledger.hpp), which owns the campaign directory.
///
/// The coordinator is a transport-free request/response engine, exactly
/// like serve::Server: handle() maps one ftmc-fleet-v1 request document
/// to one response document, and the TCP layer (service.hpp) is a thin
/// byte pump around it. That keeps every protocol decision — lease
/// expiry, idempotent merging, completion — unit-testable with a fake
/// clock and no sockets.
///
/// Lease lifecycle:
///   pending --lease--> leased --result--> completed
///                        |                    ^
///                        +----- expiry -------+--- (reissued to the
///                               (ttl)              next lease request)
///
/// Expiry is checked lazily on every handle() call against the injected
/// clock, so a worker that was kill -9'd mid-lease delays the campaign
/// by at most lease_ttl_ms past the next incoming request. A result
/// arriving *after* its lease expired (slow worker, not dead) is still
/// folded — records are idempotent, so the race between a reissue and a
/// late delivery is harmless by construction; whoever lands second just
/// scores duplicates.
///
/// Determinism: the ledger finishes the directory canonically, so
/// journal.jsonl and results.json are byte-identical to a single-process
/// run_campaign of the same spec, for any worker count and any lease
/// interleaving. That is the tested headline invariant of the fleet
/// subsystem.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "ftmc/campaign/ledger.hpp"
#include "ftmc/campaign/spec.hpp"
#include "ftmc/fleet/protocol.hpp"
#include "ftmc/obs/registry.hpp"

namespace ftmc::fleet {

/// Milliseconds from an arbitrary epoch; only differences matter.
using ClockFn = std::function<std::int64_t()>;

/// Monotonic process clock (std::chrono::steady_clock), the default.
[[nodiscard]] std::int64_t steady_now_ms();

struct CoordinatorOptions {
  /// Campaign directory (spec echo, journal, results). Empty runs fully
  /// in memory — used by the merge property tests.
  std::string dir;
  /// Cells per lease. Small leases spread load and shrink the
  /// crash-replay window; large leases amortize round trips.
  std::size_t lease_cells = 8;
  /// A lease not answered within this budget is considered lost and its
  /// cells are reissued. Late answers still merge (idempotence).
  std::int64_t lease_ttl_ms = 30000;
  /// Injectable clock for deterministic expiry tests.
  ClockFn now_ms = steady_now_ms;
};

/// fleet.* metric handles (obs::Registry::global()).
struct FleetMetrics {
  obs::Counter leases_issued;
  obs::Counter leases_expired;
  obs::Counter leases_reissued;  ///< cells handed out again after expiry
  obs::Counter results_total;    ///< result messages processed
  obs::Counter records_accepted;
  obs::Counter records_duplicate;
  obs::Counter records_rejected;  ///< hash/index mismatches (bug or skew)
  obs::Counter workers_connected;
  obs::Gauge workers_active;
  obs::Histogram merge_latency_us;  ///< handle() time for result messages

  [[nodiscard]] static FleetMetrics global();
};

/// See file comment. Thread-safe: handle() serializes internally, so the
/// TCP layer may call it from any number of connection threads.
class Coordinator {
 public:
  /// Opens the campaign ledger over `options.dir` (same resume
  /// semantics as campaign::run_campaign). Throws ftmc::io::ParseError
  /// on invalid specs and std::runtime_error on filesystem failures.
  Coordinator(campaign::CampaignSpec spec, CoordinatorOptions options);

  /// One ftmc-fleet-v1 request in, one response out. Never throws on bad
  /// input — malformed or unknown requests get {"type":"error",...}.
  [[nodiscard]] std::string handle(std::string_view payload);

  /// True once every cell has a result (the ledger has finished).
  [[nodiscard]] bool complete() const;
  /// Clock reading at the moment the campaign completed.
  [[nodiscard]] std::optional<std::int64_t> completed_at_ms() const;
  /// Workers that said hello and have not yet said bye.
  [[nodiscard]] std::size_t active_workers() const;

  /// The merged campaign outcome (valid once complete() is true; the
  /// same value a single-process run_campaign would return).
  [[nodiscard]] campaign::CampaignResult result() const;

 private:
  struct Lease {
    std::vector<std::size_t> indices;
    std::string worker;
    std::int64_t deadline_ms = 0;
  };

  [[nodiscard]] std::string handle_locked(std::string_view payload);
  [[nodiscard]] std::string do_hello(const io::json::Value& request);
  [[nodiscard]] std::string do_lease(const io::json::Value& request);
  [[nodiscard]] std::string do_result(const io::json::Value& request);
  [[nodiscard]] std::string do_bye(const io::json::Value& request);
  [[nodiscard]] std::string error_response(std::string_view message) const;

  /// Returns the cells of every overdue lease to the pending queue.
  void expire_leases();
  /// Finishes the ledger, once, when every cell has a result.
  void finish_if_complete();

  CoordinatorOptions options_;
  campaign::Ledger ledger_;
  FleetMetrics metrics_ = FleetMetrics::global();

  mutable std::mutex mu_;
  std::deque<std::size_t> pending_;  ///< without a result, not leased
  std::map<std::uint64_t, Lease> leases_;
  std::uint64_t next_lease_id_ = 1;
  std::set<std::string> active_workers_;
  std::optional<std::int64_t> completed_at_ms_;
};

}  // namespace ftmc::fleet
