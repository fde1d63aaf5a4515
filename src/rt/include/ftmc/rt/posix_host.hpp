/// \file posix_host.hpp
/// \brief The runtime core's host loop on the wall clock: a POSIX process
///        executing the schedule in (scaled) real time.
///
/// PosixHost runs the one host loop (driver.hpp) on a clock paced against
/// CLOCK_MONOTONIC: every decision instant t is reached at
/// `start + time_scale * t` with clock_nanosleep(TIMER_ABSTIME).
/// Scheduling itself is driven by *logical* ticks — the wall clock only
/// paces, never decides — so a run is deterministic for a given (task
/// set, config, seed) and replays bit-identically through the simulator,
/// which runs the same loop on virtual time. That replay is the
/// `trace-replay` property family of ftmc::check (see docs/runtime.md).
///
/// With `time_scale == 0` the host free-runs (no sleeping): this is the
/// CI smoke mode, and also what the replay properties use.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "ftmc/rt/driver.hpp"

namespace ftmc::rt {

struct PosixHostConfig {
  /// Core policy configuration. Defaults keep the no-alloc contract
  /// (allow_job_growth = false): a real-time host must not allocate on
  /// the schedule path.
  CoreConfig core;
  Tick horizon = 1'000'000;  ///< logical ticks (us) to run, [0, horizon)
  /// Wall seconds per simulated second. 1.0 = real time, 0.001 = 1000x
  /// fast-forward, 0 = free-run without sleeping (CI smoke / replay).
  double time_scale = 0.0;
  std::uint64_t seed = 1;
  FaultModel fault_model = FaultModel::kBernoulli;
  /// Keep at most this many events (0 disables tracing).
  std::size_t trace_capacity = 1 << 20;
};

/// The loop inputs of a PosixHost run: the whole core configuration,
/// synchronous and strictly periodic arrivals, WCET execution. Replay
/// rebuilds a run from exactly this.
[[nodiscard]] RunConfig run_config(const PosixHostConfig& config);

/// Outcome of a PosixHost run: the event trace, the run statistics and
/// the host's time-domain measurements.
struct PosixResult {
  std::vector<Event> trace;
  RunStats stats;
  double wall_seconds = 0.0;       ///< wall-clock duration of the run
  /// Worst observed wall-clock drift behind the paced schedule (us);
  /// 0 in free-run mode. Pacing quality, not schedule correctness: the
  /// logical schedule is immune to drift by construction.
  std::int64_t max_wall_lateness_us = 0;
  /// Context switches the core reported (job-to-job and to-idle).
  std::uint64_t context_switches = 0;
  /// Wall-clock lateness behind the paced schedule at each context
  /// switch (us, clamped at 0); empty in free-run mode. Bounded to the
  /// first kMaxSwitchSamples switches.
  std::vector<std::int64_t> switch_lateness_us;
  /// The core's black box: surviving records (oldest first), the total
  /// ever recorded, and how many of them were admission verdicts. See
  /// blackbox_io.hpp for the dump format.
  std::vector<BlackBoxRecord> blackbox;
  std::uint64_t blackbox_total = 0;
  std::uint64_t blackbox_admissions = 0;
  /// True when request_stop() was called during the run, which may then
  /// have ended before its horizon: the trace and the black box are a
  /// prefix of the full schedule rather than all of it.
  bool stopped = false;
};

/// The POSIX host. Construct, run once, inspect the result.
class PosixHost final : private Driver {
 public:
  PosixHost(std::vector<Task> tasks, const PosixHostConfig& config);

  /// Drives the core over [0, horizon). May be called once per instance.
  PosixResult run();

  /// Asks a running run() to stop at the next decision instant. Async-
  /// signal-safe (a relaxed atomic store), so a SIGINT handler may call
  /// it; the truncated run still yields a consistent PosixResult whose
  /// trace and black box replay as a prefix of the full schedule.
  void request_stop() noexcept {
    stop_.store(true, std::memory_order_relaxed);
  }

  using Driver::tasks;

  /// Bound on PosixResult::switch_lateness_us samples kept per run.
  static constexpr std::size_t kMaxSwitchSamples = 1 << 16;

 private:
  struct WallClock;

  // Trace sink and context-switch hook (called by the core).
  void emit(const Event& event) override;
  void on_context_switch(std::uint32_t task, std::uint64_t job,
                         Tick now) override;

  void pace_to(Tick t);

  PosixHostConfig config_;
  std::atomic<bool> stop_{false};
  PosixResult result_;
  std::int64_t wall_start_ns_ = 0;
};

}  // namespace ftmc::rt
