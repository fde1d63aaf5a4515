#include "ftmc/rt/posix_host.hpp"

#include <time.h>

#include <algorithm>

#include "ftmc/common/contracts.hpp"

namespace ftmc::rt {

namespace {

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

RunConfig run_config(const PosixHostConfig& config) {
  RunConfig run;
  run.core = config.core;
  run.horizon = config.horizon;
  run.seed = config.seed;
  run.faults = config.fault_model;
  // A real-time host has no execution-time oracle: it budgets the WCET of
  // every segment, and releases synchronously and strictly periodically.
  run.exec_model = ExecTimeModel::kAlwaysWcet;
  run.random_phasing = false;
  run.sporadic_arrivals = false;
  return run;
}

/// The loop's clock: paced against CLOCK_MONOTONIC (free-running at
/// time_scale 0) and stopped by request_stop().
struct PosixHost::WallClock {
  PosixHost& host;
  void pace_to(Tick t) { host.pace_to(t); }
  [[nodiscard]] bool stop_requested() const noexcept {
    return host.stop_.load(std::memory_order_relaxed);
  }
};

PosixHost::PosixHost(std::vector<Task> tasks, const PosixHostConfig& config)
    : Driver(std::move(tasks), run_config(config)), config_(config) {
  FTMC_EXPECTS(config_.time_scale >= 0.0, "time scale must be non-negative");
  if (config_.trace_capacity > 0) {
    result_.trace.reserve(config_.trace_capacity);
  }
}

void PosixHost::emit(const Event& event) {
  if (result_.trace.size() < config_.trace_capacity) {
    result_.trace.push_back(event);
  }
}

void PosixHost::on_context_switch(std::uint32_t /*task*/,
                                  std::uint64_t /*job*/, Tick now) {
  ++result_.context_switches;
  if (config_.time_scale <= 0.0 ||
      result_.switch_lateness_us.size() >=
          result_.switch_lateness_us.capacity()) {
    return;
  }
  // How far behind the paced schedule the switch really happened: the
  // dispatch latency a deployed target would observe. Clamped at 0 — a
  // switch can only be late, never early, relative to its decision instant.
  const std::int64_t target_ns =
      wall_start_ns_ + static_cast<std::int64_t>(
                           config_.time_scale * static_cast<double>(now) * 1e3);
  result_.switch_lateness_us.push_back(
      std::max<std::int64_t>(0, (monotonic_ns() - target_ns) / 1000));
}

void PosixHost::pace_to(Tick t) {
  if (config_.time_scale <= 0.0) return;
  const std::int64_t target_ns =
      wall_start_ns_ +
      static_cast<std::int64_t>(config_.time_scale *
                                static_cast<double>(t) * 1e3);
  timespec target{};
  target.tv_sec = target_ns / 1'000'000'000;
  target.tv_nsec = target_ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &target, nullptr) !=
         0) {
    // EINTR: resume the absolute sleep.
  }
  const std::int64_t lateness_ns = monotonic_ns() - target_ns;
  if (lateness_ns / 1000 > result_.max_wall_lateness_us) {
    result_.max_wall_lateness_us = lateness_ns / 1000;
  }
}

PosixResult PosixHost::run() {
  if (config_.time_scale > 0.0) {
    // All sample storage up front: on_context_switch must not allocate.
    result_.switch_lateness_us.reserve(kMaxSwitchSamples);
  }
  wall_start_ns_ = monotonic_ns();
  WallClock clock{*this};
  result_.stats = Driver::run(clock);
  result_.wall_seconds =
      static_cast<double>(monotonic_ns() - wall_start_ns_) / 1e9;
  core().black_box().copy_to(result_.blackbox);
  result_.blackbox_total = core().black_box().total();
  result_.blackbox_admissions = core().black_box_admissions();
  return result_;
}

}  // namespace ftmc::rt
