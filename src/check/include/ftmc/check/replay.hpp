/// \file replay.hpp
/// \brief Differential trace replay: POSIX host vs. simulator host.
///
/// Both hosts run the same loop (`ftmc::rt::Driver`) over the same core
/// and derive all randomness from the same seeded mt19937_64, consumed in
/// the order the core fixes. A PosixHost run is therefore fully
/// determined by (tasks, config) — and replaying its loop inputs
/// (rt::run_config) through the simulator must yield the *identical*
/// event stream. A divergence means the two adapters around the loop —
/// their task and config mapping, their trace sinks, their clocks —
/// drifted apart.
///
/// This header is the shared implementation behind `ftmc_rtdemo --verify`
/// and the `trace-replay` property family of ftmc_check.
#pragma once

#include <string>
#include <vector>

#include "ftmc/check/property.hpp"
#include "ftmc/rt/posix_host.hpp"

namespace ftmc::check {

/// Result of a differential replay.
struct ReplayDiff {
  bool identical = false;
  std::size_t posix_events = 0;
  std::size_t sim_events = 0;
  /// Index of the first differing event (SIZE_MAX when identical).
  std::size_t first_divergence = SIZE_MAX;
  /// Human-readable description of the divergence; empty when identical.
  std::string message;
};

/// The simulator event stream equivalent to a PosixHost run of (tasks,
/// config): the simulator runs rt::run_config(config) — the whole core
/// configuration, seed and horizon, WCET execution, strictly periodic
/// arrivals from the synchronous instant — keeping config.trace_capacity
/// events. This is the reference stream both replay_through_sim and the
/// black-box replay compare against.
[[nodiscard]] std::vector<rt::Event> replay_sim_trace(
    const std::vector<rt::Task>& tasks, const rt::PosixHostConfig& config);

/// Replays a PosixHost configuration through the simulator
/// (replay_sim_trace) and compares the two event streams event by event.
[[nodiscard]] ReplayDiff replay_through_sim(
    const std::vector<rt::Task>& tasks, const rt::PosixHostConfig& config,
    const std::vector<rt::Event>& posix_trace);

/// "t=T kind task=I job=J detail=D": how replay messages name an event.
[[nodiscard]] std::string describe(const rt::Event& event);

/// The trace-replay property family (registered in all_properties()).
Outcome p_replay_adversary_killing(const Case& c, const PropertyContext& ctx);
Outcome p_replay_bernoulli_degradation(const Case& c,
                                       const PropertyContext& ctx);
Outcome p_replay_determinism(const Case& c, const PropertyContext& ctx);

}  // namespace ftmc::check
