/// \file monte_carlo.hpp
/// \brief Monte-Carlo estimation of safety quantities with confidence
///        intervals, driven by the discrete-event simulator.
///
/// The analytical PFH expressions are upper *bounds*; this module
/// estimates the true quantities by repeated simulation of independent
/// missions and reports Wilson-score confidence intervals, so that bound
/// tightness can be quantified instead of eyeballed. Used by the
/// sim_validation bench and the integration tests.
#pragma once

#include <cstdint>

#include "ftmc/obs/progress.hpp"
#include "ftmc/obs/span.hpp"
#include "ftmc/sim/engine.hpp"

namespace ftmc::sim {

/// A binomial proportion with a Wilson-score interval.
struct BinomialEstimate {
  std::uint64_t successes = 0;
  std::uint64_t trials = 0;

  [[nodiscard]] double rate() const {
    return trials > 0 ? static_cast<double>(successes) /
                            static_cast<double>(trials)
                      : 0.0;
  }
  /// Wilson score bounds at `z` standard normal quantiles (1.96 ~ 95%).
  [[nodiscard]] double wilson_lower(double z = 1.96) const;
  [[nodiscard]] double wilson_upper(double z = 1.96) const;
};

/// Options for a Monte-Carlo campaign.
struct MonteCarloOptions {
  int missions = 200;               ///< independent simulated missions
  Tick mission_length = kTicksPerHour;
  /// Base seed. Mission i simulates with exec::derive_seed(seed, i), so
  /// campaigns with different base seeds use unrelated streams (a plain
  /// `seed + i` would correlate campaigns with adjacent seeds).
  std::uint64_t seed = 1;
  /// Worker threads for mission sharding: 1 = serial (default), <= 0 =
  /// one per hardware thread. The result is bit-identical for every
  /// value — per-mission accumulators are merged in mission order.
  int threads = 1;
  /// Optional span recorder: records one "mission" span per mission into
  /// per-worker lanes (see exec::ParallelOptions::spans).
  obs::SpanRecorder* spans = nullptr;
  /// Optional progress callback (done = missions finished), invoked from
  /// the calling thread only (see exec::ParallelOptions::progress).
  obs::ProgressFn progress;
};

/// Aggregated campaign results.
struct MonteCarloResult {
  /// Fraction of missions in which the mode switch fired at all
  /// (estimates the Lemma 3.2 trigger probability over one mission).
  BinomialEstimate trigger;
  /// Fraction of *jobs* at each level that failed in the temporal domain.
  BinomialEstimate job_failure_hi;
  BinomialEstimate job_failure_lo;
  /// Mean temporal-domain failures per hour, per level (the empirical
  /// counterpart of the PFH bounds).
  double pfh_hi = 0.0;
  double pfh_lo = 0.0;
  double simulated_hours = 0.0;
};

/// Runs `options.missions` independent simulations of the given task
/// system (same semantics as Simulator; config's horizon and seed are
/// overridden per mission) and aggregates. Missions are sharded over
/// `options.threads` workers; the aggregate is bit-identical to the
/// serial run for the same base seed (see docs/parallelism.md).
[[nodiscard]] MonteCarloResult monte_carlo_campaign(
    const std::vector<SimTask>& tasks, SimConfig config,
    const MonteCarloOptions& options);

}  // namespace ftmc::sim
