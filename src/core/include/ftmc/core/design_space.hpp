/// \file design_space.hpp
/// \brief Design-space exploration over the deployment knobs.
///
/// The paper leaves four decisions to the designer: the adaptation
/// mechanism (kill vs degrade), the degradation factor d_f, and — with
/// the checkpointing extension — the segment count k and its overhead.
/// This module enumerates configurations, runs the full FT-S pipeline on
/// each, scores the survivors on three axes, and extracts the Pareto
/// front:
///   - service quality: what fraction of LO service survives a mode
///     switch (killing: 0; degradation: 1/d_f);
///   - safety margin: log10(requirement / pfh_LO) — how many orders of
///     magnitude the LO bound clears its target by;
///   - schedulability margin: 1 - U_MC of the accepted configuration.
#pragma once

#include "ftmc/core/ft_checkpoint.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/obs/progress.hpp"
#include "ftmc/obs/span.hpp"

namespace ftmc::core {

/// One explored configuration and its scores.
struct DesignPoint {
  mcs::AdaptationKind kind = mcs::AdaptationKind::kKilling;
  double degradation_factor = 1.0;  ///< meaningful for kDegradation
  int segments = 1;                 ///< 1 = the paper's re-execution
  double overhead_fraction = 0.0;

  bool certifiable = false;
  int n_adapt = 0;      ///< chosen adaptation / fault threshold
  double pfh_lo = 0.0;
  double u_mc = 0.0;

  // Scores (only meaningful when certifiable).
  double service_quality = 0.0;
  double safety_margin_orders = 0.0;
  double schedulability_margin = 0.0;
};

/// Exploration grid.
struct DesignSpaceOptions {
  SafetyRequirements requirements = SafetyRequirements::do178b();
  double os_hours = 1.0;
  std::vector<double> degradation_factors{2.0, 3.0, 6.0, 12.0};
  std::vector<int> segment_counts{1, 2, 4};
  double overhead_fraction = 0.0;
  bool include_killing = true;
  /// Optional schedulability test overriding the EDF-VD family default
  /// (mirrors FtsConfig::test / CkptFtsConfig::test).
  mcs::SchedulabilityTestPtr test;
  /// Worker threads for per-point evaluation: 1 = serial (default),
  /// <= 0 = one per hardware thread. Evaluation is deterministic, so the
  /// result does not depend on this value.
  int threads = 1;
  /// Optional span recorder: records one "design_point" span per grid
  /// point into per-worker lanes (see exec::ParallelOptions::spans).
  obs::SpanRecorder* spans = nullptr;
  /// Optional progress callback (done = grid points evaluated), invoked
  /// from the calling thread only (see exec::ParallelOptions::progress).
  obs::ProgressFn progress;
};

/// Runs FT-S (re-execution for segments == 1, the checkpointed pipeline
/// otherwise) for every (mechanism, d_f, k) combination and scores the
/// outcomes. Failed configurations are returned too (certifiable =
/// false) so callers can display the whole landscape.
[[nodiscard]] std::vector<DesignPoint> explore_design_space(
    const FtTaskSet& ts, const DesignSpaceOptions& options);

/// Indices of the Pareto-optimal certifiable points, maximizing
/// (service_quality, safety_margin_orders, schedulability_margin).
/// Dominated = another certifiable point is >= on all three axes and
/// strictly > on at least one. Points with any NaN score are excluded —
/// NaN compares false both ways, so such a point would otherwise ride
/// the front by incomparability.
[[nodiscard]] std::vector<std::size_t> pareto_front(
    const std::vector<DesignPoint>& points);

}  // namespace ftmc::core
