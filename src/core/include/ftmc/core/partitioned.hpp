/// \file partitioned.hpp
/// \brief Extension: partitioned multiprocessor FT-MC scheduling.
///
/// The paper is uniprocessor-only; this module lifts FT-S to m cores in
/// the standard partitioned way: tasks are statically assigned (first-fit
/// decreasing on their worst-case re-executed utilization) and each core
/// runs FT-EDF-VD independently. The safety argument composes:
///
///  - pfh(HI) is a per-task sum (Eq. 2) and does not care about cores;
///  - under killing/degradation, a mode switch on core c affects only the
///    LO tasks assigned to core c and is triggered only by core c's HI
///    tasks; Lemma 3.3/3.4 therefore apply per core, and the system-level
///    pfh(LO) is the sum of the per-core bounds;
///  - the LO requirement is checked against that sum — per-core
///    adaptation profiles are chosen maximal-schedulable (Algorithm 1
///    line 8 per core), which also maximizes safety per core.
/// The global profiles come from FT-S's line-2 search and each core runs
/// its line-8 scan and LO bound (profiles.hpp): one pipeline, per core.
#pragma once

#include "ftmc/core/ft_scheduler.hpp"

namespace ftmc::core {

/// Builds the sub-task-set of the given indices (mapping preserved).
[[nodiscard]] FtTaskSet make_subset(const FtTaskSet& ts,
                                    const std::vector<std::size_t>& indices);

/// Configuration of a partitioned run.
struct PartitionedConfig {
  int cores = 2;
  FtsConfig fts;  ///< per-core FT-S configuration (standard, adaptation)
};

/// Outcome of partitioned FT-S.
struct PartitionedResult {
  bool success = false;
  FtsFailure failure = FtsFailure::kNone;
  /// Task index -> core index; -1 if the packing failed for that task.
  std::vector<int> assignment;
  /// Chosen re-execution profiles (global, from the summed PFH bounds).
  int n_hi = 0;
  int n_lo = 0;
  /// Per-core FT-S outcomes, indexed by core (cores may be empty).
  std::vector<FtsResult> per_core;
  /// System-level bounds: per-task sums across all cores.
  double pfh_hi = 0.0;
  double pfh_lo = 0.0;
};

/// Partitioned FT-S: global minimal re-execution profiles, first-fit
/// decreasing packing on worst-case utilization, per-core adaptation
/// profiles, and a system-level LO safety check on the summed bounds.
[[nodiscard]] PartitionedResult ft_schedule_partitioned(
    const FtTaskSet& ts, const PartitionedConfig& config);

}  // namespace ftmc::core
