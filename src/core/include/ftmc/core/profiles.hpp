/// \file profiles.hpp
/// \brief Search for re-execution and adaptation profiles.
///
/// Implements the infimum/supremum searches of Algorithm 1 once, over an
/// FtMechanism (round_model.hpp), for re-execution and checkpointing:
///  - line 2: minimal per-level budgets meeting plain safety (Eq. 2),
///  - line 4: minimal threshold keeping the LO level safe (Eq. 5 / 7),
///  - line 8: maximal threshold whose converted set is schedulable.
/// The PFH bounds improve with larger budgets and thresholds, so lines 2
/// and 4 scan upward; schedulability worsens with larger thresholds
/// (Theorem 4.1 proof), so line 8 scans downward.
#pragma once

#include <optional>

#include "ftmc/core/analysis.hpp"
#include "ftmc/core/safety.hpp"
#include "ftmc/mcs/schedulability.hpp"

namespace ftmc::core {

/// Upper bound for profile searches; a profile beyond this means the task
/// set cannot be made safe with any practical amount of re-execution
/// (f^64 underflows everything measurable long before this).
inline constexpr int kMaxProfile = 64;

/// Minimal uniform re-execution profile for the tasks at `level` such that
/// the plain PFH bound (Eq. 2) meets the level's requirement:
///   n_level = inf{ n : pfh(level) satisfied }.
/// Returns nullopt if no n <= kMaxProfile suffices (e.g. a single job
/// already arrives more often than the PFH budget allows even with f = 0
/// impossible — in practice: f too large / requirement too strict).
/// Unconstrained levels (DO-178B D/E) yield 1: a single execution, no
/// re-execution needed.
[[nodiscard]] std::optional<int> min_reexec_profile(
    const FtTaskSet& ts, CritLevel level, const SafetyRequirements& reqs,
    ExecAssumption exec = ExecAssumption::kFullWcet);

/// Which adaptation mechanism the LO bound should be computed for.
struct AdaptationModel {
  mcs::AdaptationKind kind = mcs::AdaptationKind::kKilling;
  double degradation_factor = 2.0;  ///< d_f; only used for kDegradation
  double os_hours = 1.0;            ///< operation duration O_S
};

/// Minimal adaptation profile n1_HI (Algorithm 1, line 4):
///   n1_HI = inf{ n' in [0, n_HI - 1] : pfh(LO) < PFH_LO }
/// under killing (Eq. 5) or degradation (Eq. 7). Returns:
///  - 0 immediately if the LO level is unconstrained (killing a level D/E
///    task "does not jeopardize the system safety", Example 3.1);
///  - nullopt if even n' = n_HI - 1 violates the LO requirement, i.e. the
///    FAILURE branch of Algorithm 1 line 5-7.
[[nodiscard]] std::optional<int> min_adaptation_profile(
    const FtTaskSet& ts, int n_hi, int n_lo, const SafetyRequirements& reqs,
    const AdaptationModel& model,
    ExecAssumption exec = ExecAssumption::kFullWcet);

/// Evaluates the LO-level PFH bound for a given uniform adaptation profile
/// under the model (dispatches Eq. 5 vs Eq. 7). kNone returns the plain
/// bound (Eq. 2). Exposed for the Fig. 1/2 sweeps.
[[nodiscard]] double pfh_lo_under_adaptation(
    const FtTaskSet& ts, int n_hi, int n_lo, int n_adapt_hi,
    const AdaptationModel& model,
    ExecAssumption exec = ExecAssumption::kFullWcet,
    double early_exit_above = 0.0);

/// The one dispatch of the LO bound: Eq. (5) under killing, Eq. (7) under
/// degradation, Eq. (2) without adaptation; `early_exit_above` as in
/// KillingBoundOptions.
[[nodiscard]] double pfh_lo_under_adaptation(const RoundModel& rounds,
                                             const AdaptationModel& model,
                                             double early_exit_above = 0.0);

/// Line 2 under any mechanism (min_reexec_profile is the re-execution
/// instance): budgets from mech.min_budget() up to kMaxProfile.
[[nodiscard]] std::optional<int> min_budget(FtMechanism& mech,
                                            CritLevel level,
                                            const SafetyRequirements& reqs);

/// Line 4 under any mechanism (min_adaptation_profile is the
/// re-execution instance): thresholds below mech.never_fires(b_hi).
[[nodiscard]] std::optional<int> min_threshold(FtMechanism& mech, int b_hi,
                                               int b_lo,
                                               const SafetyRequirements& reqs,
                                               const AdaptationModel& model);

/// Line 8: the largest threshold in [0, mech.never_fires(b_hi)] whose
/// converted set `test` accepts. With `closed_form` (re-execution only),
/// an implicit-deadline set under killing or degradation is decided by
/// umc_closed_form(...) <= 1 instead (Algorithm 2 line 11 / Eq. (11)).
[[nodiscard]] std::optional<int> max_schedulable_threshold(
    FtMechanism& mech, int b_hi, int b_lo,
    const mcs::SchedulabilityTest& test, const AdaptationModel& model,
    bool closed_form);

}  // namespace ftmc::core
