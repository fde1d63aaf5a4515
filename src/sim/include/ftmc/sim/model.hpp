/// \file model.hpp
/// \brief Runtime task model of the discrete-event simulator.
///
/// The simulator executes the *fault-tolerant* system directly: attempts,
/// sanity checks, re-execution, and the kill/degrade trigger on the
/// (n'+1)-th execution of a HI job. It is used to validate that the
/// analytical PFH bounds (Lemmas 3.1-3.4) and the EDF-VD schedulability
/// claims hold on concrete executions.
#pragma once

#include <string>
#include <vector>

#include "ftmc/common/criticality.hpp"
#include "ftmc/common/time.hpp"
#include "ftmc/core/ft_task.hpp"
#include "ftmc/mcs/schedulability.hpp"
#include "ftmc/rt/driver.hpp"

namespace ftmc::sim {

// The runtime vocabulary under the simulator's historical names.
using PolicyKind = rt::Policy;
using SimTask = rt::Task;
using ExecTimeModel = rt::ExecTimeModel;
using FaultAdversary = rt::FaultModel;

/// Builds the simulator task list from the analysis-level model:
/// re-execution profiles n, adaptation profiles n', and (for kEdfVd) the
/// virtual-deadline factor x obtained from analyze_edf_vd on the converted
/// set. Priorities are assigned deadline-monotonically.
[[nodiscard]] std::vector<SimTask> build_sim_tasks(
    const core::FtTaskSet& ts, const core::PerTaskProfile& n,
    const core::PerTaskProfile& n_adapt, double virtual_deadline_factor);

/// Convenience overload for uniform per-level profiles.
[[nodiscard]] std::vector<SimTask> build_sim_tasks(
    const core::FtTaskSet& ts, int n_hi, int n_lo, int n_adapt_hi,
    double virtual_deadline_factor);

}  // namespace ftmc::sim
