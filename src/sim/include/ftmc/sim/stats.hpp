/// \file stats.hpp
/// \brief Aggregated statistics of a simulation run.
#pragma once

#include "ftmc/rt/driver.hpp"

namespace ftmc::sim {

// The host loop's statistics under the simulator's historical names.
using TaskStats = rt::TaskCounters;
using SimStats = rt::RunStats;

}  // namespace ftmc::sim
