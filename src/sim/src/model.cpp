#include "ftmc/sim/model.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ftmc/common/contracts.hpp"

namespace ftmc::sim {

std::vector<SimTask> build_sim_tasks(const core::FtTaskSet& ts,
                                     const core::PerTaskProfile& n,
                                     const core::PerTaskProfile& n_adapt,
                                     double virtual_deadline_factor) {
  ts.validate();
  FTMC_EXPECTS(n.size() == ts.size() && n_adapt.size() == ts.size(),
               "profile sizes must match task set");
  FTMC_EXPECTS(virtual_deadline_factor > 0.0 &&
                   virtual_deadline_factor <= 1.0,
               "virtual deadline factor must lie in (0, 1]");

  std::vector<SimTask> out;
  out.reserve(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const core::FtTask& src = ts[i];
    FTMC_EXPECTS(n[i] >= 1, "re-execution profile must be at least 1");
    SimTask dst;
    dst.name = src.name;
    dst.period = millis_to_ticks(src.period);
    dst.deadline = millis_to_ticks(src.deadline);
    dst.wcet = millis_to_ticks(src.wcet);
    dst.crit = ts.crit_of(i);
    dst.max_attempts = n[i];
    dst.adapt_threshold =
        dst.crit == CritLevel::HI ? n_adapt[i] : n[i];  // LO: never triggers
    FTMC_EXPECTS(dst.adapt_threshold >= 0,
                 "adaptation profile must be non-negative");
    dst.failure_prob = src.failure_prob;
    dst.virtual_deadline =
        dst.crit == CritLevel::HI
            ? millis_to_ticks(src.deadline * virtual_deadline_factor)
            : dst.deadline;
    out.push_back(std::move(dst));
  }

  // Deadline-monotonic priorities for kFixedPriority runs.
  std::vector<std::size_t> order(out.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&out](std::size_t a, std::size_t b) {
                     return out[a].deadline < out[b].deadline;
                   });
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    out[order[rank]].priority = static_cast<int>(rank);
  }
  return out;
}

std::vector<SimTask> build_sim_tasks(const core::FtTaskSet& ts, int n_hi,
                                     int n_lo, int n_adapt_hi,
                                     double virtual_deadline_factor) {
  return build_sim_tasks(ts, core::uniform_profile(ts, n_hi, n_lo),
                         core::uniform_profile(ts, n_adapt_hi, 0),
                         virtual_deadline_factor);
}

}  // namespace ftmc::sim
