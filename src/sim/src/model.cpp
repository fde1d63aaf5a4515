#include "ftmc/sim/model.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numeric>
#include <optional>
#include <string>

#include "ftmc/common/contracts.hpp"

namespace ftmc::sim {

namespace {

/// `v` in shortest round-trip form (std::to_chars: no locale).
[[nodiscard]] std::string shortest(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// `ms` in ticks, with an error naming the task and the field: task
/// parameters may come from hostile input (a serve admit query), where
/// any finite positive time parses.
[[nodiscard]] Tick task_ticks(const core::FtTask& task, const char* field,
                              Millis ms) {
  const std::optional<Tick> ticks = try_millis_to_ticks(ms);
  FTMC_EXPECTS(ticks.has_value(),
               "task '" + task.name + "': " + field + " " + shortest(ms) +
                   " ms is outside the simulator's tick range [0, 2^63) us");
  return *ticks;
}

}  // namespace

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
    dst.period = task_ticks(src, "period", src.period);
    dst.deadline = task_ticks(src, "deadline", src.deadline);
    dst.wcet = task_ticks(src, "WCET", src.wcet);
    dst.crit = ts.crit_of(i);
    dst.max_attempts = n[i];
    dst.adapt_threshold =
        dst.crit == CritLevel::HI ? n_adapt[i] : n[i];  // LO: never triggers
    FTMC_EXPECTS(dst.adapt_threshold >= 0,
                 "adaptation profile must be non-negative");
    dst.failure_prob = src.failure_prob;
    dst.virtual_deadline =
        dst.crit == CritLevel::HI
            ? task_ticks(src, "virtual deadline",
                         src.deadline * virtual_deadline_factor)
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
