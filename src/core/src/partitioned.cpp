#include "ftmc/core/partitioned.hpp"

#include <algorithm>
#include <numeric>

#include "ftmc/mcs/edf.hpp"

namespace ftmc::core {

FtTaskSet make_subset(const FtTaskSet& ts,
                      const std::vector<std::size_t>& indices) {
  std::vector<FtTask> tasks;
  tasks.reserve(indices.size());
  for (const std::size_t i : indices) {
    FTMC_EXPECTS(i < ts.size(), "subset index out of range");
    tasks.push_back(ts[i]);
  }
  return FtTaskSet(std::move(tasks), ts.mapping());
}

namespace {

/// Per-core FT-S with externally fixed (global) re-execution profiles:
/// choose the maximal schedulable adaptation profile (line 8) and
/// evaluate this core's contribution to the system pfh(LO).
FtsResult schedule_core(const FtTaskSet& core_tasks, int n_hi, int n_lo,
                        const FtsConfig& cfg,
                        const mcs::SchedulabilityTest& test) {
  FtsResult r;
  r.n_hi = n_hi;
  r.n_lo = n_lo;
  r.scheduler_name = test.name();
  if (core_tasks.empty()) {
    r.success = true;
    r.n_adapt = n_hi;
    return r;
  }

  FtMechanism mech = FtMechanism::reexecution(core_tasks, cfg.exec);
  r.feasible_without_adaptation = mcs::EdfWorstCaseTest{}.schedulable(
      convert_to_mc(mech.at(n_hi, n_lo, n_hi)));
  r.n2_hi = max_schedulable_threshold(mech, n_hi, n_lo, test, cfg.adaptation,
                                      cfg.use_closed_form_umc);
  if (!r.n2_hi) {
    r.failure = FtsFailure::kUnschedulable;
    return r;
  }
  r.success = true;
  r.n_adapt = *r.n2_hi;
  const RoundModel chosen = mech.at(n_hi, n_lo, r.n_adapt);
  r.converted = convert_to_mc(chosen);
  r.u_mc = umc_closed_form(core_tasks.utilization(CritLevel::HI),
                           core_tasks.utilization(CritLevel::LO), n_hi, n_lo,
                           r.n_adapt, cfg.adaptation.kind,
                           cfg.adaptation.degradation_factor);
  r.pfh_hi = pfh_plain(chosen, CritLevel::HI);
  r.pfh_lo = pfh_lo_under_adaptation(chosen, cfg.adaptation);
  return r;
}

}  // namespace

PartitionedResult ft_schedule_partitioned(const FtTaskSet& ts,
                                          const PartitionedConfig& config) {
  ts.validate();
  FTMC_EXPECTS(config.cores >= 1, "need at least one core");
  const FtsConfig& cfg = config.fts;

  PartitionedResult result;
  result.assignment.assign(ts.size(), -1);

  // --- Global minimal re-execution profiles (the per-level PFH bounds of
  // Eq. (2) are per-task sums, so they are core-independent).
  const auto n_hi = min_reexec_profile(ts, CritLevel::HI, cfg.requirements,
                                       cfg.exec);
  if (!n_hi) {
    result.failure = FtsFailure::kHiSafetyInfeasible;
    return result;
  }
  const auto n_lo = min_reexec_profile(ts, CritLevel::LO, cfg.requirements,
                                       cfg.exec);
  if (!n_lo) {
    result.failure = FtsFailure::kLoSafetyInfeasible;
    return result;
  }
  result.n_hi = *n_hi;
  result.n_lo = *n_lo;

  // --- First-fit decreasing on the worst-case (re-executed) utilization.
  std::vector<std::size_t> order(ts.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto weight = [&](std::size_t i) {
    const int n = ts.crit_of(i) == CritLevel::HI ? result.n_hi : result.n_lo;
    return n * ts[i].utilization();
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return weight(a) > weight(b);
                   });
  std::vector<double> load(static_cast<std::size_t>(config.cores), 0.0);
  std::vector<std::vector<std::size_t>> bins(
      static_cast<std::size_t>(config.cores));
  for (const std::size_t i : order) {
    const double w = weight(i);
    bool placed = false;
    for (std::size_t c = 0; c < bins.size(); ++c) {
      // Capacity heuristic: worst-case utilization 1 per core. EDF-VD may
      // accept more than the worst case suggests; the per-core FT-S run
      // below gives the definitive answer, so an aggressive packing here
      // only risks a rejection that uniprocessor FT-S would also issue.
      if (load[c] + w <= 1.0 + 1e-12) {
        load[c] += w;
        bins[c].push_back(i);
        result.assignment[i] = static_cast<int>(c);
        placed = true;
        break;
      }
    }
    if (!placed) {
      // Fall back to the least-loaded core and let the per-core test
      // decide (it may still pass via the mode-switch slack).
      const auto min_it = std::min_element(load.begin(), load.end());
      const std::size_t c =
          static_cast<std::size_t>(min_it - load.begin());
      load[c] += w;
      bins[c].push_back(i);
      result.assignment[i] = static_cast<int>(c);
    }
  }

  // --- Per-core adaptation profiles + system-level safety.
  const mcs::SchedulabilityTestPtr test =
      resolve_test(cfg.test, cfg.adaptation);
  result.per_core.reserve(bins.size());
  bool all_cores_ok = true;
  double pfh_lo_total = 0.0;
  for (const auto& bin : bins) {
    const FtTaskSet core_tasks = make_subset(ts, bin);
    FtsResult r = schedule_core(core_tasks, result.n_hi, result.n_lo, cfg,
                                *test);
    all_cores_ok = all_cores_ok && r.success;
    pfh_lo_total += r.pfh_lo;
    result.per_core.push_back(std::move(r));
  }
  result.pfh_hi = pfh_plain(ts, uniform_profile(ts, result.n_hi,
                                                result.n_lo),
                            CritLevel::HI, cfg.exec);
  result.pfh_lo = pfh_lo_total;
  if (!all_cores_ok) {
    result.failure = FtsFailure::kUnschedulable;
    return result;
  }
  if (!cfg.requirements.satisfied(ts.mapping().lo, result.pfh_lo)) {
    result.failure = FtsFailure::kAdaptationUnsafe;
    return result;
  }
  result.success = true;
  return result;
}

}  // namespace ftmc::core
