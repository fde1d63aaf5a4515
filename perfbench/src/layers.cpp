#include "layers.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "ftmc/core/analysis.hpp"
#include "ftmc/core/conversion.hpp"
#include "ftmc/core/profiles.hpp"
#include "ftmc/mcs/edf.hpp"

namespace perfbench {

namespace {

[[nodiscard]] double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Median over cells of run_cell's time minus its replayed generate and
/// ft_schedule calls (the spans of one cell share its operation id). The
/// median, because a long cell's two passes differ by more than a short
/// cell's whole self time; 0 when no run_cell span was recorded.
[[nodiscard]] double cell_self_us(const Tracer& tracer) {
  const std::string run_cell = span::kRunCell, generate = span::kGenerate,
                    fts = span::kFts;
  struct Cell {
    bool run = false;
    double self_us = 0.0;
  };
  std::map<std::uint64_t, Cell> by_op;
  for (const SpanRecord& s : tracer.spans()) {
    const double us = static_cast<double>(s.end_ns - s.begin_ns) / 1000.0;
    if (run_cell == s.name) {
      by_op[s.op].run = true;
      by_op[s.op].self_us += us;
    } else if (generate == s.name || fts == s.name) {
      by_op[s.op].self_us -= us;
    }
  }
  std::vector<double> cells;
  for (const auto& [op, cell] : by_op) {
    if (cell.run) cells.push_back(cell.self_us);
  }
  return quantile(std::move(cells), 0.5);
}

}  // namespace

std::vector<Metric> layer_metrics(const Tracer& tracer,
                                  const LayerCounters& c) {
  const auto mean = [&tracer](const char* name) {
    return tracer.totals(name).mean_us();
  };
  const double ops = static_cast<double>(c.ops);
  const Tracer::Totals plain = tracer.totals(span::kPfhPlain);
  const Tracer::Totals killing = tracer.totals(span::kPfhKilling);
  const Tracer::Totals degradation = tracer.totals(span::kPfhDegradation);
  const double pfh_us = plain.us + killing.us + degradation.us;
  const double pfh_calls =
      static_cast<double>(plain.calls + killing.calls + degradation.calls);
  const double run_us = tracer.totals(span::kSimRun).us;
  const auto count = [&](std::uint64_t n) { return ratio(static_cast<double>(n), ops); };
  return {
      {"taskgen.gen_us", mean(span::kGenerate), "us"},
      {"core.fts_us", mean(span::kFts), "us"},
      {"core.pfh_us", ratio(pfh_us, pfh_calls), "us"},
      {"core.pfh_evals", ratio(pfh_calls, ops), "count"},
      {"core.convert_us", mean(span::kConvert), "us"},
      {"prob.pi_points",
       ratio(static_cast<double>(c.pi_points), static_cast<double>(c.killing_evals)),
       "count"},
      {"prob.ns_per_point",
       ratio(killing.us * 1000.0, static_cast<double>(c.pi_points)), "ns"},
      {"campaign.cell_self_us", cell_self_us(tracer), "us"},
      {"mcs.test_us", mean(span::kTest), "us"},
      {"mcs.test_calls", count(tracer.totals(span::kTest).calls), "count"},
      {"mcs.mc_dbf_us", mean(span::kMcDbf), "us"},
      {"mcs.edf_evals", count(c.edf_evals), "count"},
      {"mcs.sensitivity_us", mean(span::kSensitivity), "us"},
      {"mcs.sensitivity_probes", count(c.sensitivity_probes), "count"},
      {"sim.build_us", mean(span::kSimBuild), "us"},
      {"sim.run_us", mean(span::kSimRun), "us"},
      {"sim.jobs", count(c.sim_jobs), "count"},
      {"sim.attempts", count(c.sim_attempts), "count"},
      {"sim.preemptions", count(c.sim_preemptions), "count"},
      {"sim.mode_switches", count(c.sim_mode_switches), "count"},
      {"sim.kills", count(c.sim_kills), "count"},
      {"sim.ns_per_job", ratio(run_us * 1000.0, static_cast<double>(c.sim_jobs)), "ns"},
      {"rt.records", count(c.rt_records), "count"},
      {"rt.ns_per_record",
       ratio(run_us * 1000.0, static_cast<double>(c.rt_records)), "ns"},
      {"io.parse_us", ratio(tracer.totals(span::kParse).us, ops), "us"},
      {"io.render_us", ratio(tracer.totals(span::kRender).us, ops), "us"},
      {"io.bytes_in", count(c.bytes_in), "bytes"},
      {"io.bytes_out", count(c.bytes_out), "bytes"},
      {"serve.handle_us", mean(span::kHandle), "us"},
      {"serve.self_us",
       ratio(tracer.totals(span::kHandle).us - c.replayed_us, ops), "us"},
      {"serve.hit_ratio",
       ratio(static_cast<double>(c.cache_hits), static_cast<double>(c.cache_lookups)),
       "ratio"},
      {"net.frame_us", ratio(tracer.totals(span::kFrame).us, ops), "us"},
  };
}

void replay_ft_schedule(const ftmc::core::FtTaskSet& ts,
                        const ftmc::core::FtsConfig& cfg,
                        const ftmc::mcs::SchedulabilityTest* test,
                        const ftmc::core::FtsResult& own, Tracer* tracer,
                        LayerCounters& counters) {
  using ftmc::CritLevel;
  namespace core = ftmc::core;
  Span replay(tracer, span::kFtsReplay);
  const core::SafetyRequirements& reqs = cfg.requirements;

  // Algorithm 1 line 1-3, as core::min_reexec_profile scans it.
  const auto min_profile = [&](CritLevel level) -> std::optional<int> {
    const ftmc::Dal dal = ts.mapping().dal_of(level);
    if (!reqs.constrains(dal) || ts.count(level) == 0) return 1;
    core::PerTaskProfile profile(ts.size(), 0);
    for (int n = 1; n <= core::kMaxProfile; ++n) {
      std::fill(profile.begin(), profile.end(), n);
      double pfh = 0.0;
      {
        Span s(tracer, span::kPfhPlain);
        pfh = core::pfh_plain(ts, profile, level, cfg.exec);
      }
      if (reqs.satisfied(dal, pfh)) return n;
    }
    return std::nullopt;
  };
  const auto convert = [&](int n_hi, int n_lo, int n_adapt) {
    Span s(tracer, span::kConvert);
    return core::convert_to_mc(ts, n_hi, n_lo, n_adapt);
  };
  const auto pfh_lo = [&](int n_hi, int n_lo, int n_adapt, double early_exit) {
    const bool killing =
        cfg.adaptation.kind == ftmc::mcs::AdaptationKind::kKilling;
    if (killing) {
      ++counters.killing_evals;
      const double t = cfg.adaptation.os_hours * 3.6e6;
      for (std::size_t i = 0; i < ts.size(); ++i) {
        if (ts.crit_of(i) == CritLevel::LO) {
          counters.pi_points +=
              static_cast<std::uint64_t>(core::rounds(ts[i], n_lo, t, cfg.exec));
        }
      }
    }
    Span s(tracer, killing ? span::kPfhKilling : span::kPfhDegradation);
    return core::pfh_lo_under_adaptation(ts, n_hi, n_lo, n_adapt,
                                         cfg.adaptation, cfg.exec, early_exit);
  };

  core::FtsResult r;
  const auto compare = [&] {
    const bool same = r.success == own.success && r.failure == own.failure &&
                      r.n_hi == own.n_hi && r.n_lo == own.n_lo &&
                      r.n1_hi == own.n1_hi && r.n2_hi == own.n2_hi &&
                      r.n_adapt == own.n_adapt &&
                      r.feasible_without_adaptation ==
                          own.feasible_without_adaptation;
    if (!same) ++counters.replay_mismatches;
  };

  const std::optional<int> n_hi = min_profile(CritLevel::HI);
  if (!n_hi) {
    r.failure = core::FtsFailure::kHiSafetyInfeasible;
    return compare();
  }
  const std::optional<int> n_lo = min_profile(CritLevel::LO);
  if (!n_lo) {
    r.failure = core::FtsFailure::kLoSafetyInfeasible;
    return compare();
  }
  r.n_hi = *n_hi;
  r.n_lo = *n_lo;
  {
    Span s(tracer, span::kPfhPlain);
    r.pfh_hi = core::pfh_plain(ts, core::uniform_profile(ts, r.n_hi, r.n_lo),
                               CritLevel::HI, cfg.exec);
  }
  r.feasible_without_adaptation = ftmc::mcs::EdfWorstCaseTest{}.schedulable(
      convert(r.n_hi, r.n_lo, r.n_hi));
  if (cfg.prefer_no_adaptation && r.feasible_without_adaptation) {
    {
      Span s(tracer, span::kPfhPlain);
      r.pfh_lo = core::pfh_plain(ts, core::uniform_profile(ts, r.n_hi, r.n_lo),
                                 CritLevel::LO, cfg.exec);
    }
    (void)convert(r.n_hi, r.n_lo, r.n_hi);
    r.success = true;
    r.n_adapt = r.n_hi;
    return compare();
  }

  // Line 4-7, as core::min_adaptation_profile scans it.
  const ftmc::Dal lo_dal = ts.mapping().lo;
  if (!reqs.constrains(lo_dal) || ts.count(CritLevel::LO) == 0) {
    r.n1_hi = 0;
  } else {
    const double requirement = *reqs.requirement(lo_dal);
    for (int n = 0; n < r.n_hi; ++n) {
      if (pfh_lo(r.n_hi, r.n_lo, n, requirement) < requirement) {
        r.n1_hi = n;
        break;
      }
    }
  }
  if (!r.n1_hi) {
    r.failure = core::FtsFailure::kAdaptationUnsafe;
    return compare();
  }

  // Line 8: the largest schedulable adaptation profile.
  const bool closed_form = cfg.use_closed_form_umc &&
                           ts.all_implicit_deadlines() &&
                           cfg.adaptation.kind != ftmc::mcs::AdaptationKind::kNone;
  const double u_hi = ts.utilization(CritLevel::HI);
  const double u_lo = ts.utilization(CritLevel::LO);
  for (int n = r.n_hi; n >= 0 && !r.n2_hi; --n) {
    const bool ok =
        closed_form
            ? core::umc_closed_form(u_hi, u_lo, r.n_hi, r.n_lo, n,
                                    cfg.adaptation.kind,
                                    cfg.adaptation.degradation_factor) <= 1.0
            : test->schedulable(convert(r.n_hi, r.n_lo, n));
    if (ok) r.n2_hi = n;
  }
  if (!r.n2_hi || *r.n1_hi > *r.n2_hi) {
    r.failure = core::FtsFailure::kUnschedulable;
    return compare();
  }
  r.success = true;
  r.n_adapt = *r.n2_hi;
  (void)convert(r.n_hi, r.n_lo, r.n_adapt);
  r.pfh_lo = pfh_lo(r.n_hi, r.n_lo, r.n_adapt, 0.0);
  compare();
}

}  // namespace perfbench
