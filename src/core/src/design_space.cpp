#include "ftmc/core/design_space.hpp"

#include <cmath>
#include <limits>

#include "ftmc/exec/parallel.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/mcs/edf_vd_degradation.hpp"
#include "ftmc/obs/span.hpp"

namespace ftmc::core {
namespace {

/// U_MC of an accepted converted set under the matching EDF-VD test.
double umc_of(const mcs::McTaskSet& converted, mcs::AdaptationKind kind,
              double df) {
  if (!converted.all_implicit_deadlines()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (kind == mcs::AdaptationKind::kDegradation) {
    return mcs::analyze_edf_vd_degradation(converted, df).u_mc;
  }
  return mcs::analyze_edf_vd(converted).u_mc;
}

void score(DesignPoint& p, const SafetyRequirements& reqs, Dal lo_dal) {
  if (!p.certifiable) return;
  if (std::isnan(p.u_mc) || std::isnan(p.pfh_lo)) {
    // U_MC could not be priced (umc_of on a non-implicit-deadline
    // converted set). A NaN score would survive every domination check
    // by incomparability, so demote the point instead.
    p.certifiable = false;
    return;
  }
  p.service_quality = (p.kind == mcs::AdaptationKind::kDegradation)
                          ? 1.0 / p.degradation_factor
                          : 0.0;
  const auto req = reqs.requirement(lo_dal);
  if (!req) {
    p.safety_margin_orders = std::numeric_limits<double>::infinity();
  } else if (p.pfh_lo <= 0.0) {
    p.safety_margin_orders = std::numeric_limits<double>::infinity();
  } else {
    p.safety_margin_orders = std::log10(*req / p.pfh_lo);
  }
  p.schedulability_margin = 1.0 - p.u_mc;
}

DesignPoint evaluate(const FtTaskSet& ts, const DesignSpaceOptions& opt,
                     mcs::AdaptationKind kind, double df, int segments) {
  DesignPoint p;
  p.kind = kind;
  p.degradation_factor = df;
  p.segments = segments;
  p.overhead_fraction = segments > 1 ? opt.overhead_fraction : 0.0;

  const AdaptationModel adaptation{kind, df, opt.os_hours};
  if (segments == 1) {
    FtsConfig cfg;
    cfg.test = opt.test;
    cfg.requirements = opt.requirements;
    cfg.adaptation = adaptation;
    const FtsResult r = ft_schedule(ts, cfg);
    p.certifiable = r.success;
    if (r.success) {
      p.n_adapt = r.n_adapt;
      p.pfh_lo = r.pfh_lo;
      p.u_mc = r.u_mc;
    }
  } else {
    CkptFtsConfig cfg;
    cfg.test = opt.test;
    cfg.segments = segments;
    cfg.overhead_fraction = p.overhead_fraction;
    cfg.requirements = opt.requirements;
    cfg.adaptation = adaptation;
    const CkptFtsResult r = ft_schedule_checkpointed(ts, cfg);
    p.certifiable = r.success;
    if (r.success) {
      p.n_adapt = r.m_adapt;
      p.pfh_lo = r.pfh_lo;
      p.u_mc = umc_of(r.converted, kind, df);
    }
  }
  score(p, opt.requirements, ts.mapping().lo);
  return p;
}

}  // namespace

std::vector<DesignPoint> explore_design_space(
    const FtTaskSet& ts, const DesignSpaceOptions& options) {
  ts.validate();
  FTMC_EXPECTS(!options.segment_counts.empty(),
               "need at least one segment count");
  // Enumerate the grid up front (validating it serially), then evaluate
  // the independent points in parallel into index-addressed slots; the
  // returned order is the grid order regardless of thread count.
  struct Combo {
    mcs::AdaptationKind kind;
    double df;
    int segments;
  };
  std::vector<Combo> grid;
  for (const int k : options.segment_counts) {
    FTMC_EXPECTS(k >= 1, "segment counts must be positive");
    if (options.include_killing) {
      grid.push_back({mcs::AdaptationKind::kKilling, 1.0, k});
    }
    for (const double df : options.degradation_factors) {
      FTMC_EXPECTS(df > 1.0, "degradation factors must exceed 1");
      grid.push_back({mcs::AdaptationKind::kDegradation, df, k});
    }
  }

  std::vector<DesignPoint> points(grid.size());
  exec::ParallelOptions par;
  par.threads = options.threads;
  par.chunk_size = 1;  // points are few and individually heavy
  par.phase = "design_space";
  par.progress = options.progress;
  exec::parallel_for(grid.size(), par,
                     [&](std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         const Combo& c = grid[i];
                         obs::ScopedSpan span("design_point");
                         points[i] = evaluate(ts, options, c.kind, c.df,
                                              c.segments);
                       }
                     });
  return points;
}

std::vector<std::size_t> pareto_front(
    const std::vector<DesignPoint>& points) {
  // A NaN score compares false against everything, so a NaN point can
  // neither dominate nor be dominated; admit only fully-scored points.
  const auto scored = [](const DesignPoint& p) {
    return p.certifiable && !std::isnan(p.service_quality) &&
           !std::isnan(p.safety_margin_orders) &&
           !std::isnan(p.schedulability_margin);
  };
  const auto dominates = [](const DesignPoint& a, const DesignPoint& b) {
    const bool ge = a.service_quality >= b.service_quality &&
                    a.safety_margin_orders >= b.safety_margin_orders &&
                    a.schedulability_margin >= b.schedulability_margin;
    const bool gt = a.service_quality > b.service_quality ||
                    a.safety_margin_orders > b.safety_margin_orders ||
                    a.schedulability_margin > b.schedulability_margin;
    return ge && gt;
  };
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!scored(points[i])) continue;
    bool dominated = false;
    for (std::size_t j = 0; j < points.size() && !dominated; ++j) {
      dominated = j != i && scored(points[j]) &&
                  dominates(points[j], points[i]);
    }
    if (!dominated) front.push_back(i);
  }
  return front;
}

}  // namespace ftmc::core
