/// Golden FT-S outcomes: every entry point of the FT-S pipeline pinned
/// bit for bit.
///
/// Re-execution, checkpointing, partitioning, heterogeneous adaptation
/// profiles, the design-space grid and the Fig. 1/2 sweep all run
/// Algorithm 1 over the PFH bounds of Lemmas 3.1-3.4 and the conversion of
/// Lemma 4.1. These tests fold each outcome (every integer, every flag,
/// every double by its bit pattern, every converted task set and scheduler
/// name) into a 64-bit FNV-1a digest per task set and compare it with a
/// constant recorded before those entry points were moved onto one shared
/// implementation of the pipeline. A digest mismatch prints the label and
/// the digest it got, so a deliberate change to an outcome can re-record
/// it.
///
/// The generated sets come from taskgen, whose draws use libstdc++'s
/// std::mt19937_64 and its distributions, and the bounds from libm's exp,
/// log1p and lgamma; another standard library or libm needs new
/// constants.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "ftmc/core/design_space.hpp"
#include "ftmc/core/ft_checkpoint.hpp"
#include "ftmc/core/heterogeneous.hpp"
#include "ftmc/core/partitioned.hpp"
#include "ftmc/fms/fms.hpp"
#include "ftmc/mcs/mc_dbf.hpp"
#include "ftmc/taskgen/generator.hpp"

namespace ftmc::core {
namespace {

/// FNV-1a over the little-endian bytes of each 64-bit field.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(int v) {
    add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  void add(bool v) { add(static_cast<std::uint64_t>(v ? 1 : 0)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
  }
  void add(const std::optional<int>& v) {
    add(v.has_value());
    if (v) add(*v);
  }
  void add(FtsFailure f) { add(static_cast<int>(f)); }
  void add(const mcs::McTaskSet& ts) {
    add(static_cast<std::uint64_t>(ts.size()));
    for (const mcs::McTask& t : ts.tasks()) {
      add(t.name);
      add(t.period);
      add(t.deadline);
      add(t.wcet_lo);
      add(t.wcet_hi);
      add(static_cast<int>(t.crit));
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void expect_digest(const std::string& label, std::uint64_t got,
                   std::uint64_t want) {
  EXPECT_EQ(got, want) << label << ": recorded " << hex(got);
}

void add_result(Digest& d, const FtsResult& r) {
  d.add(r.success);
  d.add(r.failure);
  d.add(r.n_hi);
  d.add(r.n_lo);
  d.add(r.n1_hi);
  d.add(r.n2_hi);
  d.add(r.n_adapt);
  d.add(r.pfh_hi);
  d.add(r.pfh_lo);
  d.add(r.u_mc);
  d.add(r.feasible_without_adaptation);
  d.add(r.converted);
  d.add(r.scheduler_name);
}

void add_result(Digest& d, const CkptFtsResult& r) {
  d.add(r.success);
  d.add(r.failure);
  d.add(r.r_hi);
  d.add(r.r_lo);
  d.add(r.m1);
  d.add(r.m2);
  d.add(r.m_adapt);
  d.add(r.pfh_hi);
  d.add(r.pfh_lo);
  d.add(r.converted);
  d.add(r.scheduler_name);
}

FtTask make(const std::string& name, Millis t, Millis c, Dal dal, double f,
            double deadline_ratio) {
  return {name, t, deadline_ratio * t, c, dal, f};
}

/// Example 3.1 of the paper, with a chosen LO level, failure probability
/// and deadline ratio D/T.
FtTaskSet example31(Dal lo, double f, double deadline_ratio = 1.0) {
  return FtTaskSet({make("tau1", 60, 5, Dal::B, f, deadline_ratio),
                    make("tau2", 25, 4, Dal::B, f, deadline_ratio),
                    make("tau3", 40, 7, lo, f, deadline_ratio),
                    make("tau4", 90, 6, lo, f, deadline_ratio),
                    make("tau5", 70, 8, lo, f, deadline_ratio)},
                   {Dal::B, lo});
}

FtTaskSet generated(std::uint64_t seed, double u, double f, Dal lo) {
  taskgen::GeneratorParams p;
  p.target_utilization = u;
  p.failure_prob = f;
  p.mapping = {Dal::B, lo};
  taskgen::Rng rng(seed);
  return taskgen::generate_task_set(p, rng);
}

struct NamedSet {
  std::string label;
  FtTaskSet ts;
  /// Line 8's technique for sets EDF-VD cannot take (constrained
  /// deadlines); null selects the default test.
  mcs::SchedulabilityTestPtr killing_test;
};

std::vector<NamedSet> uniprocessor_sets() {
  const auto mc_dbf = std::make_shared<const mcs::McDbfTest>();
  return {
      {"ex31/D/1e-5", example31(Dal::D, 1e-5), nullptr},
      {"ex31/C/1e-3", example31(Dal::C, 1e-3), nullptr},
      {"ex31/C/1e-5/D=0.8T", example31(Dal::C, 1e-5, 0.8), mc_dbf},
      {"gen7/0.3/C", generated(7, 0.3, 1e-5, Dal::C), nullptr},
      {"gen11/0.5/D", generated(11, 0.5, 1e-5, Dal::D), nullptr},
      {"gen13/0.7/C/1e-3", generated(13, 0.7, 1e-3, Dal::C), nullptr},
  };
}

constexpr mcs::AdaptationKind kKinds[] = {mcs::AdaptationKind::kKilling,
                                          mcs::AdaptationKind::kDegradation,
                                          mcs::AdaptationKind::kNone};

/// Whether `kind` can run on `set`: constrained-deadline sets only under
/// killing with their MC-DBF test (the EDF-VD family needs implicit
/// deadlines).
bool runs(const NamedSet& set, mcs::AdaptationKind kind) {
  return set.ts.all_implicit_deadlines() ||
         kind == mcs::AdaptationKind::kKilling;
}

TEST(GoldenFts, Reexecution) {
  const std::vector<std::uint64_t> want = {
      0x9f9c5be97a915645ULL, 0xe70b45b9b0c01285ULL, 0xbfd0fd2ec75be8a5ULL,
      0x2ab10c82d06f6699ULL, 0x94124aac67ec72c1ULL, 0x53aea6aa30fe91e5ULL,
  };
  const std::vector<NamedSet> sets = uniprocessor_sets();
  ASSERT_EQ(sets.size(), want.size());
  for (std::size_t s = 0; s < sets.size(); ++s) {
    Digest d;
    for (const mcs::AdaptationKind kind : kKinds) {
      if (!runs(sets[s], kind)) continue;
      for (const bool closed_form : {true, false}) {
        for (const bool prefer : {false, true}) {
          for (const double os : {1.0, 10.0}) {
            for (const ExecAssumption exec :
                 {ExecAssumption::kFullWcet, ExecAssumption::kZero}) {
              FtsConfig cfg;
              cfg.adaptation.kind = kind;
              cfg.adaptation.degradation_factor = 6.0;
              cfg.adaptation.os_hours = os;
              cfg.test = sets[s].killing_test;
              cfg.use_closed_form_umc = closed_form;
              cfg.prefer_no_adaptation = prefer;
              cfg.exec = exec;
              add_result(d, ft_schedule(sets[s].ts, cfg));
            }
          }
        }
      }
    }
    expect_digest(sets[s].label, d.value(), want[s]);
  }
}

TEST(GoldenFts, Checkpointed) {
  // Re-recorded when checkpointed FT-S began naming S on the paths that
  // fail before line 4 finds a threshold; the digests of every other
  // field did not move.
  const std::vector<std::uint64_t> want = {
      0x0fe4db94ebd2621fULL, 0x9cceaf4699ec871dULL, 0xda898250457a4cd5ULL,
      0x9c89a1b28cb30779ULL, 0x21ac1e4ed8825a40ULL, 0xd43cc05b09dd001dULL,
  };
  const std::vector<NamedSet> sets = uniprocessor_sets();
  ASSERT_EQ(sets.size(), want.size());
  for (std::size_t s = 0; s < sets.size(); ++s) {
    Digest d;
    for (const int k : {1, 2, 4, 8}) {
      for (const double o : {0.0, 0.05}) {
        for (const mcs::AdaptationKind kind : kKinds) {
          if (!runs(sets[s], kind)) continue;
          for (const double os : {1.0, 10.0}) {
            CkptFtsConfig cfg;
            cfg.segments = k;
            cfg.overhead_fraction = o;
            cfg.adaptation.kind = kind;
            cfg.adaptation.degradation_factor = 3.0;
            cfg.adaptation.os_hours = os;
            cfg.test = sets[s].killing_test;
            add_result(d, ft_schedule_checkpointed(sets[s].ts, cfg));
          }
        }
      }
    }
    expect_digest(sets[s].label, d.value(), want[s]);
  }
}

TEST(GoldenFts, Partitioned) {
  // Two copies of Example 3.1 (worst case 2.17 on one core) and
  // generated sets beyond one core's capacity.
  const FtTaskSet single = example31(Dal::D, 1e-5);
  std::vector<FtTask> doubled = single.tasks();
  for (const FtTask& t : single.tasks()) {
    FtTask copy = t;
    copy.name += "'";
    doubled.push_back(copy);
  }
  const std::vector<NamedSet> sets = {
      {"ex31x2/D", FtTaskSet(doubled, {Dal::B, Dal::D}), nullptr},
      {"gen17/1.2/C", generated(17, 1.2, 1e-5, Dal::C), nullptr},
      {"gen19/1.8/D", generated(19, 1.8, 1e-5, Dal::D), nullptr},
      {"gen23/0.6/C/1e-3", generated(23, 0.6, 1e-3, Dal::C), nullptr},
  };
  const std::vector<std::uint64_t> want = {
      0x41b5a0733a14c6ddULL, 0x9d36f04bd2288669ULL, 0x7bb32442670cc449ULL,
      0x752cf6e525fda585ULL,
  };
  ASSERT_EQ(sets.size(), want.size());
  for (std::size_t s = 0; s < sets.size(); ++s) {
    Digest d;
    for (int cores = 1; cores <= 4; ++cores) {
      for (const mcs::AdaptationKind kind : kKinds) {
        for (const bool closed_form : {true, false}) {
          PartitionedConfig cfg;
          cfg.cores = cores;
          cfg.fts.adaptation.kind = kind;
          cfg.fts.adaptation.degradation_factor = 6.0;
          cfg.fts.use_closed_form_umc = closed_form;
          const PartitionedResult r =
              ft_schedule_partitioned(sets[s].ts, cfg);
          d.add(r.success);
          d.add(r.failure);
          for (const int c : r.assignment) d.add(c);
          d.add(r.n_hi);
          d.add(r.n_lo);
          d.add(static_cast<std::uint64_t>(r.per_core.size()));
          for (const FtsResult& core : r.per_core) add_result(d, core);
          d.add(r.pfh_hi);
          d.add(r.pfh_lo);
        }
      }
    }
    expect_digest(sets[s].label, d.value(), want[s]);
  }
}

TEST(GoldenFts, HeterogeneousProfiles) {
  const std::vector<std::uint64_t> want = {
      0x76672f4111edf47dULL, 0x63d1b9b371eb512dULL, 0x8333ce839cd41e25ULL,
      0x5fc0a7186f51c7d5ULL, 0x76d398540c584997ULL, 0xcd4738295e5a1425ULL,
  };
  const std::vector<NamedSet> sets = uniprocessor_sets();
  ASSERT_EQ(sets.size(), want.size());
  for (std::size_t s = 0; s < sets.size(); ++s) {
    Digest d;
    for (const mcs::AdaptationKind kind : {mcs::AdaptationKind::kKilling,
                                           mcs::AdaptationKind::kDegradation}) {
      for (const int n_hi : {2, 3, 4}) {
        for (const ExecAssumption exec :
             {ExecAssumption::kFullWcet, ExecAssumption::kZero}) {
          AdaptationModel model;
          model.kind = kind;
          model.degradation_factor = 6.0;
          model.os_hours = 2.0;
          const HeterogeneousResult r = optimize_adaptation_profiles(
              sets[s].ts, n_hi, 2, model, SafetyRequirements::do178b(),
              exec);
          d.add(r.feasible);
          for (const int n : r.n_adapt) d.add(n);
          d.add(r.pfh_lo);
          d.add(r.safe);
          d.add(r.budget);
          d.add(r.budget_used);
          d.add(r.steps);
        }
      }
    }
    expect_digest(sets[s].label, d.value(), want[s]);
  }
}

TEST(GoldenFts, DesignSpace) {
  const std::vector<std::uint64_t> want = {
      0x8e10906ed170e236ULL, 0x5718e033b80357d5ULL, 0x0fa2b101e64eb155ULL,
      0x508a8bcd9e8ace65ULL, 0x6a320eeb51bbfe18ULL, 0x8a474944f67a2589ULL,
  };
  const std::vector<NamedSet> sets = uniprocessor_sets();
  ASSERT_EQ(sets.size(), want.size());
  for (std::size_t s = 0; s < sets.size(); ++s) {
    Digest d;
    for (const double o : {0.0, 0.05}) {
      for (const double os : {1.0, 10.0}) {
        DesignSpaceOptions opt;
        opt.os_hours = os;
        opt.overhead_fraction = o;
        opt.segment_counts = {1, 2, 4, 8};
        opt.test = sets[s].killing_test;
        opt.include_killing = true;
        if (!sets[s].ts.all_implicit_deadlines()) {
          opt.degradation_factors.clear();  // MC-DBF kills
        }
        const std::vector<DesignPoint> points =
            explore_design_space(sets[s].ts, opt);
        for (const DesignPoint& p : points) {
          d.add(static_cast<int>(p.kind));
          d.add(p.degradation_factor);
          d.add(p.segments);
          d.add(p.overhead_fraction);
          d.add(p.certifiable);
          d.add(p.n_adapt);
          d.add(p.pfh_lo);
          d.add(p.u_mc);
          d.add(p.service_quality);
          d.add(p.safety_margin_orders);
          d.add(p.schedulability_margin);
        }
        for (const std::size_t i : pareto_front(points)) {
          d.add(static_cast<std::uint64_t>(i));
        }
      }
    }
    expect_digest(sets[s].label, d.value(), want[s]);
  }
}

TEST(GoldenFts, AdaptationSweep) {
  std::vector<NamedSet> sets = uniprocessor_sets();
  sets.push_back({"fms", fms::canonical_fms_instance(), nullptr});
  const std::vector<std::uint64_t> want = {
      0xc2ef8d5ceb88e3cdULL, 0x37f9267542f38078ULL, 0xc883a094032b9dbdULL,
      0x85aa62ef4082ef16ULL, 0xaafb9fa0d03191d3ULL, 0x0cc225e0922d62b6ULL,
      0x3e00562b7defb6d0ULL,
  };
  ASSERT_EQ(sets.size(), want.size());
  for (std::size_t s = 0; s < sets.size(); ++s) {
    Digest d;
    for (const mcs::AdaptationKind kind : kKinds) {
      for (const ExecAssumption exec :
           {ExecAssumption::kFullWcet, ExecAssumption::kZero}) {
        AdaptationModel model;
        model.kind = kind;
        model.degradation_factor = 2.0;
        model.os_hours = 10.0;
        for (const AdaptationSweepPoint& p : sweep_adaptation(
                 sets[s].ts, 4, 2, model, SafetyRequirements::do178b(), 6,
                 exec)) {
          d.add(p.n_adapt);
          d.add(p.u_mc);
          d.add(p.pfh_lo);
          d.add(p.schedulable);
          d.add(p.safe);
        }
      }
    }
    expect_digest(sets[s].label, d.value(), want[s]);
  }
}

}  // namespace
}  // namespace ftmc::core
