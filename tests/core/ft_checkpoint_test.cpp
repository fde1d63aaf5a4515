#include "ftmc/core/ft_checkpoint.hpp"

#include <gtest/gtest.h>

#include "ftmc/common/contracts.hpp"
#include "ftmc/core/analysis.hpp"
#include "ftmc/core/conversion.hpp"
#include "ftmc/core/round_model.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/prob/safe_math.hpp"

namespace ftmc::core {
namespace {

FtTask make(const std::string& name, Millis t, Millis c, Dal dal,
            double f = 1e-5) {
  return {name, t, t, c, dal, f};
}

FtTaskSet example31(Dal lo = Dal::D, double f = 1e-5) {
  return FtTaskSet({make("tau1", 60, 5, Dal::B, f),
                    make("tau2", 25, 4, Dal::B, f),
                    make("tau3", 40, 7, lo, f), make("tau4", 90, 6, lo, f),
                    make("tau5", 70, 8, lo, f)},
                   {Dal::B, lo});
}

/// k = 1, zero overhead: schemes equivalent to n-times re-execution.
std::vector<CheckpointScheme> reexec_schemes(const FtTaskSet& ts, int n_hi,
                                             int n_lo) {
  std::vector<CheckpointScheme> schemes(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    schemes[i] = {1,
                  (ts.crit_of(i) == CritLevel::HI ? n_hi : n_lo) - 1,
                  0.0};
  }
  return schemes;
}

TEST(CkptTriggerProb, DegeneratesToFPowerM) {
  // k = 1: P(faults >= m) = f^m exactly (the paper's trigger term).
  for (const double f : {1e-2, 1e-5}) {
    for (int m = 1; m <= 4; ++m) {
      EXPECT_NEAR(ckpt_trigger_prob(f, 1, 0.0, m), prob::pow_prob(f, m),
                  prob::pow_prob(f, m) * 1e-9);
    }
  }
  EXPECT_DOUBLE_EQ(ckpt_trigger_prob(0.5, 4, 0.0, 0), 1.0);
}

TEST(CkptTriggerProb, MonotoneInThreshold) {
  double prev = 2.0;
  for (int m = 0; m <= 5; ++m) {
    const double p = ckpt_trigger_prob(1e-2, 4, 0.0, m);
    EXPECT_LE(p, prev);
    prev = p;
  }
}

/// The k = 1 checkpointing model of Example 3.1 at retry budgets n - 1
/// beside the re-execution model at (n_hi, n_lo): the shared bounds must
/// agree on both up to rounding.
struct DegenerateModels {
  DegenerateModels(const FtTaskSet& ts, int n_hi, int n_lo, int m)
      : schemes(reexec_schemes(ts, n_hi, n_lo)),
        n(uniform_profile(ts, n_hi, n_lo)),
        thresholds(uniform_profile(ts, m, 0)),
        checkpointing(RoundModel::checkpointing(ts, schemes, thresholds)),
        reexecution(RoundModel::reexecution(ts, n, thresholds)) {}

  std::vector<CheckpointScheme> schemes;
  PerTaskProfile n;
  PerTaskProfile thresholds;
  RoundModel checkpointing;
  RoundModel reexecution;
};

TEST(CkptPfhPlain, DegeneratesToEq2) {
  const FtTaskSet ts = example31(Dal::C, 1e-3);
  const DegenerateModels models(ts, 3, 2, 2);
  for (const CritLevel level : {CritLevel::HI, CritLevel::LO}) {
    const double paper = pfh_plain(models.reexecution, level);
    EXPECT_NEAR(pfh_plain(models.checkpointing, level), paper,
                paper * 1e-9);
    EXPECT_EQ(paper, pfh_plain(ts, models.n, level));
  }
}

TEST(CkptSurvival, DegeneratesToLemma32) {
  const FtTaskSet ts = example31();
  for (const double t : {1000.0, 60'000.0, 3.6e6}) {
    for (int m = 1; m <= 2; ++m) {
      const DegenerateModels models(ts, 3, 1, m);
      const double general =
          survival_no_trigger(models.checkpointing, t).linear();
      const double paper =
          survival_no_trigger(models.reexecution, t).linear();
      EXPECT_NEAR(general, paper, std::abs(paper) * 1e-9 + 1e-15)
          << "t = " << t << " m = " << m;
      EXPECT_EQ(paper,
                survival_no_trigger(ts, models.thresholds, t).linear());
    }
  }
}

TEST(CkptPfhKilling, DegeneratesToEq5) {
  const FtTaskSet ts = example31(Dal::C, 1e-3);
  const DegenerateModels models(ts, 3, 2, 2);
  const double paper = pfh_lo_killing(models.reexecution, 0.01);
  const double general = pfh_lo_killing(models.checkpointing, 0.01);
  EXPECT_NEAR(general, paper, paper * 1e-9);
  KillingBoundOptions opt;
  opt.os_hours = 0.01;
  EXPECT_EQ(paper, pfh_lo_killing(ts, models.n, models.thresholds, opt));
}

TEST(CkptPfhDegradation, DegeneratesToEq7) {
  const FtTaskSet ts = example31(Dal::C, 1e-3);
  const DegenerateModels models(ts, 3, 2, 2);
  const double paper = pfh_lo_degradation(models.reexecution, 0.01);
  const double general = pfh_lo_degradation(models.checkpointing, 0.01);
  EXPECT_NEAR(general, paper, paper * 1e-9);
  EXPECT_EQ(paper,
            pfh_lo_degradation(ts, models.n, models.thresholds, 0.01));
}

TEST(CkptConversion, DegeneratesToLemma41) {
  const FtTaskSet ts = example31();
  const auto general = convert_to_mc_checkpointed(
      ts, reexec_schemes(ts, 3, 1), uniform_profile(ts, 2, 0));
  const auto paper = convert_to_mc(ts, 3, 1, 2);
  ASSERT_EQ(general.size(), paper.size());
  for (std::size_t i = 0; i < paper.size(); ++i) {
    EXPECT_DOUBLE_EQ(general[i].wcet_hi, paper[i].wcet_hi) << i;
    EXPECT_DOUBLE_EQ(general[i].wcet_lo, paper[i].wcet_lo) << i;
  }
}

TEST(CkptConversion, SegmentedBudgets) {
  // k = 4, R = 2, o = 0: seg = C/4; C(HI) = 6 * C/4 = 1.5C;
  // C(LO) at m = 1: (4 - 1 + 1) * C/4 = C.
  FtTaskSet ts({make("h", 100, 8, Dal::B)}, {Dal::B, Dal::C});
  const std::vector<CheckpointScheme> schemes = {{4, 2, 0.0}};
  const auto mc = convert_to_mc_checkpointed(ts, schemes, {1});
  EXPECT_DOUBLE_EQ(mc[0].wcet_hi, 12.0);
  EXPECT_DOUBLE_EQ(mc[0].wcet_lo, 8.0);
  // m = 0: C(LO) = 0; m = R + 1 = 3: C(LO) = C(HI).
  EXPECT_DOUBLE_EQ(convert_to_mc_checkpointed(ts, schemes, {0})[0].wcet_lo,
                   0.0);
  EXPECT_DOUBLE_EQ(convert_to_mc_checkpointed(ts, schemes, {3})[0].wcet_lo,
                   12.0);
  EXPECT_THROW(
      (void)convert_to_mc_checkpointed(ts, schemes, {4}),
      ContractViolation);
}

TEST(CkptFts, DegenerateMatchesReexecutionFts) {
  // k = 1 checkpointed FT-S must reach the same verdict and profiles as
  // the paper's FT-S on Example 3.1 (R = n - 1, m = n').
  const FtTaskSet ts = example31();
  CkptFtsConfig ckpt;
  ckpt.segments = 1;
  ckpt.adaptation.kind = mcs::AdaptationKind::kKilling;
  ckpt.adaptation.os_hours = 1.0;
  const CkptFtsResult g = ft_schedule_checkpointed(ts, ckpt);

  FtsConfig paper;
  paper.adaptation.kind = mcs::AdaptationKind::kKilling;
  paper.adaptation.os_hours = 1.0;
  const FtsResult r = ft_schedule(ts, paper);

  ASSERT_EQ(g.success, r.success);
  ASSERT_TRUE(g.success);
  EXPECT_EQ(g.r_hi + 1, r.n_hi);  // R = n - 1
  EXPECT_EQ(g.r_lo + 1, r.n_lo);
  EXPECT_EQ(g.m_adapt, r.n_adapt);
  EXPECT_NEAR(g.pfh_hi, r.pfh_hi, r.pfh_hi * 1e-9);
}

TEST(CkptFts, SegmentationRescuesUnschedulableSet) {
  // Inflate Example 3.1 so killing alone cannot save it under full
  // re-execution, but k = 4 checkpointing (worst case 1.5C vs 3C) can.
  FtTaskSet ts({make("tau1", 60, 9, Dal::B), make("tau2", 25, 7, Dal::B),
                make("tau3", 40, 8, Dal::D), make("tau4", 90, 9, Dal::D),
                make("tau5", 70, 9, Dal::D)},
               {Dal::B, Dal::D});
  FtsConfig paper;
  paper.adaptation.kind = mcs::AdaptationKind::kKilling;
  paper.adaptation.os_hours = 1.0;
  ASSERT_FALSE(ft_schedule(ts, paper).success);

  CkptFtsConfig ckpt;
  ckpt.segments = 4;
  ckpt.adaptation.kind = mcs::AdaptationKind::kKilling;
  ckpt.adaptation.os_hours = 1.0;
  const CkptFtsResult g = ft_schedule_checkpointed(ts, ckpt);
  ASSERT_TRUE(g.success) << to_string(g.failure);
  EXPECT_TRUE(mcs::EdfVdTest{}.schedulable(g.converted));
  EXPECT_LT(g.pfh_hi, 1e-7);
}

TEST(CkptFts, OverheadCanDefeatTheGain) {
  // Same set, but 20% checkpoint overhead per segment at k = 8 bloats
  // every budget past feasibility again.
  FtTaskSet ts({make("tau1", 60, 9, Dal::B), make("tau2", 25, 7, Dal::B),
                make("tau3", 40, 8, Dal::D), make("tau4", 90, 9, Dal::D),
                make("tau5", 70, 9, Dal::D)},
               {Dal::B, Dal::D});
  CkptFtsConfig ckpt;
  ckpt.segments = 8;
  ckpt.overhead_fraction = 0.2;
  ckpt.adaptation.kind = mcs::AdaptationKind::kKilling;
  ckpt.adaptation.os_hours = 1.0;
  EXPECT_FALSE(ft_schedule_checkpointed(ts, ckpt).success);
}

TEST(CkptFts, SafetyGateStillGuardsLevelC) {
  // Checkpointing changes budgets, not the killing-vs-safety story:
  // level C LO tasks still cannot be killed on a long mission.
  CkptFtsConfig ckpt;
  ckpt.segments = 4;
  ckpt.adaptation.kind = mcs::AdaptationKind::kKilling;
  ckpt.adaptation.os_hours = 10.0;
  const CkptFtsResult g =
      ft_schedule_checkpointed(example31(Dal::C), ckpt);
  EXPECT_FALSE(g.success);
  EXPECT_TRUE(g.failure == FtsFailure::kAdaptationUnsafe ||
              g.failure == FtsFailure::kUnschedulable);
}

}  // namespace
}  // namespace ftmc::core
