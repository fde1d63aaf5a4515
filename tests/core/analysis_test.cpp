#include "ftmc/core/analysis.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ftmc/common/contracts.hpp"
#include "ftmc/core/analysis_reference.hpp"

namespace ftmc::core {
namespace {

FtTask make(const std::string& name, Millis t, Millis c, Dal dal, double f) {
  return {name, t, t, c, dal, f};
}

/// The task set of paper Example 3.1 (Table 2): HI in {A,B,C}, LO in {D,E};
/// f = 1e-5 for every job.
FtTaskSet example31(Dal hi = Dal::B, Dal lo = Dal::D) {
  return FtTaskSet({make("tau1", 60, 5, hi, 1e-5),
                    make("tau2", 25, 4, hi, 1e-5),
                    make("tau3", 40, 7, lo, 1e-5),
                    make("tau4", 90, 6, lo, 1e-5),
                    make("tau5", 70, 8, lo, 1e-5)},
                   {hi, lo});
}

TEST(Rounds, Eq1HandValues) {
  const FtTask t = make("x", 60, 5, Dal::B, 1e-5);
  // r(3, 1 hour) = floor((3.6e6 - 15)/60) + 1 = 60000 (Example 3.1).
  EXPECT_DOUBLE_EQ(rounds(t, 3, kMillisPerHour), 60000.0);
  const FtTask t2 = make("y", 25, 4, Dal::B, 1e-5);
  EXPECT_DOUBLE_EQ(rounds(t2, 3, kMillisPerHour), 144000.0);
}

TEST(Rounds, WindowTooShortGivesZero) {
  const FtTask t = make("x", 100, 30, Dal::B, 1e-5);
  EXPECT_DOUBLE_EQ(rounds(t, 2, 59.9), 0.0);   // needs n*C = 60
  EXPECT_DOUBLE_EQ(rounds(t, 2, 60.0), 1.0);   // exactly one round fits
  EXPECT_DOUBLE_EQ(rounds(t, 2, 160.0), 2.0);  // (k-1)T + nC = 160
}

TEST(Rounds, FootnoteZeroExecutionAssumption) {
  // Footnote 1: if attempts may finish early, C -> 0 in Eq. (1).
  const FtTask t = make("x", 100, 30, Dal::B, 1e-5);
  EXPECT_DOUBLE_EQ(rounds(t, 2, 59.9, ExecAssumption::kZero), 1.0);
  EXPECT_DOUBLE_EQ(rounds(t, 2, 250.0, ExecAssumption::kZero), 3.0);
  // The zero-assumption never yields fewer rounds (it is the safe side).
  for (double time = 0.0; time < 1000.0; time += 37.0) {
    EXPECT_GE(rounds(t, 2, time, ExecAssumption::kZero),
              rounds(t, 2, time, ExecAssumption::kFullWcet));
  }
}

TEST(PfhPlain, Example31GoldenValue) {
  // Paper Sec. 3.2: with n1 = n2 = 3, pfh(HI) = 2.04e-10.
  const FtTaskSet ts = example31();
  const PerTaskProfile n = uniform_profile(ts, 3, 1);
  EXPECT_NEAR(pfh_plain(ts, n, CritLevel::HI), 2.04e-10, 1e-14);
}

TEST(PfhPlain, Example31SingleExecutionHiLevel) {
  // With n = 1: (60000 + 144000) * 1e-5 = 2.04 failures/hour.
  const FtTaskSet ts = example31();
  const PerTaskProfile n = uniform_profile(ts, 1, 1);
  EXPECT_NEAR(pfh_plain(ts, n, CritLevel::HI), 2.04, 1e-6);
}

TEST(PfhPlain, LoLevelCountsOnlyLoTasks) {
  const FtTaskSet ts = example31();
  const PerTaskProfile n = uniform_profile(ts, 3, 1);
  // LO rounds/hour: 90000 (T=40) + 40000 (T=90) + 51429 (T=70), each 1e-5.
  const double expected = (90000.0 + 40000.0 + 51429.0) * 1e-5;
  EXPECT_NEAR(pfh_plain(ts, n, CritLevel::LO), expected, 1e-6);
}

TEST(PfhPlain, ZeroFailureProbabilityGivesZeroPfh) {
  FtTaskSet ts({make("h", 100, 10, Dal::B, 0.0)}, {Dal::B, Dal::C});
  EXPECT_DOUBLE_EQ(pfh_plain(ts, {1}, CritLevel::HI), 0.0);
}

TEST(PfhPlain, RejectsZeroProfile) {
  const FtTaskSet ts = example31();
  PerTaskProfile n = uniform_profile(ts, 3, 1);
  n[0] = 0;
  EXPECT_THROW((void)pfh_plain(ts, n, CritLevel::HI), ContractViolation);
}

// Property: pfh(chi) strictly decreases with the re-execution profile
// (more attempts -> exponentially safer), for any failure probability.
class PfhMonotone : public ::testing::TestWithParam<double> {};

TEST_P(PfhMonotone, DecreasingInN) {
  const double f = GetParam();
  FtTaskSet ts({make("h", 50, 5, Dal::B, f)}, {Dal::B, Dal::C});
  double prev = std::numeric_limits<double>::infinity();
  for (int n = 1; n <= 6; ++n) {
    const double pfh = pfh_plain(ts, {n}, CritLevel::HI);
    EXPECT_LT(pfh, prev) << "n = " << n;
    prev = pfh;
  }
}

INSTANTIATE_TEST_SUITE_P(FailureProbs, PfhMonotone,
                         ::testing::Values(1e-2, 1e-3, 1e-5, 1e-7));

TEST(Survival, SingleTaskHandValue) {
  // One HI task, one round in [0, t], trigger prob f^1 = 0.1:
  // R = (1 - 0.1)^1 = 0.9.
  FtTaskSet ts({make("h", 100, 10, Dal::B, 0.1),
                make("l", 100, 10, Dal::C, 0.1)},
               {Dal::B, Dal::C});
  const auto r = survival_no_trigger(ts, {1, 0}, 100.0);
  EXPECT_NEAR(r.linear(), 0.9, 1e-12);
}

TEST(Survival, MultiplePerTaskRounds) {
  // Ten rounds: R = 0.9^10.
  FtTaskSet ts({make("h", 100, 10, Dal::B, 0.1)}, {Dal::B, Dal::C});
  const auto r = survival_no_trigger(ts, {1}, 910.0);
  // rounds = floor((910 - 10)/100) + 1 = 10.
  EXPECT_NEAR(r.linear(), std::pow(0.9, 10.0), 1e-12);
}

TEST(Survival, ZeroAdaptationProfileMeansCertainTrigger) {
  FtTaskSet ts({make("h", 100, 10, Dal::B, 0.1)}, {Dal::B, Dal::C});
  EXPECT_DOUBLE_EQ(survival_no_trigger(ts, {0}, 100.0).linear(), 0.0);
  // ... unless the window admits no round at all.
  EXPECT_DOUBLE_EQ(survival_no_trigger(ts, {0}, -1.0).linear(), 1.0);
}

TEST(Survival, DecreasesOverTime) {
  // Sec. 3.3: "R(N', t) will decrease with increasing t" — the LO tasks
  // will eventually be killed for sure.
  FtTaskSet ts({make("h", 100, 10, Dal::B, 0.05)}, {Dal::B, Dal::C});
  double prev = 1.0;
  for (double t = 0.0; t <= 5000.0; t += 500.0) {
    const double r = survival_no_trigger(ts, {1}, t).linear();
    EXPECT_LE(r, prev) << "t = " << t;
    prev = r;
  }
  EXPECT_LT(prev, 1.0);
}

TEST(Survival, OnlyHiTasksContribute) {
  FtTaskSet with_lo({make("h", 100, 10, Dal::B, 0.1),
                     make("l", 10, 1, Dal::C, 0.5)},
                    {Dal::B, Dal::C});
  FtTaskSet without_lo({make("h", 100, 10, Dal::B, 0.1)}, {Dal::B, Dal::C});
  EXPECT_DOUBLE_EQ(survival_no_trigger(with_lo, {1, 0}, 910.0).linear(),
                   survival_no_trigger(without_lo, {1}, 910.0).linear());
}

TEST(PiPoints, Eq4Structure) {
  // T = D = 10, C = 2, n = 1, t = 100: r = floor(98/10)+1 = 10 rounds;
  // points: {100 - 2 - 10m + 10 : m = 1..9} u {100} = {18,...,98,100}.
  const FtTask task = make("x", 10, 2, Dal::C, 0.1);
  const auto pts = pi_points(task, 1, 100.0);
  ASSERT_EQ(pts.size(), 10u);
  EXPECT_DOUBLE_EQ(pts.front(), 18.0);
  EXPECT_DOUBLE_EQ(pts[8], 98.0);
  EXPECT_DOUBLE_EQ(pts.back(), 100.0);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LT(pts[i - 1], pts[i]);  // strictly ascending
  }
}

TEST(PiPoints, ShortWindowHasOnlyT) {
  const FtTask task = make("x", 10, 2, Dal::C, 0.1);
  const auto pts = pi_points(task, 1, 5.0);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_DOUBLE_EQ(pts[0], 5.0);
}

TEST(PiPoints, CountEqualsRounds) {
  const FtTask task = make("x", 35, 4, Dal::C, 0.1);
  for (double t = 0.0; t < 2000.0; t += 111.0) {
    const double r = rounds(task, 2, t);
    EXPECT_EQ(pi_points(task, 2, t).size(),
              static_cast<std::size_t>(std::max(r, 1.0)));
  }
}

/// Naive reference implementation of Eq. (5) in plain double arithmetic —
/// valid for moderate magnitudes (f >= 1e-4, short horizons).
double naive_pfh_killing(const FtTaskSet& ts, const PerTaskProfile& n,
                         const PerTaskProfile& n_adapt, double os_hours) {
  const Millis t = hours_to_millis(os_hours);
  const auto naive_r = [&](Millis alpha) {
    double r = 1.0;
    for (std::size_t j = 0; j < ts.size(); ++j) {
      if (ts.crit_of(j) != CritLevel::HI) continue;
      const double rj = std::max(
          std::floor((alpha - n_adapt[j] * ts[j].wcet) / ts[j].period) + 1.0,
          0.0);
      r *= std::pow(1.0 - std::pow(ts[j].failure_prob, n_adapt[j]), rj);
    }
    return r;
  };
  double sum = 0.0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts.crit_of(i) != CritLevel::LO) continue;
    for (const Millis alpha : pi_points(ts[i], n[i], t)) {
      const double r = alpha <= 0.0 ? 1.0 : naive_r(alpha);
      sum += 1.0 - r * (1.0 - std::pow(ts[i].failure_prob, n[i]));
    }
  }
  return sum / os_hours;
}

TEST(PfhKilling, MatchesNaiveReferenceAtModerateMagnitudes) {
  FtTaskSet ts({make("h1", 100, 10, Dal::B, 1e-3),
                make("h2", 70, 5, Dal::B, 1e-3),
                make("l1", 120, 12, Dal::C, 1e-3),
                make("l2", 90, 9, Dal::C, 1e-3)},
               {Dal::B, Dal::C});
  const PerTaskProfile n = uniform_profile(ts, 2, 1);
  const PerTaskProfile na = uniform_profile(ts, 1, 0);
  KillingBoundOptions opt;
  opt.os_hours = 0.002;  // 7.2 seconds: ~70 rounds per task
  const double lib = pfh_lo_killing(ts, n, na, opt);
  const double ref = naive_pfh_killing(ts, n, na, opt.os_hours);
  EXPECT_NEAR(lib, ref, std::abs(ref) * 1e-9);
}

TEST(PfhKilling, NoHiTasksReducesToPlainBound) {
  // With no HI task the kill trigger never fires (R = 1), leaving exactly
  // the plain per-round failures f^n.
  FtTaskSet ts({make("l1", 100, 10, Dal::C, 1e-4),
                make("l2", 250, 10, Dal::C, 1e-4)},
               {Dal::B, Dal::C});
  const PerTaskProfile n = uniform_profile(ts, 1, 2);
  KillingBoundOptions opt;
  opt.os_hours = 1.0;
  const double killing = pfh_lo_killing(ts, n, n /*unused for LO*/, opt);
  const double plain = pfh_plain(ts, n, CritLevel::LO);
  EXPECT_NEAR(killing, plain, plain * 1e-9);
}

TEST(PfhKilling, MonotoneDecreasingInAdaptationProfile) {
  // Sec. 3.3: increasing n' -> LO tasks killed less often -> safer.
  FtTaskSet ts({make("h", 100, 10, Dal::B, 1e-3),
                make("l", 150, 10, Dal::C, 1e-3)},
               {Dal::B, Dal::C});
  const PerTaskProfile n = uniform_profile(ts, 4, 2);
  KillingBoundOptions opt;
  opt.os_hours = 0.01;
  double prev = std::numeric_limits<double>::infinity();
  for (int na = 0; na < 4; ++na) {
    const double pfh =
        pfh_lo_killing(ts, n, uniform_profile(ts, na, 0), opt);
    EXPECT_LT(pfh, prev) << "n' = " << na;
    prev = pfh;
  }
}

TEST(PfhKilling, DominatesPlainBound) {
  // Killing can only hurt LO safety: bound >= the plain bound.
  FtTaskSet ts({make("h", 100, 10, Dal::B, 1e-3),
                make("l", 150, 10, Dal::C, 1e-3)},
               {Dal::B, Dal::C});
  const PerTaskProfile n = uniform_profile(ts, 3, 2);
  KillingBoundOptions opt;
  opt.os_hours = 0.01;
  const double killing =
      pfh_lo_killing(ts, n, uniform_profile(ts, 2, 0), opt);
  EXPECT_GE(killing, pfh_plain(ts, n, CritLevel::LO));
}

TEST(PfhKilling, EarlyExitReturnsValueAboveThreshold) {
  FtTaskSet ts({make("h", 100, 10, Dal::B, 1e-2),
                make("l", 150, 10, Dal::C, 1e-2)},
               {Dal::B, Dal::C});
  const PerTaskProfile n = uniform_profile(ts, 2, 1);
  KillingBoundOptions opt;
  opt.os_hours = 1.0;
  opt.early_exit_above = 1e-6;
  const double partial =
      pfh_lo_killing(ts, n, uniform_profile(ts, 1, 0), opt);
  EXPECT_GT(partial, 1e-6);  // proves the requirement is violated
}

/// A LO task whose pi_i(t) holds exactly `count` points over one hour at a
/// single execution (n = 1).
FtTask lo_task_with_points(const std::string& name, std::size_t count,
                           Millis wcet) {
  const Millis t = hours_to_millis(1.0);
  return make(name, (t - wcet) / (static_cast<double>(count) - 0.5), wcet,
              Dal::C, 1e-3);
}

/// Where the killing bound's chunks end within one LO task's points: the
/// first chunk holds 32 points, and each next one twice as many up to
/// 4096 (analysis.cpp).
constexpr std::size_t kChunkEdges[] = {32,  96,   224,  480,
                                       992, 2016, 4064, 8160};

TEST(PfhKilling, EarlyExitMatchesReferenceOnEveryChunkEdge) {
  // Every point's term is at least f = 1e-3, so the running sum grows at
  // every point; the first LO task is long enough for every chunk size.
  constexpr std::size_t kFirst = 8200;
  constexpr std::size_t kSecond = 100;
  const FtTaskSet ts({make("h1", 500, 20, Dal::B, 1e-3),
                      make("h2", 730, 30, Dal::B, 2e-3),
                      lo_task_with_points("l1", kFirst, 10),
                      lo_task_with_points("l2", kSecond, 15)},
                     {Dal::B, Dal::C});
  const PerTaskProfile n = uniform_profile(ts, 2, 1);
  const PerTaskProfile na = uniform_profile(ts, 1, 0);
  KillingBoundOptions opt;
  opt.os_hours = 1.0;

  // The reference's own running sum: at O_S = 1 h an exit above the sum
  // through point k - 1 returns the sum through point k.
  std::vector<double> sums;
  opt.early_exit_above = std::numeric_limits<double>::denorm_min();
  for (;;) {
    const double sum = reference::pfh_lo_killing(ts, n, na, opt);
    if (sum <= opt.early_exit_above) break;  // no point left to exceed it
    sums.push_back(sum);
    opt.early_exit_above = sum;
  }
  ASSERT_EQ(sums.size(), kFirst + kSecond) << "a point left the sum as it was";

  // Exits on the first point, on each side of every chunk edge, on each
  // task's tail point t, and on each side of the second task's first edge.
  std::vector<std::size_t> exits = {1,           kFirst,      kFirst + 1,
                                    kFirst + 32, kFirst + 33, kFirst + kSecond};
  for (const std::size_t edge : kChunkEdges) {
    exits.push_back(edge);
    exits.push_back(edge + 1);
  }
  for (const std::size_t k : exits) {
    opt.early_exit_above =
        k == 1 ? std::numeric_limits<double>::denorm_min() : sums[k - 2];
    const double lib = pfh_lo_killing(ts, n, na, opt);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lib),
              std::bit_cast<std::uint64_t>(
                  reference::pfh_lo_killing(ts, n, na, opt)))
        << "exit at point " << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lib),
              std::bit_cast<std::uint64_t>(sums[k - 1]))
        << "exit at point " << k;
  }
}

TEST(PfhKilling, FullSumMatchesReferenceWhenPointsEndOnAChunkEdge) {
  // Points that fill their last chunk exactly, points whose tail t opens
  // a chunk of its own, and one and two full-size chunks.
  std::vector<std::size_t> counts = {4096, 8192};
  for (const std::size_t edge : kChunkEdges) {
    counts.push_back(edge);
    counts.push_back(edge + 1);
  }
  const Millis t = hours_to_millis(1.0);
  for (const std::size_t count : counts) {
    const FtTaskSet ts({make("h", 500, 20, Dal::B, 1e-3),
                        lo_task_with_points("l", count, 10)},
                       {Dal::B, Dal::C});
    ASSERT_EQ(pi_points(ts[1], 1, t).size(), count);
    const PerTaskProfile n = uniform_profile(ts, 2, 1);
    const PerTaskProfile na = uniform_profile(ts, 1, 0);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pfh_lo_killing(ts, n, na)),
              std::bit_cast<std::uint64_t>(
                  reference::pfh_lo_killing(ts, n, na)))
        << count << " points";
  }
}

TEST(Omega, Eq6HandValues) {
  FtTaskSet ts({make("h", 100, 10, Dal::B, 1e-3),
                make("l", 100, 10, Dal::C, 1e-3)},
               {Dal::B, Dal::C});
  const PerTaskProfile n = uniform_profile(ts, 1, 2);
  // LO task, n=2, df=1, t=1000: r = floor((1000-20)/100)+1 = 10.
  EXPECT_NEAR(omega(ts, n, 1.0, 1000.0), 10.0 * 1e-6, 1e-15);
  // df=2 stretches the period: r = floor((1000-20)/200)+1 = 5.
  EXPECT_NEAR(omega(ts, n, 2.0, 1000.0), 5.0 * 1e-6, 1e-15);
}

TEST(Omega, NonPositiveHorizonIsZero) {
  FtTaskSet ts({make("l", 100, 10, Dal::C, 1e-3)}, {Dal::B, Dal::C});
  EXPECT_DOUBLE_EQ(omega(ts, {2}, 1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(omega(ts, {2}, 1.0, -50.0), 0.0);
}

TEST(Omega, DecreasingInDegradationFactor) {
  FtTaskSet ts({make("l1", 100, 10, Dal::C, 1e-3),
                make("l2", 130, 10, Dal::C, 1e-3)},
               {Dal::B, Dal::C});
  const PerTaskProfile n = uniform_profile(ts, 1, 2);
  double prev = std::numeric_limits<double>::infinity();
  for (const double df : {1.0, 1.5, 2.0, 4.0, 8.0}) {
    const double w = omega(ts, n, df, 50'000.0);
    EXPECT_LE(w, prev);
    prev = w;
  }
}

TEST(PfhDegradation, Eq7EqualsEq9AtFullTrigger) {
  // Lemma 3.4 proof: the bound is the t0 = t scenario of Eq. (9).
  FtTaskSet ts({make("h", 100, 10, Dal::B, 1e-3),
                make("l", 150, 10, Dal::C, 1e-3)},
               {Dal::B, Dal::C});
  const PerTaskProfile n = uniform_profile(ts, 3, 2);
  const PerTaskProfile na = uniform_profile(ts, 2, 0);
  const double os = 0.01;
  const double eq7 = pfh_lo_degradation(ts, n, na, os);
  const double eq9 =
      pfh_lo_degradation_at(ts, n, na, 6.0, os, hours_to_millis(os));
  EXPECT_NEAR(eq7, eq9, std::abs(eq7) * 1e-12);
}

TEST(PfhDegradation, Eq9MonotoneInTriggerTime) {
  FtTaskSet ts({make("h", 100, 10, Dal::B, 1e-3),
                make("l", 150, 10, Dal::C, 1e-3)},
               {Dal::B, Dal::C});
  const PerTaskProfile n = uniform_profile(ts, 3, 2);
  const PerTaskProfile na = uniform_profile(ts, 2, 0);
  const double os = 0.01;
  const Millis t = hours_to_millis(os);
  double prev = -1.0;
  for (double frac = 0.0; frac <= 1.0; frac += 0.125) {
    const double v = pfh_lo_degradation_at(ts, n, na, 6.0, os, frac * t);
    EXPECT_GE(v, prev) << "frac = " << frac;
    prev = v;
  }
}

TEST(PfhDegradation, NeverExceedsPlainBound) {
  // Sec. 3.4: "the PFH on the LO criticality level is decreased if service
  // degradation is adopted as compared to (2)".
  FtTaskSet ts({make("h", 100, 10, Dal::B, 1e-3),
                make("l", 150, 10, Dal::C, 1e-3)},
               {Dal::B, Dal::C});
  const PerTaskProfile n = uniform_profile(ts, 3, 2);
  for (int na = 0; na < 3; ++na) {
    EXPECT_LE(pfh_lo_degradation(ts, n, uniform_profile(ts, na, 0), 1.0),
              pfh_plain(ts, n, CritLevel::LO));
  }
}

TEST(PfhDegradation, KillingHasStrongerSafetyImpact) {
  // The headline comparison of the paper (Sec. 5.1): for the same
  // adaptation profile, the killing bound dwarfs the degradation bound.
  FtTaskSet ts({make("h", 100, 10, Dal::B, 1e-4),
                make("l", 150, 10, Dal::C, 1e-4)},
               {Dal::B, Dal::C});
  const PerTaskProfile n = uniform_profile(ts, 3, 2);
  const PerTaskProfile na = uniform_profile(ts, 2, 0);
  KillingBoundOptions opt;
  opt.os_hours = 1.0;
  const double kill = pfh_lo_killing(ts, n, na, opt);
  const double degrade = pfh_lo_degradation(ts, n, na, 1.0);
  EXPECT_GT(kill, degrade * 1e3);
}

TEST(PfhDegradation, MonotoneDecreasingInAdaptationProfile) {
  FtTaskSet ts({make("h", 100, 10, Dal::B, 1e-3),
                make("l", 150, 10, Dal::C, 1e-3)},
               {Dal::B, Dal::C});
  const PerTaskProfile n = uniform_profile(ts, 4, 2);
  double prev = std::numeric_limits<double>::infinity();
  for (int na = 0; na < 4; ++na) {
    const double pfh =
        pfh_lo_degradation(ts, n, uniform_profile(ts, na, 0), 1.0);
    EXPECT_LT(pfh, prev) << "n' = " << na;
    prev = pfh;
  }
}

TEST(PfhDegradationAt, RejectsTriggerOutsideWindow) {
  FtTaskSet ts({make("h", 100, 10, Dal::B, 1e-3),
                make("l", 150, 10, Dal::C, 1e-3)},
               {Dal::B, Dal::C});
  const PerTaskProfile n = uniform_profile(ts, 2, 1);
  const PerTaskProfile na = uniform_profile(ts, 1, 0);
  EXPECT_THROW((void)pfh_lo_degradation_at(ts, n, na, 6.0, 0.001, -1.0),
               ContractViolation);
  EXPECT_THROW((void)pfh_lo_degradation_at(ts, n, na, 6.0, 0.001, 1e9),
               ContractViolation);
}

}  // namespace
}  // namespace ftmc::core
