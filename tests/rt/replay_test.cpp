// Tests of the differential trace-replay machinery (check/replay.hpp):
// replay identity on the FMS case study, the
// diff's ability to actually detect divergences, and the registered
// trace-replay properties on a concrete case.
#include "ftmc/check/replay.hpp"

#include <gtest/gtest.h>

#include "ftmc/fms/fms.hpp"
#include "ftmc/sim/model.hpp"

namespace rt = ftmc::rt;
namespace sim = ftmc::sim;
namespace check = ftmc::check;
namespace fms = ftmc::fms;

namespace {

std::vector<rt::Task> fms_tasks(double fault_prob) {
  std::vector<rt::Task> tasks = sim::build_sim_tasks(
      fms::canonical_fms_instance(), /*n_hi=*/3, /*n_lo=*/2, /*n_adapt=*/2,
      /*virtual_deadline_factor=*/0.7);
  for (rt::Task& t : tasks) t.failure_prob = fault_prob;
  return tasks;
}

rt::PosixHostConfig fms_config() {
  rt::PosixHostConfig cfg;
  cfg.core.policy = rt::Policy::kEdfVd;
  cfg.core.adaptation = rt::Adaptation::kDegradation;
  cfg.core.degradation_factor = fms::kFmsDegradationFactor;
  cfg.core.mode_reset_on_idle = true;
  cfg.horizon = 2'000'000;  // 2 simulated seconds
  cfg.time_scale = 0.0;     // free-run
  cfg.seed = 42;
  cfg.fault_model = rt::FaultModel::kBernoulli;
  cfg.trace_capacity = 200'000;
  return cfg;
}

}  // namespace

TEST(RtReplay, FmsRunReplaysIdentically) {
  // n' = 2 for the FMS instance, so the switch needs two faults within
  // one job: inflate the per-attempt fault probability accordingly.
  const std::vector<rt::Task> tasks = fms_tasks(0.35);
  const rt::PosixHostConfig cfg = fms_config();
  rt::PosixHost host(tasks, cfg);
  const rt::PosixResult result = host.run();
  // The run must actually exercise the interesting machinery for the
  // identity claim to mean anything.
  ASSERT_GT(result.trace.size(), 100u);
  EXPECT_GT(result.stats.mode_switches, 0u);

  const check::ReplayDiff diff =
      check::replay_through_sim(tasks, cfg, result.trace);
  EXPECT_TRUE(diff.identical) << diff.message;
  EXPECT_EQ(diff.first_divergence, SIZE_MAX);
  EXPECT_EQ(diff.posix_events, diff.sim_events);
  EXPECT_TRUE(diff.message.empty());
}

TEST(RtReplay, DetectsASingleMutatedEvent) {
  const std::vector<rt::Task> tasks = fms_tasks(0.05);
  const rt::PosixHostConfig cfg = fms_config();
  rt::PosixHost host(tasks, cfg);
  rt::PosixResult result = host.run();
  ASSERT_GT(result.trace.size(), 10u);

  const std::size_t victim = result.trace.size() / 2;
  result.trace[victim].time += 1;
  const check::ReplayDiff diff =
      check::replay_through_sim(tasks, cfg, result.trace);
  EXPECT_FALSE(diff.identical);
  EXPECT_EQ(diff.first_divergence, victim);
  EXPECT_NE(diff.message.find("diverges"), std::string::npos) << diff.message;
}

TEST(RtReplay, DetectsATruncatedTrace) {
  const std::vector<rt::Task> tasks = fms_tasks(0.05);
  const rt::PosixHostConfig cfg = fms_config();
  rt::PosixHost host(tasks, cfg);
  rt::PosixResult result = host.run();
  ASSERT_GT(result.trace.size(), 10u);

  result.trace.pop_back();
  const check::ReplayDiff diff =
      check::replay_through_sim(tasks, cfg, result.trace);
  EXPECT_FALSE(diff.identical);
  EXPECT_EQ(diff.first_divergence, result.trace.size());
  EXPECT_NE(diff.message.find("lengths"), std::string::npos) << diff.message;
}

TEST(RtReplay, RegisteredPropertiesPassOnTheFmsCase) {
  check::Case c;
  c.ts = fms::canonical_fms_instance();
  c.n_hi = 3;
  c.n_lo = 2;
  c.n_adapt = 2;
  c.degradation_factor = fms::kFmsDegradationFactor;
  c.seed = 123;
  const check::PropertyContext ctx;

  const check::Outcome a = check::p_replay_adversary_killing(c, ctx);
  EXPECT_EQ(a.verdict, check::Verdict::kPass) << a.message;
  const check::Outcome b = check::p_replay_bernoulli_degradation(c, ctx);
  EXPECT_EQ(b.verdict, check::Verdict::kPass) << b.message;
  const check::Outcome d = check::p_replay_determinism(c, ctx);
  EXPECT_EQ(d.verdict, check::Verdict::kPass) << d.message;
}
