/// Tests of the campaign progress callbacks and of the determinism
/// guarantee under instrumentation: a progress callback, span tracing
/// and the metrics registry must not change any result bit.
#include <gtest/gtest.h>

#include <vector>

#include "ftmc/core/design_space.hpp"
#include "ftmc/fms/fms.hpp"
#include "ftmc/obs/progress.hpp"
#include "ftmc/obs/registry.hpp"
#include "ftmc/obs/span.hpp"
#include "ftmc/sim/monte_carlo.hpp"

namespace ftmc {
namespace {

std::vector<sim::SimTask> small_system() {
  return sim::build_sim_tasks(fms::canonical_fms_instance(), 3, 2, 2, 0.5);
}

sim::SimConfig base_config() {
  sim::SimConfig cfg;
  cfg.policy = sim::PolicyKind::kEdfVd;
  cfg.adaptation = mcs::AdaptationKind::kKilling;
  return cfg;
}

void expect_identical(const sim::MonteCarloResult& a,
                      const sim::MonteCarloResult& b) {
  EXPECT_EQ(a.trigger.successes, b.trigger.successes);
  EXPECT_EQ(a.trigger.trials, b.trigger.trials);
  EXPECT_EQ(a.job_failure_hi.successes, b.job_failure_hi.successes);
  EXPECT_EQ(a.job_failure_hi.trials, b.job_failure_hi.trials);
  EXPECT_EQ(a.job_failure_lo.successes, b.job_failure_lo.successes);
  EXPECT_EQ(a.job_failure_lo.trials, b.job_failure_lo.trials);
  EXPECT_EQ(a.pfh_hi, b.pfh_hi);  // bit-identical, not just close
  EXPECT_EQ(a.pfh_lo, b.pfh_lo);
  EXPECT_EQ(a.simulated_hours, b.simulated_hours);
}

TEST(MonteCarloProgress, CallbackReportsMonotonicallyUpToTotal) {
  sim::MonteCarloOptions opt;
  opt.missions = 32;
  opt.mission_length = sim::kTicksPerSecond / 10;
  opt.seed = 11;
  opt.threads = 2;

  std::vector<obs::Progress> updates;
  opt.progress = [&updates](const obs::Progress& p) {
    updates.push_back(p);
  };
  (void)sim::monte_carlo_campaign(small_system(), base_config(), opt);

  ASSERT_FALSE(updates.empty());
  std::size_t last_done = 0;
  for (const obs::Progress& p : updates) {
    EXPECT_EQ(p.total, 32u);
    EXPECT_GE(p.done, last_done);
    EXPECT_LE(p.done, p.total);
    EXPECT_GE(p.wall_seconds, 0.0);
    last_done = p.done;
  }
  // The final update reports completion.
  EXPECT_EQ(updates.back().done, 32u);
  EXPECT_DOUBLE_EQ(updates.back().fraction(), 1.0);
}

TEST(MonteCarloProgress, SerialCampaignReportsToo) {
  sim::MonteCarloOptions opt;
  opt.missions = 8;
  opt.mission_length = sim::kTicksPerSecond / 10;
  opt.threads = 1;

  std::size_t calls = 0;
  std::size_t final_done = 0;
  opt.progress = [&](const obs::Progress& p) {
    ++calls;
    final_done = p.done;
  };
  (void)sim::monte_carlo_campaign(small_system(), base_config(), opt);
  EXPECT_GT(calls, 0u);
  EXPECT_EQ(final_done, 8u);
}

TEST(MonteCarloDeterminism, InstrumentationDoesNotChangeResults) {
  const auto tasks = small_system();

  sim::MonteCarloOptions plain;
  plain.missions = 24;
  plain.mission_length = sim::kTicksPerSecond / 4;
  plain.seed = 20140601;
  plain.threads = 1;
  const auto baseline =
      sim::monte_carlo_campaign(tasks, base_config(), plain);

  // Threaded, traced, with progress and metrics on: still bit-identical.
  obs::SpanRecorder& spans = obs::SpanRecorder::global();
  obs::Registry& registry = obs::Registry::global();
  const bool spans_were_enabled = spans.is_enabled();
  const bool registry_was_enabled = registry.is_enabled();
  const std::uint64_t spans0 = spans.total_events() + spans.total_dropped();
  const obs::Counter releases = registry.counter("sim.releases");
  const std::uint64_t releases0 = releases.value();
  spans.enable();
  registry.enable();
  sim::MonteCarloOptions instrumented = plain;
  instrumented.threads = 4;
  instrumented.progress = [](const obs::Progress&) {};
  const auto result =
      sim::monte_carlo_campaign(tasks, base_config(), instrumented);
  spans.enable(spans_were_enabled);
  registry.enable(registry_was_enabled);

  expect_identical(baseline, result);
  // One "mission" span per mission plus one region span per chunk.
  EXPECT_GE(spans.total_events() + spans.total_dropped() - spans0, 24u);
  // And the registry saw the simulated activity.
  EXPECT_GT(releases.value() - releases0, 0u);
}

TEST(DesignSpaceProgress, CallbackCoversTheWholeGrid) {
  const auto fms = fms::canonical_fms_instance();
  core::DesignSpaceOptions opt;
  opt.os_hours = 1.0;
  opt.degradation_factors = {2.0, 6.0};
  opt.segment_counts = {1};
  opt.threads = 2;

  std::vector<obs::Progress> updates;
  opt.progress = [&updates](const obs::Progress& p) {
    updates.push_back(p);
  };
  const auto points = core::explore_design_space(fms, opt);

  ASSERT_FALSE(updates.empty());
  EXPECT_EQ(updates.back().done, points.size());
  EXPECT_EQ(updates.back().total, points.size());
}

TEST(DesignSpaceDeterminism, SpansAndProgressDoNotChangeTheFront) {
  const auto fms = fms::canonical_fms_instance();
  core::DesignSpaceOptions plain;
  plain.os_hours = 1.0;
  const auto baseline = core::explore_design_space(fms, plain);

  obs::SpanRecorder& spans = obs::SpanRecorder::global();
  const bool spans_were_enabled = spans.is_enabled();
  const std::uint64_t spans0 = spans.total_events();
  spans.enable();
  core::DesignSpaceOptions instrumented;
  instrumented.os_hours = 1.0;
  instrumented.threads = 4;
  instrumented.progress = [](const obs::Progress&) {};
  const auto result = core::explore_design_space(fms, instrumented);
  spans.enable(spans_were_enabled);

  ASSERT_EQ(baseline.size(), result.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i].kind, result[i].kind);
    EXPECT_EQ(baseline[i].certifiable, result[i].certifiable);
    EXPECT_EQ(baseline[i].pfh_lo, result[i].pfh_lo);
    EXPECT_EQ(baseline[i].u_mc, result[i].u_mc);
  }
  EXPECT_EQ(core::pareto_front(baseline), core::pareto_front(result));
  EXPECT_GE(spans.total_events() - spans0, baseline.size());
}

}  // namespace
}  // namespace ftmc
