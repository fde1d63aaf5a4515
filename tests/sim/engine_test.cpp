#include "ftmc/sim/engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>

#include "ftmc/common/contracts.hpp"
#include "ftmc/obs/registry.hpp"

namespace ftmc::sim {
namespace {

SimTask task(const std::string& name, Tick period, Tick wcet,
             CritLevel crit = CritLevel::LO, int max_attempts = 1,
             int adapt_threshold = 1, double f = 0.0) {
  SimTask t;
  t.name = name;
  t.period = period;
  t.deadline = period;
  t.wcet = wcet;
  t.crit = crit;
  t.max_attempts = max_attempts;
  t.adapt_threshold = adapt_threshold;
  t.failure_prob = f;
  t.virtual_deadline = period;
  return t;
}

SimConfig edf_config(Tick horizon) {
  SimConfig c;
  c.policy = PolicyKind::kEdf;
  c.horizon = horizon;
  c.trace_capacity = 100'000;
  return c;
}

TEST(SimEngine, SinglePeriodicTaskCompletesEveryJob) {
  Simulator sim({task("t", 1000, 100)}, edf_config(10'000));
  const SimStats s = sim.run();
  EXPECT_EQ(s.per_task[0].released, 10u);
  EXPECT_EQ(s.per_task[0].completed, 10u);
  EXPECT_EQ(s.per_task[0].deadline_misses, 0u);
  EXPECT_EQ(s.per_task[0].temporal_failures(), 0u);
  EXPECT_EQ(s.busy_time, 1000);
  EXPECT_NEAR(s.utilization_observed(), 0.1, 1e-12);
}

TEST(SimEngine, TwoTasksNoMissesAtModerateLoad) {
  Simulator sim({task("a", 100, 30), task("b", 150, 40)},
                edf_config(300'000));
  const SimStats s = sim.run();
  EXPECT_EQ(s.per_task[0].deadline_misses, 0u);
  EXPECT_EQ(s.per_task[1].deadline_misses, 0u);
  EXPECT_EQ(s.per_task[0].released, 3000u);
  EXPECT_EQ(s.per_task[1].released, 2000u);
}

TEST(SimEngine, EdfPrefersEarlierDeadline) {
  // At t=0 both release; EDF runs the shorter-deadline task first.
  Simulator sim({task("long", 1000, 100), task("short", 200, 50)},
                edf_config(1000));
  sim.run();
  const auto& trace = sim.trace();
  // First start event must be the short-deadline task (index 1).
  for (const TraceEvent& ev : trace) {
    if (ev.kind == TraceKind::kStart) {
      EXPECT_EQ(ev.task, 1u);
      break;
    }
  }
}

TEST(SimEngine, PreemptionOccursAndIsCounted) {
  // Long job starts alone at 0, short-deadline task arrives at 500 and
  // preempts it.
  SimTask long_task = task("long", 10'000, 2'000);
  SimTask short_task = task("short", 700, 100);
  // Shift the short task by making its first release at 0 too — EDF will
  // still run short first then long, and the next short release at 700
  // preempts the long job.
  Simulator sim({long_task, short_task}, edf_config(10'000));
  const SimStats s = sim.run();
  EXPECT_GT(s.preemptions, 0u);
  EXPECT_EQ(s.per_task[0].deadline_misses, 0u);
  EXPECT_EQ(s.per_task[1].deadline_misses, 0u);
}

TEST(SimEngine, OverloadProducesDeadlineMisses) {
  // U = 1.5: something must miss.
  Simulator sim({task("a", 100, 80), task("b", 100, 70)},
                edf_config(100'000));
  const SimStats s = sim.run();
  EXPECT_GT(s.per_task[0].deadline_misses + s.per_task[1].deadline_misses,
            0u);
}

TEST(SimEngine, DeterministicAcrossRuns) {
  const auto run_once = [] {
    SimConfig c = edf_config(1'000'000);
    c.seed = 99;
    SimTask t = task("x", 1000, 100, CritLevel::LO, 3, 3, 0.3);
    Simulator sim({t}, c);
    return sim.run();
  };
  const SimStats a = run_once();
  const SimStats b = run_once();
  EXPECT_EQ(a.per_task[0].faults, b.per_task[0].faults);
  EXPECT_EQ(a.per_task[0].completed, b.per_task[0].completed);
  EXPECT_EQ(a.busy_time, b.busy_time);
}

TEST(SimEngine, SeedChangesFaultPattern) {
  const auto run_with_seed = [](std::uint64_t seed) {
    SimConfig c = edf_config(10'000'000);
    c.seed = seed;
    Simulator sim({task("x", 1000, 100, CritLevel::LO, 2, 2, 0.3)}, c);
    return sim.run().per_task[0].faults;
  };
  EXPECT_NE(run_with_seed(1), run_with_seed(2));
}

TEST(SimEngine, TraceCapacityRespected) {
  SimConfig c = edf_config(1'000'000);
  c.trace_capacity = 10;
  Simulator sim({task("x", 1000, 100)}, c);
  sim.run();
  EXPECT_LE(sim.trace().size(), 10u);
}

TEST(SimEngine, TraceDisabledByDefaultCapacityZero) {
  SimConfig c;
  c.policy = PolicyKind::kEdf;
  c.horizon = 100'000;
  Simulator sim({task("x", 1000, 100)}, c);
  sim.run();
  EXPECT_TRUE(sim.trace().empty());
}

TEST(SimEngine, SporadicArrivalsReleaseFewerJobs) {
  SimConfig periodic = edf_config(10'000'000);
  SimConfig sporadic = edf_config(10'000'000);
  sporadic.sporadic_arrivals = true;
  sporadic.jitter_fraction = 0.5;
  const SimStats p = Simulator({task("x", 1000, 10)}, periodic).run();
  const SimStats s = Simulator({task("x", 1000, 10)}, sporadic).run();
  EXPECT_LT(s.per_task[0].released, p.per_task[0].released);
  EXPECT_GT(s.per_task[0].released, p.per_task[0].released / 3);
}

TEST(SimEngine, FixedPriorityHonorsPriorities) {
  // Lower priority value = more important. Give the long task the top
  // priority: the short task must miss.
  SimTask hog = task("hog", 1000, 800);
  hog.priority = 0;
  SimTask victim = task("victim", 500, 300);
  victim.priority = 1;
  SimConfig c;
  c.policy = PolicyKind::kFixedPriority;
  c.horizon = 100'000;
  const SimStats s = Simulator({hog, victim}, c).run();
  EXPECT_EQ(s.per_task[0].deadline_misses, 0u);
  EXPECT_GT(s.per_task[1].deadline_misses, 0u);
}

TEST(SimEngine, RunTwiceRejected) {
  Simulator sim({task("x", 1000, 100)}, edf_config(10'000));
  sim.run();
  EXPECT_THROW(sim.run(), ContractViolation);
}

TEST(SimEngine, RejectsMalformedConfig) {
  SimConfig c;
  c.horizon = 0;
  EXPECT_THROW(Simulator({task("x", 1000, 100)}, c), ContractViolation);
  EXPECT_THROW(Simulator({}, edf_config(1000)), ContractViolation);
  SimTask bad = task("x", 1000, 100);
  bad.failure_prob = 1.0;
  EXPECT_THROW(Simulator({bad}, edf_config(1000)), ContractViolation);
}

TEST(SimEngine, UniformExecModelShortensBusyTime) {
  SimConfig wcet_cfg = edf_config(10'000'000);
  SimConfig uni_cfg = edf_config(10'000'000);
  uni_cfg.exec_model = ExecTimeModel::kUniform;
  uni_cfg.exec_min_fraction = 0.2;
  const SimStats w = Simulator({task("x", 1000, 500)}, wcet_cfg).run();
  const SimStats u = Simulator({task("x", 1000, 500)}, uni_cfg).run();
  EXPECT_LT(u.busy_time, w.busy_time);
  EXPECT_GT(u.busy_time, w.busy_time / 5);
}

TEST(SimEngine, EmpiricalPfhZeroWithoutFaults) {
  Simulator sim({task("x", 1000, 100)}, edf_config(sim::kTicksPerHour));
  const SimStats s = sim.run();
  EXPECT_DOUBLE_EQ(sim.empirical_pfh(s, CritLevel::LO), 0.0);
}

/// The nine counters a run publishes, each beside the trace event that
/// marks one occurrence of it.
constexpr std::array<std::pair<const char*, TraceKind>, 9> kPublished = {{
    {"sim.releases", TraceKind::kRelease},
    {"sim.completions", TraceKind::kComplete},
    {"sim.reexecutions", TraceKind::kAttemptFail},
    {"sim.job_failures", TraceKind::kJobFail},
    {"sim.deadline_misses", TraceKind::kDeadlineMiss},
    {"sim.kills", TraceKind::kKill},
    {"sim.preemptions", TraceKind::kPreempt},
    {"sim.mode_switches", TraceKind::kModeSwitch},
    {"sim.mode_resets", TraceKind::kModeReset},
}};

/// The totals of `stats` in kPublished order.
std::array<std::uint64_t, 9> stats_totals(const SimStats& stats) {
  std::array<std::uint64_t, 9> totals{};
  for (const TaskStats& t : stats.per_task) {
    totals[0] += t.released;
    totals[1] += t.completed;
    totals[2] += t.faults;
    totals[3] += t.job_failures;
    totals[4] += t.deadline_misses;
    totals[5] += t.killed;
  }
  totals[6] = stats.preemptions;
  totals[7] = stats.mode_switches;
  totals[8] = stats.mode_resets;
  return totals;
}

std::array<std::uint64_t, 9> published_counts() {
  std::array<std::uint64_t, 9> counts{};
  for (std::size_t i = 0; i < kPublished.size(); ++i) {
    counts[i] =
        obs::Registry::global().counter(kPublished[i].first).value();
  }
  return counts;
}

TEST(SimEngine, PublishesItsTotalsOncePerRun) {
  // An overloaded mixed-criticality set with faults, so that every
  // counter moves on some configuration.
  std::vector<SimTask> tasks = {
      task("hi-fast", 4'000, 900, CritLevel::HI, 3, 1, 0.2),
      task("hi-slow", 11'000, 2'000, CritLevel::HI, 2, 1, 0.2),
      task("lo-a", 6'000, 1'500, CritLevel::LO, 2, 1, 0.2),
      task("lo-b", 15'000, 3'100, CritLevel::LO, 1, 1, 0.2)};
  tasks[0].virtual_deadline = 2'500;
  tasks[1].virtual_deadline = 6'000;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].priority = static_cast<int>(i);
  }

  obs::Registry& registry = obs::Registry::global();
  const bool was_enabled = registry.is_enabled();
  std::array<std::uint64_t, 9> moved{};
  for (const PolicyKind policy : {PolicyKind::kEdf, PolicyKind::kEdfVd,
                                  PolicyKind::kFixedPriority}) {
    for (const mcs::AdaptationKind adaptation :
         {mcs::AdaptationKind::kNone, mcs::AdaptationKind::kKilling,
          mcs::AdaptationKind::kDegradation}) {
      for (const bool reset : {false, true}) {
        SimConfig config = edf_config(3'000'000);
        config.policy = policy;
        config.adaptation = adaptation;
        config.degradation_factor = 2.0;
        config.mode_reset_on_idle = reset;
        config.seed = 11;
        config.trace_capacity = 1'000'000;
        SCOPED_TRACE(testing::Message()
                     << "policy " << static_cast<int>(policy)
                     << ", adaptation " << static_cast<int>(adaptation)
                     << ", reset " << reset);

        registry.enable();
        const std::array<std::uint64_t, 9> before = published_counts();
        Simulator simulator(tasks, config);
        const SimStats stats = simulator.run();
        const std::array<std::uint64_t, 9> after = published_counts();
        ASSERT_LT(simulator.trace().size(), config.trace_capacity);

        const std::array<std::uint64_t, 9> totals = stats_totals(stats);
        for (std::size_t i = 0; i < kPublished.size(); ++i) {
          std::uint64_t events = 0;
          for (const TraceEvent& e : simulator.trace()) {
            if (e.kind == kPublished[i].second) ++events;
          }
          EXPECT_EQ(after[i] - before[i], totals[i]) << kPublished[i].first;
          EXPECT_EQ(after[i] - before[i], events) << kPublished[i].first;
          moved[i] += totals[i];
        }

        // A disabled registry publishes nothing.
        registry.enable(false);
        (void)Simulator(tasks, config).run();
        EXPECT_EQ(published_counts(), after);
      }
    }
  }
  registry.enable(was_enabled);
  for (std::size_t i = 0; i < kPublished.size(); ++i) {
    EXPECT_GT(moved[i], 0u) << kPublished[i].first << " never moved";
  }
}

}  // namespace
}  // namespace ftmc::sim
