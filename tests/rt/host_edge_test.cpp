// Host edge cases, the first three asserted identically against BOTH hosts
// of the ftmc::rt core (the POSIX host and the discrete-event simulator):
//   1. a LO job mid-execution at the switch instant (killed in flight);
//   2. a fault landing exactly at a virtual-deadline instant;
//   3. back-to-back faults exhausting the re-execution budget;
//   4. a task rejected by admission control refuses the run.
// Each scenario runs on the POSIX host (free-run), is structurally
// checked, then the identical structural predicate is applied to the
// simulator's trace of the same configuration, and finally the two traces
// are required to be bit-identical (the trace-replay property).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ftmc/check/replay.hpp"
#include "ftmc/common/contracts.hpp"
#include "ftmc/rt/posix_host.hpp"
#include "ftmc/sim/engine.hpp"

namespace rt = ftmc::rt;
namespace sim = ftmc::sim;
namespace check = ftmc::check;
using ftmc::CritLevel;
using rt::Tick;

namespace {

// Host-neutral view of one trace event.
struct Ev {
  Tick time;
  int kind;
  std::uint32_t task;
  std::uint64_t job;
};

std::vector<Ev> normalize(const std::vector<rt::Event>& trace) {
  std::vector<Ev> out;
  out.reserve(trace.size());
  for (const rt::Event& e : trace) {
    out.push_back({e.time, static_cast<int>(e.kind), e.task, e.job});
  }
  return out;
}

constexpr int kStart = static_cast<int>(rt::EventKind::kStart);
constexpr int kAttemptFail = static_cast<int>(rt::EventKind::kAttemptFail);
constexpr int kJobFail = static_cast<int>(rt::EventKind::kJobFail);
constexpr int kComplete = static_cast<int>(rt::EventKind::kComplete);
constexpr int kModeSwitch = static_cast<int>(rt::EventKind::kModeSwitch);
constexpr int kKill = static_cast<int>(rt::EventKind::kKill);

rt::Task make_task(std::string name, Tick period, Tick deadline, Tick wcet,
                   Tick vd, CritLevel crit, int max_attempts,
                   int adapt_threshold) {
  rt::Task t;
  t.name = std::move(name);
  t.period = period;
  t.deadline = deadline;
  t.wcet = wcet;
  t.virtual_deadline = vd;
  t.crit = crit;
  t.max_attempts = max_attempts;
  t.adapt_threshold = adapt_threshold;
  return t;
}

// The same run configured through the simulator's own config, so the
// SimConfig mapping is checked against the POSIX host's too.
std::vector<Ev> sim_trace_of(const std::vector<rt::Task>& tasks,
                             const rt::PosixHostConfig& cfg) {
  sim::SimConfig sc;
  sc.policy = cfg.core.policy;
  sc.adaptation = cfg.core.adaptation;
  sc.degradation_factor = cfg.core.degradation_factor;
  sc.horizon = cfg.horizon;
  sc.seed = cfg.seed;
  sc.fault_adversary = cfg.fault_model;
  sc.mode_reset_on_idle = cfg.core.mode_reset_on_idle;
  sc.trace_capacity = cfg.trace_capacity;
  sim::Simulator simulator(tasks, sc);
  (void)simulator.run();
  return normalize(simulator.trace());
}

// Runs the POSIX host free-run and returns both normalized traces after
// requiring them to be bit-identical.
struct BothTraces {
  std::vector<Ev> posix;
  std::vector<Ev> des;
};

BothTraces run_both(const std::vector<rt::Task>& tasks,
                    rt::PosixHostConfig cfg) {
  cfg.time_scale = 0.0;  // free-run: edge semantics, not pacing
  rt::PosixHost host(tasks, cfg);
  const rt::PosixResult result = host.run();
  const check::ReplayDiff diff =
      check::replay_through_sim(tasks, cfg, result.trace);
  EXPECT_TRUE(diff.identical) << diff.message;
  BothTraces both;
  both.posix = normalize(result.trace);
  both.des = sim_trace_of(tasks, cfg);
  EXPECT_EQ(both.posix.size(), both.des.size());
  return both;
}

bool has_event_before(const std::vector<Ev>& trace, std::size_t end, int kind,
                      std::uint32_t task, std::uint64_t job) {
  for (std::size_t i = 0; i < end; ++i) {
    const Ev& e = trace[i];
    if (e.kind == kind && e.task == task && e.job == job) return true;
  }
  return false;
}

}  // namespace

// 1. A LO job that is mid-execution when the criticality switch fires is
//    killed in flight: its kKill has a prior kStart but no completion.
//    (The same scenario also produces the not-yet-started flavor: the LO
//    job killed by the first switch before ever running.)
TEST(RtHostEdge, LoJobKilledMidExecutionAtSwitchInstant) {
  std::vector<rt::Task> tasks = {
      make_task("hi", 20'000, 20'000, 2'000, 6'000, CritLevel::HI,
                /*max_attempts=*/2, /*adapt_threshold=*/1),
      make_task("lo", 24'000, 24'000, 18'000, 24'000, CritLevel::LO,
                /*max_attempts=*/1, /*adapt_threshold=*/1),
  };
  rt::PosixHostConfig cfg;
  cfg.core.adaptation = rt::Adaptation::kKilling;
  cfg.core.mode_reset_on_idle = true;  // re-admit LO between switches
  cfg.horizon = 60'000;
  cfg.fault_model = rt::FaultModel::kExhaustBudget;
  const BothTraces both = run_both(tasks, cfg);

  const auto check_trace = [](const std::vector<Ev>& trace,
                              const char* which) {
    bool killed_mid_execution = false;
    bool killed_before_start = false;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const Ev& e = trace[i];
      if (e.kind != kKill) continue;
      ASSERT_EQ(e.task, 1u) << which << ": only LO jobs may be killed";
      // Every kill coincides with a mode switch.
      bool at_switch = false;
      for (const Ev& s : trace) {
        at_switch |= s.kind == kModeSwitch && s.time == e.time;
      }
      EXPECT_TRUE(at_switch) << which << ": kill without a switch at t="
                             << e.time;
      const bool started = has_event_before(trace, i, kStart, e.task, e.job);
      const bool finished =
          has_event_before(trace, i, kComplete, e.task, e.job) ||
          has_event_before(trace, i, kJobFail, e.task, e.job);
      EXPECT_FALSE(finished) << which << ": killed a finished job";
      killed_mid_execution |= started;
      killed_before_start |= !started;
    }
    EXPECT_TRUE(killed_mid_execution)
        << which << ": no LO job was killed mid-execution";
    EXPECT_TRUE(killed_before_start)
        << which << ": no LO job was killed before starting";
  };
  check_trace(both.posix, "posix");
  check_trace(both.des, "sim");
}

// 2. A fault landing exactly at the faulting job's virtual-deadline
//    instant: the switch fires at t = release + VD on the nose, and the
//    attempt-fail shares that timestamp.
TEST(RtHostEdge, FaultExactlyAtVirtualDeadline) {
  // WCET == VD, adversarial fault on the first attempt: the segment ends
  // (and faults) precisely when the job's virtual deadline expires.
  std::vector<rt::Task> tasks = {
      make_task("hi", 10'000, 10'000, 2'000, 2'000, CritLevel::HI,
                /*max_attempts=*/2, /*adapt_threshold=*/1),
      make_task("lo", 10'000, 10'000, 1'000, 10'000, CritLevel::LO,
                /*max_attempts=*/1, /*adapt_threshold=*/1),
  };
  rt::PosixHostConfig cfg;
  cfg.core.adaptation = rt::Adaptation::kKilling;
  cfg.horizon = 30'000;
  cfg.fault_model = rt::FaultModel::kExhaustBudget;
  const BothTraces both = run_both(tasks, cfg);

  const Tick vd = tasks[0].virtual_deadline;
  const auto check_trace = [vd](const std::vector<Ev>& trace,
                                const char* which) {
    // Find the first attempt-fail of the HI task; it must land exactly at
    // release + VD, with the mode switch at the same instant.
    bool found = false;
    for (std::size_t i = 0; i < trace.size() && !found; ++i) {
      const Ev& e = trace[i];
      if (e.kind != kAttemptFail || e.task != 0) continue;
      found = true;
      EXPECT_EQ(e.time, vd) << which
                            << ": first HI fault not at the VD instant";
      ASSERT_LT(i + 1, trace.size()) << which;
      EXPECT_EQ(trace[i + 1].kind, kModeSwitch) << which;
      EXPECT_EQ(trace[i + 1].time, e.time) << which;
    }
    EXPECT_TRUE(found) << which << ": adversary never faulted the HI task";
  };
  check_trace(both.posix, "posix");
  check_trace(both.des, "sim");
}

// 3. Back-to-back faults exhausting the re-execution budget: a job whose
//    every attempt faults emits exactly max_attempts kAttemptFail events
//    spaced one segment WCET apart, then kJobFail — and never completes.
TEST(RtHostEdge, BackToBackFaultsExhaustBudget) {
  std::vector<rt::Task> tasks = {
      make_task("hi", 5'000, 5'000, 500, 5'000, CritLevel::HI,
                /*max_attempts=*/3, /*adapt_threshold=*/99),
  };
  tasks[0].failure_prob = 0.95;  // virtually every attempt faults
  rt::PosixHostConfig cfg;
  cfg.core.adaptation = rt::Adaptation::kNone;
  cfg.horizon = 100'000;
  cfg.seed = 7;
  cfg.fault_model = rt::FaultModel::kBernoulli;
  const BothTraces both = run_both(tasks, cfg);

  const Tick wcet = tasks[0].wcet;
  const auto check_trace = [wcet](const std::vector<Ev>& trace,
                                  const char* which) {
    std::size_t exhausted = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const Ev& e = trace[i];
      if (e.kind != kJobFail) continue;
      ++exhausted;
      // Exactly three attempt-fails for this job, back to back: each
      // re-execution runs uninterrupted (single task), so consecutive
      // faults are one segment WCET apart, the last at the kJobFail time.
      std::vector<Tick> fail_times;
      for (std::size_t j = 0; j < i; ++j) {
        if (trace[j].kind == kAttemptFail && trace[j].task == e.task &&
            trace[j].job == e.job) {
          fail_times.push_back(trace[j].time);
        }
      }
      ASSERT_EQ(fail_times.size(), 3u) << which;
      EXPECT_EQ(fail_times[1], fail_times[0] + wcet) << which;
      EXPECT_EQ(fail_times[2], fail_times[1] + wcet) << which;
      EXPECT_EQ(fail_times[2], e.time) << which;
      EXPECT_FALSE(has_event_before(trace, i, kComplete, e.task, e.job))
          << which << ": an exhausted job also completed";
    }
    // 20 jobs at p = 0.95 per attempt: the chance of zero exhaustions is
    // (1 - 0.95^3)^20 ~ 1e-17, and the run is seed-deterministic anyway.
    EXPECT_GT(exhausted, 0u) << which;
  };
  check_trace(both.posix, "posix");
  check_trace(both.des, "sim");
}

// 4. Admission control: a task the core rejects would leave the host's
//    task table longer than the core's, so the run is refused at
//    construction with an error naming the task and the core's reason.
TEST(RtHostEdge, AdmissionRejectionRefusesTheRunNamingTheTask) {
  const std::vector<rt::Task> tasks = {
      make_task("first", 10'000, 10'000, 9'000, 10'000, CritLevel::LO,
                /*max_attempts=*/1, /*adapt_threshold=*/1),  // density 0.9
      make_task("second", 10'000, 10'000, 5'000, 10'000, CritLevel::LO,
                /*max_attempts=*/1, /*adapt_threshold=*/1),  // density 0.5
  };
  rt::PosixHostConfig cfg;
  cfg.core.admission_control = true;
  cfg.horizon = 100'000;
  try {
    rt::PosixHost host(tasks, cfg);
    FAIL() << "a run with a rejected task was constructed";
  } catch (const ftmc::ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("task 'second'"), std::string::npos) << what;
    EXPECT_NE(what.find("LO-mode density would exceed 1"), std::string::npos)
        << what;
  }

  // Without the second task the same configuration runs.
  rt::PosixHost ok({tasks[0]}, cfg);
  EXPECT_EQ(ok.run().stats.per_task.size(), 1u);
}
