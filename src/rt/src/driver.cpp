#include "ftmc/rt/driver.hpp"

#include "ftmc/common/contracts.hpp"

namespace ftmc::rt {

std::string_view to_string(FaultModel model) {
  switch (model) {
    case FaultModel::kNone: return "none";
    case FaultModel::kBernoulli: return "bernoulli";
    case FaultModel::kExhaustBudget: return "exhaust-budget";
  }
  return "unknown";
}

bool fault_model_from_string(std::string_view name, FaultModel& out) {
  for (const FaultModel m : {FaultModel::kNone, FaultModel::kBernoulli,
                             FaultModel::kExhaustBudget}) {
    if (name == to_string(m)) {
      out = m;
      return true;
    }
  }
  return false;
}

Driver::Driver(std::vector<Task> tasks, const RunConfig& config)
    : tasks_(std::move(tasks)),
      config_(config),
      rng_(config.seed),
      core_(config.core, static_cast<Host&>(*this)) {
  FTMC_EXPECTS(!tasks_.empty(), "a run needs at least one task");
  FTMC_EXPECTS(config_.horizon > 0, "the run horizon must be positive");
  if (config_.exec_model == ExecTimeModel::kUniform) {
    FTMC_EXPECTS(config_.exec_min_fraction > 0.0 &&
                     config_.exec_min_fraction <= 1.0,
                 "exec_min_fraction must lie in (0, 1]");
  }
  for (const Task& t : tasks_) {
    const auto bad = [&t](const char* what) {
      return "task '" + t.name + "': " + what;
    };
    FTMC_EXPECTS(t.period > 0 && t.deadline > 0 && t.wcet > 0,
                 bad("malformed timing parameters"));
    FTMC_EXPECTS(t.max_attempts >= 1, bad("needs at least one attempt"));
    FTMC_EXPECTS(t.adapt_threshold >= 0,
                 bad("adaptation threshold must be non-negative"));
    FTMC_EXPECTS(t.virtual_deadline > 0 && t.virtual_deadline <= t.deadline,
                 bad("virtual deadline out of range"));
    FTMC_EXPECTS(t.segments >= 1, bad("needs at least one segment"));
    FTMC_EXPECTS(t.failure_prob >= 0.0 && t.failure_prob < 1.0,
                 bad("failure probability out of range"));
    FTMC_EXPECTS(t.checkpoint_overhead >= 0.0 && t.checkpoint_overhead < 1.0,
                 bad("checkpoint overhead out of range"));
    // The loop indexes the core's task table by position, so every task
    // must be in it.
    const Admission verdict = core_.add_task(t);
    FTMC_EXPECTS(verdict.admitted,
                 bad("rejected by admission control: ") + verdict.reason);
  }
  core_.start();
  next_release_.assign(tasks_.size(), 0);
  release_queue_.reserve(4 * tasks_.size() + 16);
}

Tick Driver::sample_segment_time(std::uint32_t task) {
  const Task& t = tasks_[task];
  const Tick nominal = segment_wcet(t.wcet, t.segments, t.checkpoint_overhead);
  if (config_.exec_model == ExecTimeModel::kAlwaysWcet) return nominal;
  std::uniform_real_distribution<double> dist(config_.exec_min_fraction, 1.0);
  const Tick sampled =
      static_cast<Tick>(dist(rng_) * static_cast<double>(nominal));
  return std::max<Tick>(sampled, 1);
}

bool Driver::sample_fault(std::uint32_t task, int faults_so_far) {
  const Task& t = tasks_[task];
  switch (config_.faults) {
    case FaultModel::kNone:
      return false;
    case FaultModel::kExhaustBudget:
      // Fail every segment execution while the job still has retry
      // budget left, succeed on the last permitted one.
      return faults_so_far < t.max_attempts - 1;
    case FaultModel::kBernoulli:
      break;
  }
  std::bernoulli_distribution fault(
      segment_failure_prob(t.failure_prob, t.segments));
  return fault(rng_);
}

void Driver::on_mode_change(CritLevel mode, Tick now) {
  const Adaptation adaptation = config_.core.adaptation;
  if (mode == CritLevel::HI) {
    if (adaptation == Adaptation::kKilling) {
      // Suppress future LO releases.
      for (std::uint32_t i = 0; i < tasks_.size(); ++i) {
        if (tasks_[i].crit == CritLevel::LO) next_release_[i] = kNever;
      }
    } else if (adaptation == Adaptation::kDegradation) {
      // Pending next releases are pushed out so that the inter-arrival
      // from the *previous* release grows to d_f * T.
      for (std::uint32_t i = 0; i < tasks_.size(); ++i) {
        const Task& t = tasks_[i];
        if (t.crit != CritLevel::LO || next_release_[i] == kNever) continue;
        push_release(i, next_release_[i] +
                            static_cast<Tick>(
                                (config_.core.degradation_factor - 1.0) *
                                static_cast<double>(t.period)));
      }
    }
    return;
  }
  // HI -> LO reset at an idle instant: re-admit killed LO tasks from now.
  if (adaptation == Adaptation::kKilling) {
    for (std::uint32_t i = 0; i < tasks_.size(); ++i) {
      if (tasks_[i].crit == CritLevel::LO && next_release_[i] == kNever) {
        push_release(i, now);
      }
    }
  }
}

void Driver::start_releases() {
  FTMC_EXPECTS(!ran_, "a host may run only once");
  ran_ = true;
  // Synchronous release at t = 0 (the critical instant), or uniformly
  // random phases when configured.
  for (std::uint32_t i = 0; i < tasks_.size(); ++i) {
    Tick phase = 0;
    if (config_.random_phasing) {
      std::uniform_int_distribution<Tick> dist(0, tasks_[i].period - 1);
      phase = dist(rng_);
    }
    next_release_[i] = phase;
    release_queue_.push_back({phase, ++release_seq_, i});
  }
  std::sort(release_queue_.begin(), release_queue_.end(),
            [](const Release& a, const Release& b) { return a > b; });
}

RunStats Driver::fold(Tick busy_time) const {
  RunStats stats;
  stats.per_task.reserve(tasks_.size());
  for (std::uint32_t i = 0; i < tasks_.size(); ++i) {
    stats.per_task.push_back(core_.task_counters(i));
  }
  const CoreCounters& cc = core_.counters();
  stats.preemptions = cc.preemptions;
  stats.mode_switches = cc.mode_switches;
  stats.mode_resets = cc.mode_resets;
  stats.first_mode_switch = cc.first_mode_switch;
  stats.busy_time = busy_time;
  stats.horizon = config_.horizon;
  return stats;
}

}  // namespace ftmc::rt
