/// \file driver.hpp
/// \brief The one host loop of the runtime core, parameterized by a clock.
///
/// `Core` decides; a host supplies time, arrivals and randomness. `Driver`
/// is that host half, written once: it owns the release queue, arrival
/// generation (synchronous, random-phase or sporadic), fault and
/// execution-time sampling, the release adjustments of a mode change, and
/// the fold of the core's counters into run statistics. The two shipped
/// hosts differ only in their clock and their trace sink:
///  - sim::Simulator runs the loop on a `VirtualClock` (decision instants
///    follow each other with no waiting) and records traces and metrics;
///  - rt::PosixHost runs it on a CLOCK_MONOTONIC-paced clock and keeps
///    pacing, the async-signal-safe stop and lateness sampling.
///
/// Both consume one seeded mt19937_64 in the order the core's callbacks
/// fix, so a run is determined by (tasks, RunConfig) whichever clock
/// drives it — the trace-replay contract ftmc::check enforces.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "ftmc/rt/core.hpp"

namespace ftmc::rt {

/// One task as a host runs it: the core's parameters (passed to
/// `Core::add_task` as its TaskParams) plus a display name and the
/// host-owned fault and checkpoint model.
///
/// Checkpointing (core::CheckpointScheme semantics): a job runs as
/// `segments` pieces of C/k each plus a checkpoint save of
/// `checkpoint_overhead * C` after each piece; a fault re-runs only the
/// current segment. `max_attempts` then bounds total segment faults to
/// max_attempts - 1 (the retry budget R), and the mode switch triggers
/// once a HI job has accumulated `adapt_threshold` faults. segments == 1
/// with zero overhead is exactly the paper's full re-execution model.
struct Task : TaskParams {
  std::string name;
  double failure_prob = 0.0;  ///< f_i per full execution attempt
  double checkpoint_overhead = 0.0;  ///< fraction of C per checkpoint save
};

/// Who decides whether a segment's sanity check fails.
enum class FaultModel : std::uint8_t {
  kNone,  ///< no faults ever (pure schedule)
  /// i.i.d. per-segment faults with the probability segment_failure_prob
  /// derives from f_i (the paper's fault model).
  kBernoulli,
  /// Deterministic worst case: every job fails all but its last permitted
  /// attempt and succeeds on the last one. Demand is maximal (a job
  /// consumes its full re-execution budget n_i * C_i), the criticality
  /// change of a HI job fires at the latest possible instant, and — unlike
  /// f_i -> 1 — every job still completes, so deadline misses remain
  /// observable. ftmc::check validates schedulability claims with it.
  kExhaustBudget,
};

/// Stable dump names ("none", "bernoulli", "exhaust-budget") used by the
/// black-box format; the inverse returns false on unknown names.
[[nodiscard]] std::string_view to_string(FaultModel model);
[[nodiscard]] bool fault_model_from_string(std::string_view name,
                                           FaultModel& out);

/// How long one segment execution takes.
enum class ExecTimeModel : std::uint8_t {
  kAlwaysWcet,  ///< every segment takes its WCET (paper footnote 1)
  kUniform,     ///< uniform in [exec_min_fraction, 1] of the WCET
};

/// The inputs of one run besides the tasks.
struct RunConfig {
  CoreConfig core;
  Tick horizon = 0;  ///< run [0, horizon)
  std::uint64_t seed = 1;
  FaultModel faults = FaultModel::kBernoulli;
  ExecTimeModel exec_model = ExecTimeModel::kAlwaysWcet;
  double exec_min_fraction = 1.0;  ///< lower bound for kUniform
  /// First releases uniform in [0, T_i) instead of the synchronous
  /// critical instant t = 0.
  bool random_phasing = false;
  /// Sporadic arrivals: an exponential extra gap of mean
  /// `jitter_fraction * T` between consecutive releases; otherwise
  /// strictly periodic (minimal inter-arrival, the worst case).
  bool sporadic_arrivals = false;
  double jitter_fraction = 0.1;
};

/// Statistics of one run: the core's counters plus the host's busy time.
struct RunStats {
  std::vector<TaskCounters> per_task;
  std::uint64_t preemptions = 0;
  std::uint64_t mode_switches = 0;  ///< LO -> HI transitions
  std::uint64_t mode_resets = 0;    ///< HI -> LO transitions (if enabled)
  Tick first_mode_switch = kNever;
  Tick busy_time = 0;  ///< processor non-idle time
  Tick horizon = 0;    ///< run duration

  [[nodiscard]] double utilization_observed() const {
    return horizon > 0 ? static_cast<double>(busy_time) /
                             static_cast<double>(horizon)
                       : 0.0;
  }
  [[nodiscard]] double simulated_hours() const {
    return static_cast<double>(horizon) /
           static_cast<double>(sim::kTicksPerHour);
  }
};

/// Virtual time: no waiting between decision instants, no stop requests.
struct VirtualClock {
  void pace_to(Tick /*t*/) noexcept {}
  [[nodiscard]] bool stop_requested() const noexcept { return false; }
};

/// The host loop. A concrete host derives from it, overrides `emit` (and
/// optionally `on_context_switch`) as its trace sink, and calls
/// `run(clock)` once. A Clock provides `pace_to(Tick)`, called before the
/// loop advances to each decision instant, and `stop_requested()`, tested
/// once per instant.
class Driver : public Host {
 public:
  /// Validates every task (errors name the task), registers it with the
  /// core and starts the core. A task the core's admission control
  /// rejects makes the run invalid: the error names the task and the
  /// core's reason.
  Driver(std::vector<Task> tasks, const RunConfig& config);

  [[nodiscard]] const std::vector<Task>& tasks() const noexcept {
    return tasks_;
  }

 protected:
  [[nodiscard]] const Core& core() const noexcept { return core_; }

  /// Drives the core over [0, horizon) or until the clock asks to stop.
  /// May be called once per instance.
  template <class Clock>
  RunStats run(Clock& clock);

 private:
  struct Release {
    Tick time = 0;
    std::uint64_t seq = 0;  ///< FIFO tiebreak for determinism
    std::uint32_t task = 0;
  };
  friend bool operator>(const Release& a, const Release& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }

  // Host callbacks: randomness and arrivals. `emit` is the concrete
  // host's.
  [[nodiscard]] Tick sample_segment_time(std::uint32_t task) final;
  [[nodiscard]] bool sample_fault(std::uint32_t task,
                                  int faults_so_far) final;
  void on_mode_change(CritLevel mode, Tick now) final;

  /// Queues the initial release of every task (run start).
  void start_releases();
  /// The earliest live release, dropping stale entries; kNever if none.
  Tick next_release();
  /// Releases every live entry due at or before `now`.
  void release_due(Tick now);
  void schedule_next_release(std::uint32_t task, Tick from);
  void push_release(std::uint32_t task, Tick at);
  [[nodiscard]] RunStats fold(Tick busy_time) const;

  std::vector<Task> tasks_;
  RunConfig config_;
  std::mt19937_64 rng_;
  Core core_;
  /// Pending releases, sorted descending by (time, seq): back() is the
  /// earliest, so pop is pop_back(). Reserved for one live entry per task
  /// plus slack for the stale duplicates mode changes leave behind, so
  /// the release path does not allocate in steady state. A sorted array
  /// beats heap sifting at ~n_tasks entries and — unlike a per-task table
  /// — keeps the exact (time, seq) pop order, stale duplicates included.
  std::vector<Release> release_queue_;
  std::vector<Tick> next_release_;  ///< per task; kNever when suppressed
  std::uint64_t release_seq_ = 0;
  bool ran_ = false;
};

// The loop and its per-instant helpers are inline so that each host's
// instantiation compiles them with its clock in one translation unit.

inline void Driver::push_release(std::uint32_t task, Tick at) {
  next_release_[task] = at;
  const Release r{at, ++release_seq_, task};
  // (time, seq) is a total order (seq is unique), so the queue pops in
  // exactly the order a binary heap on the same key would.
  release_queue_.insert(
      std::upper_bound(release_queue_.begin(), release_queue_.end(), r,
                       [](const Release& a, const Release& b) {
                         return a > b;
                       }),
      r);
}

inline void Driver::schedule_next_release(std::uint32_t task, Tick from) {
  // current_period() folds in the d_f stretch of LO tasks in HI mode.
  const double period = core_.current_period(task);
  Tick gap = static_cast<Tick>(period);
  if (config_.sporadic_arrivals) {
    std::exponential_distribution<double> jitter(
        1.0 / (config_.jitter_fraction * period));
    gap += static_cast<Tick>(jitter(rng_));
  }
  push_release(task, from + gap);
}

inline Tick Driver::next_release() {
  while (!release_queue_.empty()) {
    const Release& top = release_queue_.back();
    if (next_release_[top.task] == top.time) return top.time;
    release_queue_.pop_back();  // stale: postponed or suppressed since
  }
  return kNever;
}

inline void Driver::release_due(Tick now) {
  while (!release_queue_.empty() && release_queue_.back().time <= now) {
    const Release r = release_queue_.back();
    release_queue_.pop_back();
    if (next_release_[r.task] != r.time) continue;  // stale
    core_.on_release(r.task, r.time);
    schedule_next_release(r.task, r.time);
  }
}

template <class Clock>
RunStats Driver::run(Clock& clock) {
  start_releases();
  Tick now = 0;
  Tick busy = 0;
  while (now < config_.horizon && !clock.stop_requested()) {
    if (!core_.has_ready()) {
      // Idle until the next release (if any within the horizon).
      core_.on_idle(now);
      const Tick next = next_release();
      if (next == kNever || next >= config_.horizon) break;
      clock.pace_to(next);
      now = next;
      release_due(now);
      continue;
    }

    core_.dispatch(now);
    const Tick completion = now + core_.running_remaining();
    const Tick next_rel =
        release_queue_.empty() ? kNever : release_queue_.back().time;
    const Tick until = std::min({completion, next_rel, config_.horizon});

    // Execute the running segment up to the next decision instant.
    clock.pace_to(until);
    busy += until - now;
    core_.run_for(until - now);
    now = until;
    if (now >= config_.horizon) break;

    if (core_.running_remaining() == 0) core_.on_segment_boundary(now);
    release_due(now);
  }
  return fold(busy);
}

}  // namespace ftmc::rt
