/// \file engine.hpp
/// \brief Discrete-event simulator for a preemptive uniprocessor running a
///        fault-tolerant mixed-criticality workload.
///
/// Faithful to the paper's runtime model:
///  - each job executes up to n_i attempts; a per-attempt Bernoulli(f_i)
///    sanity check decides success;
///  - when a HI job starts its (n'_i + 1)-th attempt the system switches to
///    HI mode: LO jobs are killed (and future LO releases suppressed) or LO
///    periods are stretched by d_f from their next arrival on;
///  - under EDF-VD, HI jobs are ordered by virtual deadline in LO mode and
///    by true deadline in HI mode.
///
/// The simulator is the runtime core's host loop (ftmc::rt::Driver) run on
/// virtual time: the loop owns the release queue, arrivals, execution
/// times and faults, the core makes every scheduling decision — who runs,
/// virtual deadlines, the criticality switch, re-execution, degradation —
/// and the simulator adds observation (trace, metrics, statistics).
/// docs/runtime.md describes the split; the POSIX host (ftmc::rt::PosixHost)
/// runs the identical loop against the wall clock.
///
/// Metrics: while obs::Registry::global() is enabled, every run adds its
/// totals (the core's own counters, folded into SimStats) to
/// sim.releases, sim.completions, sim.reexecutions, sim.job_failures,
/// sim.deadline_misses, sim.kills, sim.preemptions, sim.mode_switches and
/// sim.mode_resets, once, when it ends.
#pragma once

#include "ftmc/mcs/schedulability.hpp"
#include "ftmc/rt/driver.hpp"
#include "ftmc/sim/model.hpp"
#include "ftmc/sim/stats.hpp"
#include "ftmc/sim/trace.hpp"

namespace ftmc::sim {

/// Run configuration.
struct SimConfig {
  PolicyKind policy = PolicyKind::kEdfVd;
  /// What the mode switch does to LO tasks.
  mcs::AdaptationKind adaptation = mcs::AdaptationKind::kKilling;
  /// d_f: LO inter-arrival stretch after the switch (kDegradation only).
  double degradation_factor = 1.0;
  Tick horizon = kTicksPerHour;  ///< simulate [0, horizon)
  std::uint64_t seed = 1;

  /// Arrival model: strictly periodic (minimal inter-arrival, the
  /// worst case) or sporadic with an exponential extra gap of mean
  /// `jitter_fraction * T` between consecutive releases.
  bool sporadic_arrivals = false;
  double jitter_fraction = 0.1;

  /// When true, each task's first release is drawn uniformly from
  /// [0, T_i) instead of the synchronous critical instant at t = 0.
  /// Useful for Monte-Carlo PFH estimation where the synchronous burst
  /// would bias short-horizon statistics.
  bool random_phasing = false;

  ExecTimeModel exec_model = ExecTimeModel::kAlwaysWcet;
  double exec_min_fraction = 1.0;  ///< lower bound for kUniform

  /// Fault model (rt::FaultModel): random per-attempt faults, the
  /// deterministic worst-case adversary that consumes every job's full
  /// re-execution budget, or none.
  FaultAdversary fault_adversary = FaultAdversary::kBernoulli;

  /// Return to LO mode at the first processor-idle instant after a switch
  /// (a common MC runtime extension; off by default to match the paper's
  /// latched-mode analysis).
  bool mode_reset_on_idle = false;

  /// Keep at most this many trace events (0 disables tracing).
  std::size_t trace_capacity = 0;

  /// Entries in the core's always-on black-box flight recorder (see
  /// ftmc/rt/flight_recorder.hpp); unlike the trace it survives with a
  /// bounded tail even when tracing is off.
  std::size_t black_box_capacity = 256;
};

/// The simulator: the host loop on virtual time plus trace recording.
/// Construct, run once, inspect stats/trace.
class Simulator : private rt::Driver {
 public:
  Simulator(std::vector<SimTask> tasks, const SimConfig& config);

  /// Runs exactly `run` — loop inputs another host derived, its whole core
  /// configuration included — keeping up to `trace_capacity` events.
  /// Replay rebuilds a PosixHost run this way (rt::run_config).
  Simulator(std::vector<SimTask> tasks, const rt::RunConfig& run,
            std::size_t trace_capacity);

  /// Runs the full horizon and returns the aggregated statistics (and
  /// publishes their totals; see the file comment). May be called once
  /// per instance.
  SimStats run();

  [[nodiscard]] const std::vector<TraceEvent>& trace() const noexcept {
    return trace_;
  }
  using Driver::tasks;

  /// The core's black-box flight recorder (valid for the simulator's
  /// lifetime; inspect after run() for the post-mortem tail).
  [[nodiscard]] const rt::FlightRecorder& black_box() const noexcept {
    return core().black_box();
  }

  /// Total temporal-domain failures (exhausted re-execution budgets,
  /// kills, deadline misses) of the tasks at `level`. This is the raw
  /// Poisson count behind empirical_pfh(); validation code needs it to
  /// attach an exact (Garwood) confidence interval. Valid after run().
  [[nodiscard]] std::uint64_t failure_count(const SimStats& stats,
                                            CritLevel level) const;

  /// Empirical PFH of the tasks at `level`: temporal-domain failures per
  /// simulated hour. Valid after run().
  [[nodiscard]] double empirical_pfh(const SimStats& stats,
                                     CritLevel level) const;

 private:
  /// Trace sink of the loop. A single byte test when tracing is off (the
  /// common case), the recording out of line.
  void emit(const rt::Event& event) override {
    if (tracing_) record(event);
  }
  void record(const rt::Event& event);

  bool tracing_ = false;  ///< trace_capacity_ > 0
  std::size_t trace_capacity_ = 0;
  std::vector<TraceEvent> trace_;
};

/// One-call helper: build tasks from the analysis model, run, and return
/// the stats (used by validation benches and tests).
SimStats simulate(const core::FtTaskSet& ts, int n_hi, int n_lo,
                  int n_adapt_hi, double virtual_deadline_factor,
                  const SimConfig& config);

}  // namespace ftmc::sim
