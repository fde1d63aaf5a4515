/// \file types.hpp
/// \brief Basic types of the embeddable EDF-VD runtime core.
///
/// `ftmc::rt` is the *policy* half of the fault-tolerant mixed-criticality
/// runtime the paper describes: EDF-VD virtual deadlines, the LO->HI
/// criticality switch, re-execution of faulted jobs, and degraded (d_f)
/// service. It is freestanding by design — the only dependencies are
/// `ftmc::common` headers — so that the same core can be hosted by the
/// discrete-event simulator, a POSIX process, or (later) bare metal.
#pragma once

#include <cstdint>
#include <string_view>

#include "ftmc/common/criticality.hpp"
#include "ftmc/common/time.hpp"

namespace ftmc::rt {

/// The core is tick-driven; a tick is the simulator's microsecond.
using Tick = sim::Tick;
using sim::kNever;

/// Scheduling policy the core executes.
enum class Policy : std::uint8_t {
  kEdf,            ///< single-criticality EDF on true deadlines
  kEdfVd,          ///< EDF-VD: virtual deadlines for HI jobs in LO mode
  kFixedPriority,  ///< fixed priorities (smaller value = more important)
};

/// What the LO->HI criticality switch does to LO tasks (kNone, kKilling:
/// discard ready LO jobs and suppress LO releases, kDegradation: stretch
/// LO periods and deadlines by d_f). One enum with the analysis side.
using ftmc::Adaptation;

/// Stable dump names ("edf-vd", "killing", ...) used by the black-box
/// format; inverses return false on unknown names.
[[nodiscard]] std::string_view to_string(Policy policy);
[[nodiscard]] std::string_view to_string(Adaptation adaptation);
[[nodiscard]] bool policy_from_string(std::string_view name, Policy& out);
[[nodiscard]] bool adaptation_from_string(std::string_view name,
                                          Adaptation& out);

/// Static parameters of one task as the runtime core sees it. All times in
/// ticks. Names, failure probabilities and execution-time distributions are
/// host concerns — the core only decides *who runs next*.
struct TaskParams {
  Tick period = 0;            ///< minimal inter-arrival in LO mode
  Tick deadline = 0;          ///< relative deadline
  Tick wcet = 0;              ///< budget of ONE execution attempt (C_i)
  /// Relative virtual deadline used for HI jobs in LO mode under kEdfVd
  /// (x * D_i); LO tasks and other policies ignore it.
  Tick virtual_deadline = 0;
  CritLevel crit = CritLevel::LO;
  int max_attempts = 1;       ///< n_i: attempts per job before giving up
  /// n'_i: a HI job accumulating this many faults triggers the mode
  /// switch; >= max_attempts means the trigger can never fire; 0 fires at
  /// the job's release.
  int adapt_threshold = 1;
  int priority = 0;           ///< kFixedPriority rank (smaller = higher)
  /// Checkpointing: the job runs as `segments` pieces (see rt::Task);
  /// 1 = the paper's full re-execution.
  int segments = 1;
};

/// Verdict of `Core::add_task` admission control.
struct Admission {
  bool admitted = true;
  /// Static string describing the rejection; nullptr when admitted.
  const char* reason = nullptr;
};

/// Per-task runtime counters maintained by the core; hosts report them
/// as the per-task part of their run statistics.
struct TaskCounters {
  std::uint64_t released = 0;       ///< jobs that arrived
  std::uint64_t completed = 0;      ///< jobs that finished successfully
  std::uint64_t attempts = 0;       ///< executed segments (incl. faulted)
  std::uint64_t faults = 0;         ///< segment executions that faulted
  std::uint64_t job_failures = 0;   ///< jobs that exhausted every attempt
  std::uint64_t killed = 0;         ///< jobs discarded at a mode switch
  std::uint64_t deadline_misses = 0;  ///< completions after the deadline
  Tick max_response = 0;    ///< worst observed response time (completions)
  Tick total_response = 0;  ///< sum of response times over completions

  /// Mean observed response time of completed jobs (0 if none completed).
  [[nodiscard]] double avg_response() const {
    return completed > 0 ? static_cast<double>(total_response) /
                               static_cast<double>(completed)
                         : 0.0;
  }
  /// Temporal-domain failures in the paper's sense (Sec. 2.1): a job fails
  /// if it "does not successfully finish by its deadline" — exhausted
  /// attempts, killed, or completed late.
  [[nodiscard]] std::uint64_t temporal_failures() const {
    return job_failures + killed + deadline_misses;
  }
};

/// Whole-core counters.
struct CoreCounters {
  std::uint64_t preemptions = 0;
  std::uint64_t mode_switches = 0;  ///< LO -> HI transitions
  std::uint64_t mode_resets = 0;    ///< HI -> LO transitions (if enabled)
  Tick first_mode_switch = kNever;
};

/// Nominal duration of one segment including its checkpoint save, shared
/// by every host so that segment accounting is bit-identical across them
/// (mirrors core::CheckpointScheme semantics).
[[nodiscard]] Tick segment_wcet(Tick wcet, int segments,
                                double checkpoint_overhead);

/// Effective per-segment failure probability 1 - (1-f)^(1/k): faults
/// arrive proportionally to executed length.
[[nodiscard]] double segment_failure_prob(double failure_prob, int segments);

}  // namespace ftmc::rt
