/// \file event.hpp
/// \brief Scheduling events emitted by the runtime core to its host.
///
/// The event stream is the core's *only* output channel besides the
/// counters: hosts derive traces, metrics and statistics from it. Two
/// hosts driven with the same inputs must produce the same event stream —
/// that is the differential trace-replay property `ftmc::check` enforces.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>

#include "ftmc/rt/types.hpp"

namespace ftmc::rt {

/// What happened. Every host's trace, metrics and statistics are built
/// from this one vocabulary.
enum class EventKind : std::uint8_t {
  kRelease,       ///< a job arrived
  kStart,         ///< a job (attempt) got the processor
  kPreempt,       ///< the running job was preempted
  kAttemptFail,   ///< a segment finished but the sanity check failed
  kComplete,      ///< a job finished successfully
  kJobFail,       ///< all attempts of a job failed
  kDeadlineMiss,  ///< a job completed after its absolute deadline
  kModeSwitch,    ///< the system entered HI mode
  kModeReset,     ///< the system returned to LO mode (idle instant)
  kKill,          ///< a LO job was discarded at the mode switch
};

[[nodiscard]] std::string_view to_string(EventKind kind);

/// One event. `task` indexes the core's task table; `job` is the per-task
/// job sequence number; `detail` is kind-specific (attempt number for
/// kStart/kAttemptFail, 0 otherwise). `release` and `abs_deadline` carry
/// the job's timing so hosts can compute response times and lateness
/// without shadowing core state (0 for the system events
/// kModeSwitch/kModeReset).
struct Event {
  Tick time = 0;
  EventKind kind = EventKind::kRelease;
  std::uint32_t task = 0;
  std::uint64_t job = 0;
  std::uint32_t detail = 0;
  Tick release = 0;
  Tick abs_deadline = 0;

  friend bool operator==(const Event&, const Event&) = default;
};

/// "[time] kind task=T job=J" plus " attempt=A" when detail is set.
std::ostream& operator<<(std::ostream& os, const Event& event);

}  // namespace ftmc::rt
