#include "ftmc/rt/types.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "ftmc/rt/event.hpp"

namespace ftmc::rt {

Tick segment_wcet(Tick wcet, int segments, double checkpoint_overhead) {
  if (segments == 1 && checkpoint_overhead == 0.0) return wcet;
  const double piece = static_cast<double>(wcet) / segments;
  const double save = checkpoint_overhead * static_cast<double>(wcet);
  return std::max<Tick>(static_cast<Tick>(piece + save + 0.5), 1);
}

double segment_failure_prob(double failure_prob, int segments) {
  if (segments == 1) return failure_prob;
  if (failure_prob <= 0.0) return 0.0;
  return -std::expm1(std::log1p(-failure_prob) /
                     static_cast<double>(segments));
}

std::string_view to_string(Policy policy) {
  switch (policy) {
    case Policy::kEdf: return "edf";
    case Policy::kEdfVd: return "edf-vd";
    case Policy::kFixedPriority: return "fixed-priority";
  }
  return "unknown";
}

std::string_view to_string(Adaptation adaptation) {
  switch (adaptation) {
    case Adaptation::kNone: return "none";
    case Adaptation::kKilling: return "killing";
    case Adaptation::kDegradation: return "degradation";
  }
  return "unknown";
}

bool policy_from_string(std::string_view name, Policy& out) {
  for (const Policy p :
       {Policy::kEdf, Policy::kEdfVd, Policy::kFixedPriority}) {
    if (name == to_string(p)) {
      out = p;
      return true;
    }
  }
  return false;
}

bool adaptation_from_string(std::string_view name, Adaptation& out) {
  for (const Adaptation a :
       {Adaptation::kNone, Adaptation::kKilling, Adaptation::kDegradation}) {
    if (name == to_string(a)) {
      out = a;
      return true;
    }
  }
  return false;
}

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kRelease: return "release";
    case EventKind::kStart: return "start";
    case EventKind::kPreempt: return "preempt";
    case EventKind::kAttemptFail: return "attempt-fail";
    case EventKind::kComplete: return "complete";
    case EventKind::kJobFail: return "job-fail";
    case EventKind::kDeadlineMiss: return "deadline-miss";
    case EventKind::kModeSwitch: return "mode-switch";
    case EventKind::kModeReset: return "mode-reset";
    case EventKind::kKill: return "kill";
  }
  return "unknown";
}

std::ostream& operator<<(std::ostream& os, const Event& event) {
  os << "[" << event.time << "] " << to_string(event.kind)
     << " task=" << event.task << " job=" << event.job;
  if (event.detail != 0) os << " attempt=" << event.detail;
  return os;
}

}  // namespace ftmc::rt
