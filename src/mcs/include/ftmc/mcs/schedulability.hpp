/// \file schedulability.hpp
/// \brief Common interface for mixed-criticality schedulability tests.
///
/// FT-S (Algorithm 1 of the paper) is parameterized by a mixed-criticality
/// scheduling technique S; all it needs is a yes/no schedulability answer on
/// a converted task set. Concrete tests (EDF-VD, EDF-VD with degradation,
/// plain EDF, AMC-rtb) implement this interface; the fault-tolerant layer
/// never special-cases a particular algorithm except through the optional
/// fast paths it advertises.
#pragma once

#include <memory>
#include <string>

#include "ftmc/mcs/task.hpp"

namespace ftmc::mcs {

/// How the scheduling technique treats LO-criticality tasks after a mode
/// switch — this decides which PFH bound (Lemma 3.3 vs Lemma 3.4) the
/// fault-tolerant layer must apply.
using AdaptationKind = ftmc::Adaptation;

/// Abstract sufficient schedulability test for dual-criticality task sets.
class SchedulabilityTest {
 public:
  virtual ~SchedulabilityTest() = default;

  /// Returns true iff the test proves the task set schedulable by the
  /// underlying scheduling technique. A `false` answer means "not proven",
  /// as usual for sufficient tests.
  [[nodiscard]] virtual bool schedulable(const McTaskSet& ts) const = 0;

  /// Human-readable name of the technique (for reports and benches).
  [[nodiscard]] virtual std::string name() const = 0;

  /// What happens to LO tasks when the system switches to HI mode.
  [[nodiscard]] virtual AdaptationKind adaptation() const = 0;

  /// True iff the test is only valid for implicit-deadline task sets; such
  /// tests must reject (not mis-answer) non-implicit inputs.
  [[nodiscard]] virtual bool requires_implicit_deadlines() const {
    return false;
  }
};

using SchedulabilityTestPtr = std::shared_ptr<const SchedulabilityTest>;

}  // namespace ftmc::mcs
