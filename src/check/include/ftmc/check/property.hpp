/// \file property.hpp
/// \brief The registry of executable properties the fuzzer checks.
///
/// Three paper-facing families, mirroring how the paper's claims can actually be
/// falsified:
///  - analysis-vs-sim: a schedulability verdict is a *promise about
///    executions* — any accepted set must survive bounded simulation
///    under the deterministic worst-case fault adversary with zero
///    deadline misses;
///  - sufficient-vs-exact: a sufficient test must accept a subset of
///    what an exact oracle (demand-bound test, exact RTA, optimal
///    priority assignment) accepts;
///  - pfh-metamorphic: the PFH bound formulas (Lemmas 3.1-3.4) must obey
///    relations that hold for the true probabilities — monotonicity in
///    the fault rate, anti-monotonicity in the re-execution budget,
///    invariance under uniform time rescaling, killing <= plain ordering.
///
/// A fourth family, trace-replay, checks the ftmc::rt extraction rather
/// than the paper: the POSIX host and the simulator host must produce
/// bit-identical event streams when driven with the same inputs (see
/// replay.hpp).
///
/// A fifth family, fastpath-equivalence, pins the optimized analysis hot
/// paths (merge-scan EDF demand test, memoized MC-DBF tuner, batched PFH
/// kernels) against the retained straight-line references
/// (ftmc::mcs::reference, ftmc::core::reference): verdicts, virtual
/// deadlines and PFH bounds must be byte-identical, not merely close.
///
/// Every property is total on valid Cases: it returns kSkip when its
/// precondition (e.g. "EDF-VD accepts") does not hold, so the shrinker
/// can never wander into vacuous territory.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "ftmc/check/case.hpp"
#include "ftmc/common/time.hpp"

namespace ftmc::check {

enum class Verdict {
  kPass,  ///< precondition held and the assertion held
  kFail,  ///< counterexample: the property is violated on this case
  kSkip,  ///< precondition did not hold; nothing was asserted
};

/// Result of running one property on one case.
struct Outcome {
  Verdict verdict = Verdict::kSkip;
  /// For kFail: what was violated and by how much. Empty for kPass.
  std::string message;

  [[nodiscard]] static Outcome pass() { return {Verdict::kPass, {}}; }
  [[nodiscard]] static Outcome fail(std::string msg) {
    return {Verdict::kFail, std::move(msg)};
  }
  [[nodiscard]] static Outcome skip(std::string msg = {}) {
    return {Verdict::kSkip, std::move(msg)};
  }
};

/// Shared run context: injected corruptions and simulation bounds.
/// Properties count their work (check.sim_runs, check.marginal_skips,
/// ...) in obs::Registry::global() while it is enabled.
struct PropertyContext {
  InjectedBugs bugs;
  /// Cap on the simulated window when the hyperperiod is impractical
  /// (generated periods are irrational-ish, so the true hyperperiod
  /// usually overflows; 10 simulated seconds covers >= 5 jobs of the
  /// longest generatable period).
  sim::Tick max_sim_horizon = 10'000'000;
};

using PropertyFn = Outcome (*)(const Case&, const PropertyContext&);

/// One registered property.
struct Property {
  std::string_view name;    ///< stable id, used by --property and repros
  std::string_view family;  ///< one of the kFamily* constants
  std::string_view doc;     ///< one-line description for --list
  PropertyFn fn = nullptr;

  [[nodiscard]] Outcome run(const Case& c, const PropertyContext& ctx) const {
    return fn(c, ctx);
  }
};

inline constexpr std::string_view kFamilyAnalysisVsSim = "analysis-vs-sim";
inline constexpr std::string_view kFamilySufficientVsExact =
    "sufficient-vs-exact";
inline constexpr std::string_view kFamilyPfhMetamorphic = "pfh-metamorphic";
inline constexpr std::string_view kFamilyTraceReplay = "trace-replay";
inline constexpr std::string_view kFamilyFastpathEquivalence =
    "fastpath-equivalence";

/// All registered properties, stable order (the order failures are
/// reported in is part of the deterministic contract).
[[nodiscard]] const std::vector<Property>& all_properties();

/// Looks a property up by name; nullptr when unknown.
[[nodiscard]] const Property* find_property(std::string_view name);

/// lcm of the task periods in ticks, saturated at `cap` (generated
/// periods rarely have a representable hyperperiod). Exposed for tests.
[[nodiscard]] sim::Tick bounded_hyperperiod(const core::FtTaskSet& ts,
                                            sim::Tick cap);

}  // namespace ftmc::check
