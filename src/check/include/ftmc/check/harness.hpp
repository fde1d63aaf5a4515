/// \file harness.hpp
/// \brief The differential-fuzzing driver: draw cases, run properties,
///        shrink failures — sharded over ftmc::exec, deterministically.
///
/// Determinism contract: given the same (seed, cases, selected
/// properties, injected bugs), the harness produces the same verdict
/// counts, the same failures in the same order, and byte-identical repro
/// files — for ANY thread count and in both fixed-case and budget mode
/// (the time budget only decides where the case sequence *stops*, never
/// what any case contains).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ftmc/check/property.hpp"
#include "ftmc/check/repro.hpp"
#include "ftmc/check/shrink.hpp"
#include "ftmc/obs/progress.hpp"

namespace ftmc::check {

struct HarnessOptions {
  std::uint64_t seed = 1;
  /// Number of cases (fixed mode), or the cap on cases in budget mode.
  std::uint64_t cases = 10'000;
  /// > 0: run wave after wave until this wall-clock budget is exhausted
  /// (checked between waves, so runs always stop at a case boundary).
  double budget_sec = 0.0;
  int threads = 1;
  /// Restrict to these families / properties (empty = all). Entries must
  /// name existing families/properties; run_harness throws otherwise.
  std::vector<std::string> families;
  std::vector<std::string> properties;
  InjectedBugs bugs;
  sim::Tick max_sim_horizon = 10'000'000;
  ShrinkOptions shrink;
  /// At most this many failures are shrunk and recorded (the first N in
  /// case order — deterministic); all failures are *counted* regardless.
  std::size_t max_recorded_failures = 16;
  /// Called from the calling thread after every wave of cases.
  obs::ProgressFn progress;
};

struct HarnessResult {
  std::uint64_t cases_run = 0;
  /// Property-check verdicts (cases_run * |selected properties| total).
  std::uint64_t checks_pass = 0;
  std::uint64_t checks_fail = 0;
  std::uint64_t checks_skip = 0;
  /// Shrunk failure records in deterministic case order (capped at
  /// max_recorded_failures; checks_fail counts all of them).
  std::vector<FailureRecord> failures;
  /// True iff budget mode stopped before reaching `cases`.
  bool budget_exhausted = false;
  double wall_seconds = 0.0;
  /// Names of the properties that were selected and run.
  std::vector<std::string> selected;

  [[nodiscard]] bool ok() const { return checks_fail == 0; }
};

/// Resolves the family/property selection (throws ftmc::ContractViolation
/// on unknown names; returns all properties for an empty selection).
[[nodiscard]] std::vector<const Property*> select_properties(
    const std::vector<std::string>& families,
    const std::vector<std::string>& properties);

/// Runs the harness to completion (fixed mode) or until the budget is
/// spent (budget mode).
[[nodiscard]] HarnessResult run_harness(const HarnessOptions& options);

/// Replays one parsed repro: runs its property on its case. Throws
/// ftmc::ContractViolation when the repro names an unknown property.
[[nodiscard]] Outcome replay_repro(const Repro& repro,
                                   const PropertyContext& ctx);

}  // namespace ftmc::check
