/// \file runner.hpp
/// \brief The in-process campaign front end: opens a campaign ledger
///        (ledger.hpp), computes its pending cells on the ftmc::exec
///        thread pool, folds each into the ledger, and finishes it.
///
/// Guarantees (tested in tests/campaign/runner_test.cpp):
///  - *Determinism*: cell results are a pure function of the cell spec
///    (seeds derive from the spec grid, never from thread count or
///    execution order), so results.json is byte-identical across thread
///    counts, across interrupted-then-resumed runs, and to a fleet run.
///  - *Crash safety and caching* come from the ledger: completed cells
///    survive any crash in the journal, and a resume, or a run over an
///    edited spec, replays every cell whose content hash is journaled.
///
/// Observability: the ledger feeds the campaign.* counters and the
/// region the exec.campaign.* ones; the runner records one span per
/// computed cell when the parallel region carries a SpanRecorder, and
/// reports progress over the cells it computes.
#pragma once

#include <cstddef>
#include <string>

#include "ftmc/campaign/ledger.hpp"
#include "ftmc/campaign/spec.hpp"
#include "ftmc/obs/progress.hpp"
#include "ftmc/obs/span.hpp"

namespace ftmc::campaign {

/// Knobs of one runner invocation.
struct RunnerOptions {
  /// Worker threads (exec convention: 1 = serial, <= 0 = one per
  /// hardware thread). Never affects results.
  int threads = 1;
  /// Campaign directory; empty runs fully in memory (no journal, no
  /// cache, nothing written) — the mode the fig3 benches use by default.
  std::string dir;
  /// Stop (cleanly) after this many newly computed cells; 0 = no limit.
  /// The CI crash drill uses this to interrupt a run deterministically —
  /// the journal then looks exactly like a crash at a cell boundary.
  std::size_t max_cells = 0;
  obs::ProgressFn progress;            ///< over newly computed cells
  obs::SpanRecorder* spans = nullptr;  ///< one span per cell
};

/// Concrete SchedulabilityTest instance for a scheduler. The EDF-VD
/// family gets real test objects here (EdfVdTest / EdfVdDegradationTest
/// with `degradation_factor`); used by callers that need an explicit
/// test, e.g. sensitivity queries in ftmc_serve.
[[nodiscard]] mcs::SchedulabilityTestPtr make_schedulability_test(
    Scheduler scheduler, double degradation_factor);

/// The technique handed to FtsConfig::test: null for the EDF-VD family
/// (selects the built-in closed-form instantiations of Appendix B),
/// a concrete test otherwise.
[[nodiscard]] mcs::SchedulabilityTestPtr make_fts_test(Scheduler scheduler);

/// Evaluates one cell: generates sets_per_point task sets from the
/// cell's seed and counts acceptance with and without adaptation
/// (Appendix C protocol: adaptation "is only adopted if the system is
/// not feasible otherwise"). For the EDF-VD schedulers this is
/// bit-identical to the historical bench/common Fig. 3 point driver.
[[nodiscard]] CellCounts run_cell(const CellSpec& cell);

/// Runs (or, with a journal present in `options.dir`, continues) a
/// campaign. Throws ftmc::io::ParseError on invalid specs and
/// std::runtime_error on filesystem failures.
[[nodiscard]] CampaignResult run_campaign(const CampaignSpec& spec,
                                          const RunnerOptions& options);

/// Resumes the campaign persisted in `dir` (reads <dir>/spec.json; the
/// dir from `options` is ignored and replaced by `dir`).
[[nodiscard]] CampaignResult resume_campaign(const std::string& dir,
                                             RunnerOptions options);

}  // namespace ftmc::campaign
