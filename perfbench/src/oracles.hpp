/// \file oracles.hpp
/// \brief The benchmark's correctness oracles. Each recomputes what an
///        operation's answer must be with code of its own (the paper's
///        equations, a brute-force demand scan, an exact Poisson limit,
///        field-by-field comparison against direct library calls) and
///        records every disagreement in a Verdict. Each oracle is fed
///        deliberately corrupted answers by tests/oracle_test.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ftmc/campaign/runner.hpp"
#include "ftmc/campaign/spec.hpp"
#include "ftmc/core/ft_task.hpp"
#include "ftmc/mcs/task.hpp"
#include "ftmc/sim/stats.hpp"
#include "ftmc/taskgen/generator.hpp"
#include "harness.hpp"

namespace perfbench::oracle {

// --- fig3-campaign -----------------------------------------------------

/// Range of counts the oracle accepts for one cell. A set whose deciding
/// quantity lies within a relative 1e-9 of its threshold (e.g. an own-level
/// utilization that sums to 1 up to rounding) is a numerical tie and may
/// go either way; it widens the range by one.
struct CountRange {
  int lo = 0;
  int hi = 0;
  [[nodiscard]] bool contains(int v) const { return lo <= v && v <= hi; }
};

struct Fig3Expectation {
  CountRange without;
  CountRange with;    ///< meaningful only when with_checked
  bool with_checked = false;
};

/// The generator parameters campaign::run_cell derives from a cell.
[[nodiscard]] ftmc::taskgen::GeneratorParams cell_generator_params(
    const ftmc::campaign::CellSpec& cell);

/// Regenerates the cell's task sets (same generator, same seed) and
/// recomputes accept_without from Eq. (2) and the EDF utilization bound,
/// and for degradation cells accept_with from Eq. (7) and Eq. (11).
[[nodiscard]] Fig3Expectation fig3_expected(const ftmc::campaign::CellSpec& cell);

/// Flags a cell whose counts fall outside the expectation, or whose
/// accept_with is below accept_without.
void check_fig3_cell(const ftmc::campaign::CellSpec& cell,
                     const ftmc::campaign::CellCounts& counts,
                     const Fig3Expectation& expected, Verdict& verdict);

// --- dbf-sensitivity ---------------------------------------------------

enum class ClaimStatus {
  kConfirmed,     ///< no demand violation up to the proven horizon
  kUnrefuted,     ///< a U = 1 view: no violation found far past the
                  ///< program's horizon (the proof has no finite horizon)
  kContradicted,  ///< dbf(t) > t found at some deadline point t
  kMalformed,     ///< virtual deadlines outside [C(LO), D) or U > 1
};

struct ClaimCheck {
  ClaimStatus status = ClaimStatus::kConfirmed;
  bool at_full_utilization = false;  ///< some view sums to U = 1
  double violation_at = 0.0;         ///< ms, when contradicted
  double excess = 0.0;               ///< dbf(t) - t at that point
  std::string detail;
};

/// Re-verifies an MC-DBF "schedulable" claim: the LO-mode view (every
/// task at C(LO), HI tasks against their virtual deadlines) and the
/// HI-mode view (HI tasks at C(HI) against D - d) are each scanned at
/// every absolute deadline up to L = max(D_max, sum U_i (T_i - D_i) /
/// (1 - U)); a view at U = 1 is scanned to `full_u_horizon_factor` times
/// the program's fallback horizon of 1000 T_max.
[[nodiscard]] ClaimCheck verify_mc_dbf_claim(
    const ftmc::mcs::McTaskSet& ts, const std::vector<double>& virtual_deadlines,
    double full_u_horizon_factor = 100.0);

/// The WCET scaling of `ts` by `s`, task by task, exactly as the
/// sensitivity search scales it.
[[nodiscard]] ftmc::mcs::McTaskSet scaled(const ftmc::mcs::McTaskSet& ts,
                                          double s);

/// mcs::max_wcet_scaling's `factor` for `base` under MC-DBF must be
/// accepted, and the factor plus `tolerance` rejected unless the factor is
/// the search `ceiling`.
void check_headroom(const ftmc::mcs::McTaskSet& base, double factor,
                    double ceiling, double tolerance, const std::string& label,
                    Verdict& verdict);

// --- sim-missions ------------------------------------------------------

/// Exact (Garwood) lower limit of the two-sided `confidence` interval on a
/// Poisson mean given `k` observed events.
[[nodiscard]] double poisson_lower_limit(std::uint64_t k,
                                         double confidence = 0.95);

/// Per-task counts must balance: completions, job failures and kills
/// never exceed releases, and every attempt that neither faulted nor
/// completed belongs to a killed job or to the at most `in_flight`
/// jobs per task still pending at the horizon.
void check_balance(const ftmc::sim::SimStats& stats, std::uint64_t in_flight,
                   const std::string& label, Verdict& verdict);

/// Theorem 4.1 under the exhaust-budget adversary: no deadline miss and
/// no job failure.
void check_exhaust(const ftmc::sim::SimStats& stats, const std::string& label,
                   Verdict& verdict);

/// Observed failures over `hours` must not refute the analytical PFH
/// `bound`: the exact Poisson lower limit (two-sided, `confidence`) per
/// hour stays at or below it.
void check_pfh(std::uint64_t failures, double hours, double bound,
               double confidence, const std::string& label, Verdict& verdict);

[[nodiscard]] bool same_stats(const ftmc::sim::SimStats& a,
                              const ftmc::sim::SimStats& b);

// --- serve-queries -----------------------------------------------------

/// The raw JSON token of the first `"key":` in `json` (number, literal or
/// quoted string); empty when absent.
[[nodiscard]] std::string json_token(const std::string& json,
                                     const std::string& key,
                                     std::size_t from = 0);

/// What an fts answer must state, computed by calling core::ft_schedule
/// outside the server.
struct FtsFacts {
  bool success = false;
  int n_hi = 0;
  int n_lo = 0;
  int n_adapt = 0;
};
void check_fts_answer(const std::string& item, const FtsFacts& facts,
                      const std::string& label, Verdict& verdict);

/// Per-task verdicts of rt::Core::add_task called outside the server.
void check_admit_answer(const std::string& item,
                        const std::vector<bool>& admitted,
                        const std::string& label, Verdict& verdict);

/// Every result slot must say "ok":true.
void check_ok(const std::string& item, const std::string& label,
              Verdict& verdict);

/// A cache hit must repeat the cold answer byte for byte.
void check_hit(const std::string& hit, const std::string& cold,
               const std::string& label, Verdict& verdict);

}  // namespace perfbench::oracle
