/// \file conversion.hpp
/// \brief Problem conversion, Lemma 4.1: fault-tolerant task set ->
///        conventional mixed-criticality task set Gamma(n, n').
///
/// The key insight of the paper (Sec. 4): re-execution counts induce a list
/// of WCETs. "Kill/degrade LO tasks when a HI job starts its (n'+1)-th
/// execution" is conservatively expressible as "kill/degrade when a HI job
/// exceeds n' * C of execution", which is precisely a Vestal-style mode
/// switch with C(LO) = n'*C and C(HI) = n*C.
#pragma once

#include "ftmc/core/ft_task.hpp"
#include "ftmc/core/round_model.hpp"
#include "ftmc/mcs/task.hpp"

namespace ftmc::core {

/// Lemma 4.1 over a round model: each task keeps its name, period and
/// deadline; C(HI) and (for HI tasks) C(LO) come from the model, and a LO
/// task has C(LO) = C(HI). Counted by the core.conversions metric.
[[nodiscard]] mcs::McTaskSet convert_to_mc(const RoundModel& model);

/// Builds the converted mixed-criticality task set:
///  - HI task tau_i: C_i(HI) = n_i * C_i, C_i(LO) = n'_i * C_i;
///  - LO task tau_i: C_i(HI) = C_i(LO) = n_i * C_i.
/// Preconditions: n_i >= 1 for all tasks; 0 <= n'_i < n_i for HI tasks.
/// Task order, names, periods and deadlines are preserved.
[[nodiscard]] mcs::McTaskSet convert_to_mc(const FtTaskSet& ts,
                                           const PerTaskProfile& n,
                                           const PerTaskProfile& n_adapt);

/// Convenience overload for uniform per-level profiles — the Gamma(n_HI,
/// n_LO, n'_HI) of Sec. 4.2 / Algorithm 1.
[[nodiscard]] mcs::McTaskSet convert_to_mc(const FtTaskSet& ts, int n_hi,
                                           int n_lo, int n_adapt_hi);

/// Lemma 4.1 under checkpointing (ft_checkpoint.hpp):
///  - HI task i: C(HI) = (k + R_i) * seg_i,
///               C(LO) = 0 if m_i = 0 else (k - 1 + m_i) * seg_i;
///  - LO task i: C(HI) = C(LO) = (k + R_i) * seg_i.
/// Precondition: 0 <= m_i <= R_i + 1 (m = R+1 means "never triggers").
[[nodiscard]] mcs::McTaskSet convert_to_mc_checkpointed(
    const FtTaskSet& ts, const std::vector<CheckpointScheme>& schemes,
    const PerTaskProfile& fault_thresholds);

}  // namespace ftmc::core
