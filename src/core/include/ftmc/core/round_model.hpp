/// \file round_model.hpp
/// \brief The per-task round model that the whole FT-S pipeline runs on.
///
/// The PFH bounds (Lemmas 3.1-3.4), the conversion (Lemma 4.1) and the
/// profile search (Algorithm 1) never ask how a task tolerates faults. Per
/// task they need only a round budget (the worst-case busy time of one
/// round, which Eq. (1) charges when counting rounds), a per-round failure
/// probability, a trigger budget and per-round trigger probability (for
/// the event that kills or degrades the LO tasks), and the converted C(HI)
/// and C(LO). Each mechanism keeps its own exact expressions:
///
///   quantity          re-execution (n, n')      checkpointing (k, R, m)
///   round budget      n*C (0 under kZero)       checkpointed_wcet
///   failure prob.     f^n                       P(faults > R)
///   trigger budget    n'*C (0 under kZero)      m*seg
///   trigger prob.     f^n'                      P(faults >= m)
///   C(HI)             n*C                       (k+R)*seg
///   C(LO), HI task    n'*C                      (k-1+m)*seg, 0 at m = 0
///
/// with seg = C/k + o*C (checkpointing.hpp). k = 1, R = n-1, m = n' gives
/// the paper's numbers up to rounding, which the tests check.
#pragma once

#include <cstddef>
#include <vector>

#include "ftmc/core/checkpointing.hpp"
#include "ftmc/core/ft_task.hpp"

namespace ftmc::core {

/// Footnote 1 of the paper: the round-counting term n_i * C_i in Eqs. (1),
/// (4), (6) assumes each attempt takes its full WCET at runtime. If that
/// cannot be assumed, the term must be dropped (C_i -> 0), which yields a
/// slightly larger (still safe) round count.
enum class ExecAssumption {
  kFullWcet,  ///< attempts take exactly C_i (paper main text)
  kZero,      ///< attempts may finish early (footnote variant)
};

/// Eq. (1)'s busy term of n attempts: n*C, or 0 under kZero.
[[nodiscard]] Millis attempts_busy(int n, Millis wcet, ExecAssumption exec);

/// A worst-case busy time and the per-round probability of its event.
struct Round {
  Millis busy = 0.0;
  double prob = 0.0;
};

/// A task set under one mechanism at one per-task profile: a view that
/// keeps pointers to the task set and profiles, which must outlive it.
/// Quantities are computed when asked, so a profile entry no bound reads
/// (the threshold of a LO task, say) is never checked.
class RoundModel {
 public:
  /// Re-execution: task i runs up to n[i] attempts; the mode switch fires
  /// when a HI job starts its (n_adapt[i] + 1)-th.
  [[nodiscard]] static RoundModel reexecution(
      const FtTaskSet& ts, const PerTaskProfile& n,
      const PerTaskProfile& n_adapt,
      ExecAssumption exec = ExecAssumption::kFullWcet);
  /// Checkpointing: the mode switch fires at a HI job's thresholds[i]-th
  /// segment fault (R + 1: never).
  [[nodiscard]] static RoundModel checkpointing(
      const FtTaskSet& ts, const std::vector<CheckpointScheme>& schemes,
      const PerTaskProfile& thresholds);

  [[nodiscard]] const FtTaskSet& tasks() const noexcept { return *ts_; }
  [[nodiscard]] Round round(std::size_t i) const;
  [[nodiscard]] Round trigger(std::size_t i) const;  ///< HI tasks
  [[nodiscard]] Millis wcet_hi(std::size_t i) const;
  [[nodiscard]] Millis wcet_lo(std::size_t i) const;  ///< HI tasks

 private:
  RoundModel(const FtTaskSet& ts, const PerTaskProfile& thresholds)
      : ts_(&ts), thresholds_(&thresholds) {}

  const FtTaskSet* ts_;
  const PerTaskProfile* thresholds_;  ///< n'_i or m_i
  const PerTaskProfile* attempts_ = nullptr;                ///< n_i
  const std::vector<CheckpointScheme>* schemes_ = nullptr;  ///< or null
  ExecAssumption exec_ = ExecAssumption::kFullWcet;
};

/// A mechanism as Algorithm 1 searches it: one budget per level (n, or
/// the retry budget R) and one threshold for all HI tasks (n', or the
/// fault count m), the restriction of Sec. 4.2.
class FtMechanism {
 public:
  [[nodiscard]] static FtMechanism reexecution(const FtTaskSet& ts,
                                               ExecAssumption exec);
  [[nodiscard]] static FtMechanism checkpointing(const FtTaskSet& ts,
                                                 int segments,
                                                 double overhead_fraction);

  [[nodiscard]] const FtTaskSet& tasks() const noexcept { return *ts_; }
  [[nodiscard]] bool checkpointed() const noexcept { return segments_ > 0; }
  /// The smallest budget: one attempt, or no retry.
  [[nodiscard]] int min_budget() const noexcept {
    return checkpointed() ? 0 : 1;
  }
  /// The threshold that never fires at HI budget b_hi: n' = n, m = R + 1.
  [[nodiscard]] int never_fires(int b_hi) const noexcept {
    return checkpointed() ? b_hi + 1 : b_hi;
  }
  /// The model at uniform budgets and HI threshold; it reads this
  /// mechanism's buffers, so it is valid until the next call.
  [[nodiscard]] RoundModel at(int b_hi, int b_lo, int threshold);

 private:
  FtMechanism(const FtTaskSet& ts, ExecAssumption exec, int segments,
              double overhead_fraction);

  const FtTaskSet* ts_;
  ExecAssumption exec_;
  int segments_;  ///< 0: re-execution
  double overhead_fraction_;
  PerTaskProfile budgets_;
  PerTaskProfile thresholds_;
  std::vector<CheckpointScheme> schemes_;
};

}  // namespace ftmc::core
