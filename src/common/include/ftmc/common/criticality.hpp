/// \file criticality.hpp
/// \brief Criticality types: DO-178B design assurance levels and the
///        dual-criticality (HI/LO) abstraction used by the scheduling theory.
///
/// The paper (Sec. 2.1) works with dual-criticality task sets whose two
/// levels are drawn from the five DO-178B levels A (highest) .. E (lowest).
/// We therefore keep two notions:
///   - ftmc::Dal       — the safety-standard level a task is certified to,
///   - ftmc::CritLevel — the scheduling-theoretic HI/LO role of a task.
/// A DualCriticalityMapping ties them together for a concrete system.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string_view>

namespace ftmc {

/// DO-178B design assurance level (Table 1 of the paper).
/// A is the most critical (catastrophic failure condition), E the least.
enum class Dal : int { A = 0, B = 1, C = 2, D = 3, E = 4 };

/// All DO-178B levels, highest criticality first.
inline constexpr std::array<Dal, 5> kAllDals = {Dal::A, Dal::B, Dal::C,
                                                Dal::D, Dal::E};

/// Scheduling-theoretic criticality in a dual-criticality system.
enum class CritLevel : int { LO = 0, HI = 1 };

/// What the LO->HI criticality switch does to LO tasks. The analysis
/// (mcs::AdaptationKind picks the PFH bound, Lemma 3.3 vs 3.4) and the
/// runtime core (rt::Adaptation, the switch itself) share this one enum.
enum class Adaptation : std::uint8_t {
  kNone,         ///< no mode switch, or one with no effect on LO tasks
  kKilling,      ///< LO jobs are discarded and LO releases suppressed
  kDegradation,  ///< LO periods and deadlines are stretched by d_f
};

/// Returns true iff `a` denotes a strictly more critical level than `b`
/// (note: "higher criticality" means *earlier* letter, A > B > ... > E).
constexpr bool more_critical(Dal a, Dal b) noexcept {
  return static_cast<int>(a) < static_cast<int>(b);
}

/// Returns true iff tasks at this level carry an explicit safety requirement
/// under DO-178B. Levels D and E are "essentially not safety-related"
/// (paper Sec. 2.1): level E has no requirement at all and level D only the
/// trivial PFH >= 1e-5 band, so neither constrains the design.
constexpr bool is_safety_related(Dal dal) noexcept {
  return dal == Dal::A || dal == Dal::B || dal == Dal::C;
}

/// Single-letter name of a DAL ("A".."E").
std::string_view to_string(Dal dal);

/// "HI" or "LO".
std::string_view to_string(CritLevel level);

/// Parses "A".."E" (case-insensitive). Returns nullopt on anything else.
std::optional<Dal> parse_dal(std::string_view text);

/// Parses "HI"/"LO" (case-insensitive). Returns nullopt on anything else.
std::optional<CritLevel> parse_crit_level(std::string_view text);

std::ostream& operator<<(std::ostream& os, Dal dal);
std::ostream& operator<<(std::ostream& os, CritLevel level);

/// Assignment of concrete DO-178B levels to the abstract HI/LO roles of a
/// dual-criticality system, e.g. {HI = B, LO = C} for the FMS case study.
struct DualCriticalityMapping {
  Dal hi = Dal::B;
  Dal lo = Dal::C;

  /// A mapping is well-formed iff the HI level is strictly more critical.
  [[nodiscard]] constexpr bool valid() const noexcept {
    return more_critical(hi, lo);
  }

  /// DAL assigned to the given scheduling role.
  [[nodiscard]] constexpr Dal dal_of(CritLevel level) const noexcept {
    return level == CritLevel::HI ? hi : lo;
  }
};

}  // namespace ftmc
