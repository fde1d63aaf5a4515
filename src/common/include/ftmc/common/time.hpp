/// \file time.hpp
/// \brief Time representations shared by the analysis and the simulator.
///
/// Two representations coexist on purpose (see DESIGN.md, decision 3):
///  - The *analysis* (PFH bounds, schedulability tests) uses `double`
///    milliseconds; the formulas involve ratios and hour-scale horizons and
///    doubles carry enough precision (t <= 3.6e7 ms fits exactly).
///  - The *simulator* uses integer ticks (1 tick = 1 microsecond) so that
///    event ordering and deadline comparisons are exact.
#pragma once

#include <cstdint>
#include <optional>

#include "ftmc/common/contracts.hpp"

namespace ftmc {

/// Milliseconds, the unit used throughout the paper's task tables.
using Millis = double;

/// Number of milliseconds in one hour; PFH horizons are multiples of this.
inline constexpr Millis kMillisPerHour = 3'600'000.0;

/// Converts an operation duration in hours (O_S in the paper) to ms.
constexpr Millis hours_to_millis(double hours) noexcept {
  return hours * kMillisPerHour;
}

namespace sim {

/// Simulator tick: 1 tick = 1 microsecond. Signed so that differences and
/// "not yet scheduled" sentinels are representable.
using Tick = std::int64_t;

inline constexpr Tick kTicksPerMilli = 1'000;
inline constexpr Tick kTicksPerSecond = 1'000'000;
inline constexpr Tick kTicksPerHour = 3'600'000'000LL;

/// Sentinel for "no time" / "never".
inline constexpr Tick kNever = INT64_MAX;

/// Converts analysis milliseconds to simulator ticks (rounding to nearest;
/// task tables use integral or sub-microsecond-exact values in practice).
/// The one double-to-tick conversion, and it is checked: empty for NaN,
/// infinities, negative values and anything at or above 2^63 ticks, where
/// a bare cast would be undefined behaviour.
[[nodiscard]] constexpr std::optional<Tick> try_millis_to_ticks(
    Millis ms) noexcept {
  const double ticks = ms * static_cast<double>(kTicksPerMilli);
  if (!(ticks >= 0.0 && ticks < 0x1p63)) return std::nullopt;  // NaN too
  return static_cast<Tick>(ticks + 0.5);
}

/// try_millis_to_ticks for times the caller trusts; throws
/// ftmc::ContractViolation when `ms` is out of range.
constexpr Tick millis_to_ticks(Millis ms) {
  const std::optional<Tick> ticks = try_millis_to_ticks(ms);
  FTMC_EXPECTS(ticks.has_value(),
               "time outside the simulator's tick range [0, 2^63) us");
  return *ticks;
}

/// Converts simulator ticks back to analysis milliseconds.
constexpr Millis ticks_to_millis(Tick t) noexcept {
  return static_cast<Millis>(t) / static_cast<double>(kTicksPerMilli);
}

}  // namespace sim
}  // namespace ftmc
