/// \file parse.hpp
/// \brief Strict number parsing for command-line flags and environment
///        variables.
///
/// The one parser every CLI uses: the whole token must be the number
/// (std::from_chars — locale-independent, no leading whitespace or '+',
/// no trailing junk), the value must fit the target type, and it must lie
/// in the caller's domain. Errors name the flag ("--cases expects ..."),
/// so a CLI prefixes its own name, prints them and exits 2.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

#include "ftmc/common/expected.hpp"

namespace ftmc {

/// Parses `text` as a base-10 integer in [min, max].
[[nodiscard]] Expected<long long> parse_int(
    std::string_view flag, std::string_view text,
    long long min = std::numeric_limits<long long>::min(),
    long long max = std::numeric_limits<long long>::max());

/// Parses `text` as an unsigned base-10 64-bit integer (no sign at all).
[[nodiscard]] Expected<std::uint64_t> parse_uint64(std::string_view flag,
                                                   std::string_view text);

/// Parses `text` as a finite decimal floating-point number in [min, max].
[[nodiscard]] Expected<double> parse_double(
    std::string_view flag, std::string_view text,
    double min = std::numeric_limits<double>::lowest(),
    double max = std::numeric_limits<double>::max());

}  // namespace ftmc
