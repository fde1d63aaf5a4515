/// \file parse.hpp
/// \brief Strict number parsing for flags, FTMC_BENCH_* variables and
///        repro metadata; cli.hpp's flag tables read every number here.
///
/// The whole token must be the number (std::from_chars — locale-
/// independent, no leading whitespace or '+', no trailing junk), the value
/// must fit the target type, and it must lie in the caller's domain.
/// Errors name their source ("--cases expects ..."), so cli.hpp prefixes
/// the binary's name, prints them and exits 2.
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
