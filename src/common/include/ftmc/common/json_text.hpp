/// \file json_text.hpp
/// \brief The JSON text primitives every writer shares: string escaping
///        and number rendering, appended in place to one buffer.
///
/// `io::json` (results, task sets, journals, the serve and fleet
/// protocols) and `obs` (metric snapshots, Chrome traces) write JSON
/// through these functions, so a string or a number has one spelling
/// across the project. None of them allocates beyond growing `out`, and
/// none of them reads the C or C++ locale: numbers go through
/// std::to_chars, so a host locale with a decimal comma or digit
/// grouping cannot change a byte.
#pragma once

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>

namespace ftmc::json_text {

/// Appends `text` with quotes, backslashes and control characters
/// escaped (\n, \r, \t by name, the rest as \u00XX), without the
/// surrounding quotes. Bytes >= 0x20 pass through, so UTF-8 stays UTF-8.
void append_escaped(std::string& out, std::string_view text);

/// Appends `text` as a JSON string literal: quotes plus append_escaped.
void append_quoted(std::string& out, std::string_view text);

/// Appends a double as a JSON value:
///  - finite values as std::to_chars(chars_format::general, 17) writes
///    them, the same bytes as printf("%.17g") in the "C" locale and as a
///    precision-17 stream in the classic locale (exact for IEEE doubles);
///  - infinities as the *strings* "inf" / "-inf" (JSON has no literal);
///  - NaN as null.
void append_number(std::string& out, double value);

/// Appends an integer in decimal (std::to_chars: no grouping, no locale).
template <std::integral T>
void append_int(std::string& out, T value) {
  char buf[24];  // 20 digits of a 64-bit value, plus a sign
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

}  // namespace ftmc::json_text
