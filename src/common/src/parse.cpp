#include "ftmc/common/parse.hpp"

#include <charconv>
#include <cmath>
#include <string>
#include <system_error>

namespace ftmc {

namespace {

std::string quoted(std::string_view text) {
  std::string out(1, '"');
  out.append(text).push_back('"');
  return out;
}

/// "[min, max]", both bounds rendered by to_chars (shortest round trip).
template <typename T>
std::string range_of(T min, T max) {
  char buf[64];
  std::string out(1, '[');
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), min).ptr);
  out.append(", ");
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), max).ptr);
  out.push_back(']');
  return out;
}

/// from_chars over the whole token; the error names what was expected.
template <typename T, typename... Format>
Expected<T> parse_whole(std::string_view flag, std::string_view text,
                        const char* expected, Format... format) {
  T value{};
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value, format...);
  if (ec == std::errc::result_out_of_range) {
    return Expected<T>::failure(std::string(flag) + " is out of range: " +
                                quoted(text));
  }
  if (text.empty() || ec != std::errc{} || ptr != last) {
    return Expected<T>::failure(std::string(flag) + " expects " + expected +
                                ", got " + quoted(text));
  }
  return value;
}

}  // namespace

Expected<long long> parse_int(std::string_view flag, std::string_view text,
                              long long min, long long max) {
  Expected<long long> value =
      parse_whole<long long>(flag, text, "an integer", 10);
  if (value && (*value < min || *value > max)) {
    return Expected<long long>::failure(std::string(flag) + " must lie in " +
                                        range_of(min, max) + ", got " +
                                        quoted(text));
  }
  return value;
}

Expected<std::uint64_t> parse_uint64(std::string_view flag,
                                     std::string_view text) {
  // from_chars rejects a leading '-' for unsigned types, so "-1" cannot
  // wrap around to 2^64 - 1 the way strtoull lets it.
  return parse_whole<std::uint64_t>(flag, text, "an unsigned integer", 10);
}

Expected<double> parse_double(std::string_view flag, std::string_view text,
                              double min, double max) {
  Expected<double> value = parse_whole<double>(
      flag, text, "a number", std::chars_format::general);
  if (value && !std::isfinite(*value)) {
    return Expected<double>::failure(std::string(flag) +
                                     " expects a finite number, got " +
                                     quoted(text));
  }
  if (value && (*value < min || *value > max)) {
    return Expected<double>::failure(std::string(flag) + " must lie in " +
                                     range_of(min, max) + ", got " +
                                     quoted(text));
  }
  return value;
}

}  // namespace ftmc
