#include "ftmc/common/json_text.hpp"

#include <cmath>

namespace ftmc::json_text {

void append_escaped(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the bytes not yet copied
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(code, sizeof(code));
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
}

void append_quoted(std::string& out, std::string_view text) {
  out += '"';
  append_escaped(out, text);
  out += '"';
}

void append_number(std::string& out, double value) {
  if (std::isnan(value)) {
    out += "null";
    return;
  }
  if (std::isinf(value)) {
    out += value > 0 ? "\"inf\"" : "\"-inf\"";
    return;
  }
  // A sign, 17 digits, the point and an exponent like e-308 fit in 24.
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                std::chars_format::general, 17)
                      .ptr);
}

}  // namespace ftmc::json_text
