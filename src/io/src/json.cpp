#include "ftmc/io/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "ftmc/common/json_text.hpp"

namespace ftmc::io::json {

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  json_text::append_escaped(out, text);
  return out;
}

std::string number(double value) {
  std::string out;
  json_text::append_number(out, value);
  return out;
}

void Object::add_key(std::string_view key) {
  if (out_.size() > 1) out_ += ',';
  json_text::append_quoted(out_, key);
  out_ += ':';
}

Object& Object::add_string(std::string_view key, std::string_view value) {
  add_key(key);
  json_text::append_quoted(out_, value);
  return *this;
}

Object& Object::add_number(std::string_view key, double value) {
  add_key(key);
  json_text::append_number(out_, value);
  return *this;
}

Object& Object::add_int(std::string_view key, long long value) {
  add_key(key);
  json_text::append_int(out_, value);
  return *this;
}

Object& Object::add_bool(std::string_view key, bool value) {
  add_key(key);
  out_ += value ? "true" : "false";
  return *this;
}

Object& Object::add_raw(std::string_view key, std::string_view json) {
  add_key(key);
  out_ += json;
  return *this;
}

std::string Object::str() const {
  std::string out;
  out.reserve(out_.size() + 1);
  out += out_;
  out += '}';
  return out;
}

std::string array(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += values[i];
    if (i + 1 < values.size()) out += ",";
  }
  out += "]";
  return out;
}

namespace {

[[nodiscard]] std::string_view kind_name(Value::Kind kind) {
  switch (kind) {
    case Value::Kind::kNull: return "null";
    case Value::Kind::kBool: return "bool";
    case Value::Kind::kNumber: return "number";
    case Value::Kind::kString: return "string";
    case Value::Kind::kArray: return "array";
    case Value::Kind::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void kind_error(std::string_view wanted, Value::Kind got) {
  throw ParseError("json: expected " + std::string(wanted) + ", got " +
                   std::string(kind_name(got)));
}

}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("bool", kind_);
  return bool_;
}

double Value::as_number() const {
  switch (kind_) {
    case Kind::kNumber: return number_;
    case Kind::kNull: return std::nan("");  // number() maps NaN to null
    case Kind::kString:
      // number() maps infinities to these strings (see json.hpp).
      if (string_ == "inf") return std::numeric_limits<double>::infinity();
      if (string_ == "-inf") {
        return -std::numeric_limits<double>::infinity();
      }
      throw ParseError("json: string \"" + string_ + "\" is not a number");
    default: kind_error("number", kind_);
  }
}

std::uint64_t Value::as_uint64() const {
  if (kind_ == Kind::kString) {
    if (string_.empty()) throw ParseError("json: empty string as uint64");
    std::uint64_t out = 0;
    for (const char c : string_) {
      if (c < '0' || c > '9') {
        throw ParseError("json: string \"" + string_ +
                         "\" is not a decimal uint64");
      }
      const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
      if (out > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
        throw ParseError("json: uint64 overflow in \"" + string_ + "\"");
      }
      out = out * 10 + digit;
    }
    return out;
  }
  if (kind_ != Kind::kNumber) kind_error("uint64", kind_);
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  if (!(number_ >= 0.0) || number_ > kMaxExact ||
      number_ != std::floor(number_)) {
    throw ParseError("json: " + number(number_) +
                     " is not an exact non-negative integer");
  }
  return static_cast<std::uint64_t>(number_);
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) kind_error("string", kind_);
  return string_;
}

const std::vector<Value>& Value::items() const {
  if (kind_ != Kind::kArray) kind_error("array", kind_);
  return items_;
}

const std::vector<std::pair<std::string, Value>>& Value::fields() const {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  return fields_;
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  for (const auto& [name, value] : fields_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* found = find(key);
  if (found == nullptr) {
    throw ParseError("json: missing key \"" + std::string(key) + "\"");
  }
  return *found;
}

/// Recursive-descent parser over a string_view. Depth-limited so a
/// hostile "[[[[..." input fails with ParseError instead of a stack
/// overflow.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  [[nodiscard]] Value run() {
    Value out = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return out;
  }

 private:
  static constexpr int kMaxDepth = 96;

  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError("json: " + message + " at offset " +
                     std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + peek() + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  [[nodiscard]] Value parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        Value v;
        v.kind_ = Value::Kind::kString;
        v.string_ = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value{};
      default: return parse_number();
    }
  }

  [[nodiscard]] static Value make_bool(bool b) {
    Value v;
    v.kind_ = Value::Kind::kBool;
    v.bool_ = b;
    return v;
  }

  [[nodiscard]] Value parse_object(int depth) {
    expect('{');
    Value v;
    v.kind_ = Value::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      for (const auto& [existing, ignored] : v.fields_) {
        if (existing == key) fail("duplicate key \"" + key + "\"");
      }
      skip_ws();
      expect(':');
      v.fields_.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  [[nodiscard]] Value parse_array(int depth) {
    expect('[');
    Value v;
    v.kind_ = Value::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items_.push_back(parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  [[nodiscard]] std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: fail("unknown escape");
      }
    }
  }

  /// The four hex digits of one \uXXXX escape (the "\u" is consumed).
  [[nodiscard]] unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad \\u escape digit");
      }
    }
    return code;
  }

  /// One RFC 8259 \uXXXX escape, including UTF-16 surrogate pairs
  /// (😀 decodes to U+1F600). Lone / mis-paired surrogates are
  /// rejected with the byte offset of the offending escape's backslash.
  [[nodiscard]] std::string parse_unicode_escape() {
    const std::size_t escape_start = pos_ - 2;  // the '\' of "\uXXXX"
    unsigned code = parse_hex4();
    if (code >= 0xdc00 && code <= 0xdfff) {
      pos_ = escape_start;
      fail("lone low surrogate \\u escape");
    }
    if (code >= 0xd800 && code <= 0xdbff) {
      // High surrogate: the next escape must be a low surrogate.
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u') {
        pos_ = escape_start;
        fail("unpaired high surrogate \\u escape");
      }
      pos_ += 2;
      const unsigned low = parse_hex4();
      if (low < 0xdc00 || low > 0xdfff) {
        pos_ = escape_start;
        fail("high surrogate not followed by a low surrogate");
      }
      code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
    }
    // UTF-8 encode the code point (1..4 bytes).
    std::string out;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xc0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xe0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    }
    return out;
  }

  [[nodiscard]] Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      pos_ = start;
      fail("expected a value");
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    // std::from_chars, not strtod: strtod obeys LC_NUMERIC, so a host
    // locale with a decimal comma would misparse "1.5" as 1 (and then
    // reject the token on the leftover ".5").
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec == std::errc::result_out_of_range) {
      pos_ = start;
      fail("number out of range \"" + std::string(token) + "\"");
    }
    if (ec != std::errc{} || end != token.data() + token.size()) {
      pos_ = start;
      fail("malformed number \"" + std::string(token) + "\"");
    }
    Value v;
    v.kind_ = Value::Kind::kNumber;
    v.number_ = value;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Value parse(std::string_view text) { return Parser(text).run(); }

}  // namespace ftmc::io::json

namespace ftmc::io {

std::string task_set_to_json(const core::FtTaskSet& ts) {
  std::vector<std::string> tasks;
  tasks.reserve(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const core::FtTask& t = ts[i];
    tasks.push_back(json::Object{}
                        .add_string("name", t.name)
                        .add_number("period_ms", t.period)
                        .add_number("deadline_ms", t.deadline)
                        .add_number("wcet_ms", t.wcet)
                        .add_string("dal", to_string(t.dal))
                        .add_string("crit", to_string(ts.crit_of(i)))
                        .add_number("failure_prob", t.failure_prob)
                        .str());
  }
  return json::Object{}
      .add_string("hi_dal", to_string(ts.mapping().hi))
      .add_string("lo_dal", to_string(ts.mapping().lo))
      .add_raw("tasks", json::array(tasks))
      .str();
}

namespace {

[[nodiscard]] Dal parse_dal_field(const json::Value& value,
                                  std::string_view key) {
  const auto dal = parse_dal(value.as_string());
  if (!dal) {
    throw ParseError("task set: unknown DAL \"" + value.as_string() +
                     "\" for \"" + std::string(key) + "\"");
  }
  return *dal;
}

}  // namespace

core::FtTaskSet task_set_from_json(const json::Value& doc) {
  DualCriticalityMapping mapping;
  mapping.hi = parse_dal_field(doc.at("hi_dal"), "hi_dal");
  mapping.lo = parse_dal_field(doc.at("lo_dal"), "lo_dal");

  std::vector<core::FtTask> tasks;
  for (const json::Value& entry : doc.at("tasks").items()) {
    core::FtTask task;
    task.dal = mapping.lo;
    bool saw_deadline = false;
    for (const auto& [key, value] : entry.fields()) {
      if (key == "name") {
        task.name = value.as_string();
      } else if (key == "period_ms") {
        task.period = value.as_number();
      } else if (key == "deadline_ms") {
        task.deadline = value.as_number();
        saw_deadline = true;
      } else if (key == "wcet_ms") {
        task.wcet = value.as_number();
      } else if (key == "dal") {
        task.dal = parse_dal_field(value, "dal");
      } else if (key == "failure_prob") {
        task.failure_prob = value.as_number();
      } else if (key == "crit") {
        // Derived from dal + mapping by the emitter; ignored on input.
        (void)value.as_string();
      } else {
        throw ParseError("task set: unknown task key \"" + key + "\"");
      }
    }
    if (!saw_deadline) task.deadline = task.period;
    tasks.push_back(std::move(task));
  }

  core::FtTaskSet ts(std::move(tasks), mapping);
  try {
    ts.validate();
  } catch (const ContractViolation& e) {
    throw ParseError(std::string("invalid task set: ") + e.what());
  }
  return ts;
}

std::string mc_task_set_to_json(const mcs::McTaskSet& ts) {
  std::vector<std::string> tasks;
  tasks.reserve(ts.size());
  for (const mcs::McTask& t : ts.tasks()) {
    tasks.push_back(json::Object{}
                        .add_string("name", t.name)
                        .add_number("period_ms", t.period)
                        .add_number("deadline_ms", t.deadline)
                        .add_number("wcet_hi_ms", t.wcet_hi)
                        .add_number("wcet_lo_ms", t.wcet_lo)
                        .add_string("crit", to_string(t.crit))
                        .str());
  }
  return json::array(tasks);
}

std::string fts_result_to_json(const core::FtsResult& result) {
  json::Object out;
  out.add_bool("success", result.success)
      .add_string("failure", core::to_string(result.failure))
      .add_int("n_hi", result.n_hi)
      .add_int("n_lo", result.n_lo)
      .add_int("n_adapt", result.n_adapt)
      .add_number("pfh_hi", result.pfh_hi)
      .add_number("pfh_lo", result.pfh_lo)
      .add_number("u_mc", result.u_mc)
      .add_bool("feasible_without_adaptation",
                result.feasible_without_adaptation)
      .add_string("scheduler", result.scheduler_name);
  if (result.n1_hi) out.add_int("n1_hi", *result.n1_hi);
  if (result.n2_hi) out.add_int("n2_hi", *result.n2_hi);
  out.add_raw("converted", mc_task_set_to_json(result.converted));
  return out.str();
}

std::string sweep_to_json(
    const std::vector<core::AdaptationSweepPoint>& points) {
  std::vector<std::string> items;
  items.reserve(points.size());
  for (const auto& p : points) {
    items.push_back(json::Object{}
                        .add_int("n_adapt", p.n_adapt)
                        .add_number("u_mc", p.u_mc)
                        .add_number("pfh_lo", p.pfh_lo)
                        .add_bool("schedulable", p.schedulable)
                        .add_bool("safe", p.safe)
                        .str());
  }
  return json::array(items);
}

}  // namespace ftmc::io
