/// \file json.hpp
/// \brief Minimal JSON emission and parsing for analysis results.
///
/// FTMC results feed dashboards, plotting scripts and certification
/// tooling; this module renders the main result types as JSON without
/// pulling in a JSON library. Since the campaign subsystem landed the
/// module also *reads* JSON (campaign specs, journals, result files)
/// through a small recursive-descent parser; the text task-set format
/// (taskset_io.hpp) remains the input path for task sets.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/io/parse_error.hpp"

namespace ftmc::io::json {

/// JSON string escaping (quotes, backslashes, control characters):
/// json_text::append_escaped into a fresh string.
[[nodiscard]] std::string escape(std::string_view text);

/// Renders a double as a JSON number (json_text::append_number).
///
/// Bytes: std::to_chars(chars_format::general, 17), which writes what
/// printf("%.17g") writes in the "C" locale. It reads no locale, so a
/// host locale with a decimal comma or digit grouping cannot change
/// the output (a stream would follow std::locale::global).
///
/// Round-trip contract (relied on by campaign result files): every
/// double maps to a JSON value that `parse` + `Value::as_number` map
/// back to the original —
///  - finite values print with 17 significant digits (exact for IEEE
///    doubles),
///  - infinities map to the *strings* "inf"/"-inf" (JSON has no
///    literal for them); as_number accepts those strings back,
///  - NaN maps to null; as_number maps null back to a quiet NaN.
[[nodiscard]] std::string number(double value);

/// Tiny order-preserving object builder. Each add_* call appends its
/// field, escaped or rendered in place, to one buffer; str() returns the
/// buffer closed. Values passed to add_raw must already be valid JSON.
class Object {
 public:
  Object& add_string(std::string_view key, std::string_view value);
  Object& add_number(std::string_view key, double value);
  Object& add_int(std::string_view key, long long value);
  Object& add_bool(std::string_view key, bool value);
  Object& add_raw(std::string_view key, std::string_view json);

  [[nodiscard]] std::string str() const;

 private:
  /// Appends the separator and `"key":`; the caller appends the value.
  void add_key(std::string_view key);

  std::string out_ = "{";
};

/// Joins already-rendered JSON values into an array.
[[nodiscard]] std::string array(const std::vector<std::string>& values);

/// A parsed JSON value. Objects preserve key order (matching the
/// order-preserving Object builder); duplicate keys are rejected at
/// parse time. Accessors throw ftmc::io::ParseError on kind mismatch so
/// spec-loading code reads as straight-line field extraction.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;  // null

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept {
    return kind_ == Kind::kNull;
  }

  [[nodiscard]] bool as_bool() const;
  /// Numeric view of the value. Accepts, per the `number` round-trip
  /// contract: JSON numbers, the strings "inf"/"-inf" (± infinity) and
  /// null (quiet NaN). Anything else throws.
  [[nodiscard]] double as_number() const;
  /// as_number, checked to be an exact non-negative integer <= 2^53
  /// (seeds, counts). Also accepts a string of decimal digits, so full
  /// 64-bit seeds survive the double-precision bottleneck.
  [[nodiscard]] std::uint64_t as_uint64() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Value>& items() const;  // arrays
  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& fields()
      const;  // objects

  /// Object member lookup: nullptr when absent (optional fields).
  [[nodiscard]] const Value* find(std::string_view key) const;
  /// Object member lookup: throws naming the key when absent.
  [[nodiscard]] const Value& at(std::string_view key) const;

 private:
  friend class Parser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> fields_;
};

/// Parses one JSON document (recursive-descent). Full RFC 8259 string
/// escapes: \uXXXX surrogate pairs decode to UTF-8 (code points beyond
/// the BMP included); lone or mis-paired surrogates are rejected with
/// the byte offset of the offending escape. Number parsing is
/// locale-independent (std::from_chars) — a host locale with a decimal
/// comma cannot change what "1.5" means. Trailing whitespace is
/// allowed, trailing garbage is not. Throws ftmc::io::ParseError with a
/// byte offset on malformed input.
[[nodiscard]] Value parse(std::string_view text);

}  // namespace ftmc::io::json

namespace ftmc::io {

/// The fault-tolerant task set, mapping included.
[[nodiscard]] std::string task_set_to_json(const core::FtTaskSet& ts);

/// Inverse of task_set_to_json: {"hi_dal","lo_dal","tasks":[...]} with
/// per-task {"name","period_ms","wcet_ms"} plus optional "deadline_ms"
/// (defaults to the period), "dal" (defaults to the LO level) and
/// "failure_prob" (defaults to 0). The emitted "crit" field is derived
/// and ignored on input; unknown keys are rejected so typos fail loudly.
/// Throws ftmc::io::ParseError on malformed or semantically invalid
/// input (the set is validated before it is returned).
[[nodiscard]] core::FtTaskSet task_set_from_json(const json::Value& doc);

/// A converted mixed-criticality task set.
[[nodiscard]] std::string mc_task_set_to_json(const mcs::McTaskSet& ts);

/// One FT-S outcome (profiles, PFH bounds, verdict, converted set).
[[nodiscard]] std::string fts_result_to_json(const core::FtsResult& result);

/// The Fig. 1/2 adaptation sweep as an array of points.
[[nodiscard]] std::string sweep_to_json(
    const std::vector<core::AdaptationSweepPoint>& points);

}  // namespace ftmc::io
