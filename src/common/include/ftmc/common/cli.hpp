/// \file cli.hpp
/// \brief The one command-line parser: every tool, bench and example
///        declares its flags in one table and hands it argv.
///
/// A row of the table names a flag, its value domain (numbers go through
/// parse.hpp), one help line and, optionally, the FTMC_BENCH_* variable
/// that overrides it. `parse` reads argv, then the environment — a set
/// variable wins over the flag and must parse — and renders --help from
/// the same rows. Any bad input (an unknown flag, a missing value, a
/// malformed or out-of-domain number, an unknown choice, a missing
/// required argument) prints "<program>: <error>" and the usage line,
/// and the binary exits 2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "ftmc/common/parse.hpp"

namespace ftmc::cli {

/// A HOST:PORT endpoint.
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// One row of a flag table, bound to the option field it fills. Its name
/// says what it is:
///  - "--flag": a flag, followed by its value unless it is a switch;
///  - "FILE":   a positional argument (rows fill in table order);
///  - "":       a setting read only from its environment variable.
struct Flag {
  /// Parses `text` into the bound field and returns the error, "" when
  /// it took. `label` names the source (flag or variable) in that error.
  using Setter =
      std::function<std::string(std::string_view label, std::string_view text)>;

  // Every member has a default, so a row names only what it sets.
  std::string name{};
  std::string meta{};  ///< value placeholder in --help; "" for a switch
  std::string help{};  ///< one help line ('\n' continues it)
  std::string env{};   ///< FTMC_BENCH_* variable that overrides the row
  std::vector<std::string> choices{};  ///< when set, the only values taken
  bool required = false;
  Setter set{};

  Flag& overridden_by(std::string variable) {
    env = std::move(variable);
    return *this;
  }
  Flag& one_of(std::vector<std::string> values) {
    choices = std::move(values);
    return *this;
  }
  Flag& require() {
    required = true;
    return *this;
  }
};

/// A binary's flags, or one command's in a binary with commands.
struct Command {
  std::string program{};  ///< binary name; every error starts with it
  std::string name{};     ///< command word ("" for a single-command binary)
  std::string about{};    ///< what --help says between usage and flags
  std::vector<Flag> flags{};
};

/// A switch: its presence sets `target`.
[[nodiscard]] Flag toggle(std::string name, bool& target, std::string help);

/// A finite number in [min, max].
[[nodiscard]] Flag real(std::string name, double& target, double min,
                        double max, std::string help);

/// HOST:PORT with a non-empty host and a port in [1, 65535].
[[nodiscard]] Flag endpoint(std::string name, Endpoint& target,
                            std::string help);

/// A string value, e.g. a path (`.one_of(...)` makes it a choice); a
/// repeatable one when `target` is a vector: each occurrence appends.
template <typename T>
[[nodiscard]] Flag text(std::string name, T& target, std::string meta,
                        std::string help) {
  return {.name = std::move(name),
          .meta = std::move(meta),
          .help = std::move(help),
          .set = [&target](std::string_view, std::string_view text) {
            if constexpr (std::is_same_v<T, std::string>) {
              target = text;
            } else {
              target.emplace_back(text);
            }
            return std::string();
          }};
}

/// An integer in [min, max]; `target` is an integral field, or an
/// optional one left empty unless the row is given. [min, max] must fit
/// the field.
template <typename T>
[[nodiscard]] Flag integer(std::string name, T& target, long long min,
                           long long max, std::string help) {
  return {.name = std::move(name),
          .meta = "N",
          .help = std::move(help),
          .set = [&target, min, max](std::string_view label,
                                     std::string_view text) {
            const Expected<long long> n = parse_int(label, text, min, max);
            if (n) target = static_cast<T>(*n);
            return n.error();
          }};
}

/// An unsigned 64-bit integer over its whole range (no sign taken);
/// `target` is a std::uint64_t or an optional one.
template <typename T>
[[nodiscard]] Flag uint64(std::string name, T& target, std::string help) {
  return {.name = std::move(name),
          .meta = "N",
          .help = std::move(help),
          .set = [&target](std::string_view label, std::string_view text) {
            const Expected<std::uint64_t> n = parse_uint64(label, text);
            if (n) target = *n;
            return n.error();
          }};
}

/// Parses argv[1..argc) and then the rows' environment variables into
/// the bound fields. Returns nothing when the binary should go on;
/// otherwise the code main returns: 0 once --help (or -h) is printed to
/// `out`, 2 once a usage error is printed to `err`.
[[nodiscard]] std::optional<int> parse(const Command& command, int argc,
                                       const char* const* argv,
                                       std::ostream& out = std::cout,
                                       std::ostream& err = std::cerr);

/// A binary with commands: argv[1] names one of `commands` (its index is
/// stored in `chosen`), and the rest parses against that command's table.
/// Bare --help lists the commands; a missing or unknown command is a
/// usage error.
[[nodiscard]] std::optional<int> parse(std::span<const Command> commands,
                                       int argc, const char* const* argv,
                                       std::size_t& chosen,
                                       std::ostream& out = std::cout,
                                       std::ostream& err = std::cerr);

}  // namespace ftmc::cli
