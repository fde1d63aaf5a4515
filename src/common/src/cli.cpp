#include "ftmc/common/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace ftmc::cli {

namespace {

constexpr std::size_t kColumn = 24;  // help text starts here
constexpr std::size_t kWidth = 79;   // choice lists wrap before this

bool positional(const Flag& row) {
  return !row.name.empty() && row.name[0] != '-';
}

/// "--flag META", "--switch", "FILE"; "" for an environment-only row.
std::string left_column(const Flag& row) {
  if (positional(row) || row.meta.empty()) return row.name;
  return row.name + " " + row.meta;
}

std::string usage_line(const Command& command) {
  std::string line = command.program;
  if (!command.name.empty()) line += " " + command.name;
  std::string positionals;
  for (const Flag& row : command.flags) {
    if (positional(row)) {
      positionals.append(row.required ? " " : " [")
          .append(row.name)
          .append(row.required ? "" : "]");
    } else if (row.required) {
      line.append(" ").append(left_column(row));
    }
  }
  return line + " [options]" + positionals;
}

/// One help entry: `left`, then the help lines ('\n' breaks them) and
/// the wrapped choices from kColumn on — below `left` if it reaches it.
void write_entry(std::ostream& out, const std::string& left,
                 const std::string& help,
                 const std::vector<std::string>& choices = {}) {
  std::vector<std::string> lines;
  std::istringstream parts(help);
  for (std::string part; std::getline(parts, part);) lines.push_back(part);
  for (std::size_t i = 0; i < choices.size(); ++i) {
    const std::string word =
        choices[i] + (i + 1 < choices.size() ? "," : "");
    if (i == 0) {
      lines.push_back("one of: " + word);
    } else if (kColumn + lines.back().size() + 1 + word.size() > kWidth) {
      lines.push_back("  " + word);
    } else {
      lines.back() += " " + word;
    }
  }
  std::string line = "  " + left;
  if (line.size() + 2 > kColumn) out << line << "\n";
  for (const std::string& text : lines) {
    if (line.size() + 2 > kColumn) line.clear();
    line.resize(kColumn, ' ');
    out << line << text << "\n";
    line.clear();
  }
}

std::string render_help(const Command& command) {
  std::ostringstream out;
  out << "usage: " << usage_line(command) << "\n";
  if (!command.about.empty()) out << "\n" << command.about << "\n";
  out << "\noptions:\n";
  for (const Flag& row : command.flags) {
    if (!row.name.empty()) {
      write_entry(out, left_column(row), row.help, row.choices);
    }
  }
  write_entry(out, "--help", "print this help and exit");
  const char* header = "\nenvironment (wins over the flags):\n";
  for (const Flag& row : command.flags) {
    if (row.env.empty()) continue;
    out << std::exchange(header, "");
    write_entry(out, row.env + "=" + row.meta,
                row.name.empty() ? row.help : "overrides " + row.name);
  }
  return out.str();
}

std::string quoted(std::string_view text) {
  std::string out(1, '"');
  out.append(text).push_back('"');
  return out;
}

/// Checks `text` against the row's choices, then hands it to its setter.
std::string apply(const Flag& row, std::string_view label,
                  std::string_view text) {
  if (!row.choices.empty() &&
      std::find(row.choices.begin(), row.choices.end(), text) ==
          row.choices.end()) {
    std::string known;
    for (const std::string& choice : row.choices) {
      known += (known.empty() ? "" : ", ") + choice;
    }
    return std::string(label) + " expects one of " + known + "; got " +
           quoted(text);
  }
  return row.set(label, text);
}

/// Fills the command's fields from argv, then the environment. Returns
/// the usage error ("" when none); sets `help` when --help was asked.
std::string read(const Command& command, int argc, const char* const* argv,
                 bool& help) {
  const std::vector<Flag>& rows = command.flags;
  std::vector<bool> seen(rows.size(), false);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help = true;
      return {};
    }
    const bool is_flag = arg.size() > 1 && arg[0] == '-';
    std::size_t k = 0;
    while (k < rows.size() &&
           !(is_flag ? rows[k].name == arg
                     : positional(rows[k]) && !seen[k])) {
      ++k;
    }
    if (k == rows.size()) {
      return (is_flag ? "unknown flag " : "unexpected argument ") +
             quoted(arg);
    }
    seen[k] = true;
    std::string_view value = arg;
    if (is_flag && !rows[k].meta.empty()) {
      if (i + 1 == argc) {
        return std::string(arg) + " expects a value (" + rows[k].meta + ")";
      }
      value = argv[++i];
    }
    const std::string label =
        is_flag ? rows[k].name : rows[k].name + " argument";
    if (std::string error = apply(rows[k], label, value); !error.empty()) {
      return error;
    }
  }
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const char* value =
        rows[k].env.empty() ? nullptr : std::getenv(rows[k].env.c_str());
    if (value != nullptr) {
      if (std::string error = apply(rows[k], rows[k].env, value);
          !error.empty()) {
        return error;
      }
    } else if (rows[k].required && !seen[k]) {
      return "missing " + left_column(rows[k]);
    }
  }
  return {};
}

}  // namespace

Flag toggle(std::string name, bool& target, std::string help) {
  return {.name = std::move(name),
          .help = std::move(help),
          .set = [&target](std::string_view, std::string_view) {
            target = true;
            return std::string();
          }};
}

Flag real(std::string name, double& target, double min, double max,
          std::string help) {
  return {.name = std::move(name),
          .meta = "X",
          .help = std::move(help),
          .set = [&target, min, max](std::string_view label,
                                     std::string_view text) {
            const Expected<double> x = parse_double(label, text, min, max);
            if (x) target = *x;
            return x.error();
          }};
}

Flag endpoint(std::string name, Endpoint& target, std::string help) {
  return {.name = std::move(name),
          .meta = "HOST:PORT",
          .help = std::move(help),
          .set = [&target](std::string_view label, std::string_view text) {
            const std::size_t colon = text.rfind(':');
            if (colon == std::string_view::npos || colon == 0) {
              return std::string(label) + " expects HOST:PORT, got " +
                     quoted(text);
            }
            const Expected<long long> port =
                parse_int(std::string(label) + " port",
                          text.substr(colon + 1), 1, 65535);
            if (port) {
              target.host = text.substr(0, colon);
              target.port = static_cast<std::uint16_t>(*port);
            }
            return port.error();
          }};
}

std::optional<int> parse(const Command& command, int argc,
                         const char* const* argv, std::ostream& out,
                         std::ostream& err) {
  bool help = false;
  const std::string error = read(command, argc, argv, help);
  if (help) {
    out << render_help(command);
    return 0;
  }
  if (!error.empty()) {
    err << command.program << ": " << error << "\n"
        << "usage: " << usage_line(command) << "\n";
    return 2;
  }
  return std::nullopt;
}

std::optional<int> parse(std::span<const Command> commands, int argc,
                         const char* const* argv, std::size_t& chosen,
                         std::ostream& out, std::ostream& err) {
  const std::string& program = commands.front().program;
  const auto list = [&](std::ostream& to) {
    to << "usage: " << program << " <command> [options]\n\ncommands:\n";
    for (const Command& command : commands) {
      to << "  " << usage_line(command).substr(program.size() + 1)
         << "\n      " << command.about << "\n";
    }
    to << "\n" << program << " <command> --help lists its flags.\n";
  };
  const std::string_view word = argc > 1 ? argv[1] : "";
  if (word == "--help" || word == "-h") {
    list(out);
    return 0;
  }
  for (chosen = 0; chosen < commands.size(); ++chosen) {
    if (commands[chosen].name == word) {
      return parse(commands[chosen], argc - 1, argv + 1, out, err);
    }
  }
  if (!word.empty()) {
    err << program << ": unknown command " << quoted(word) << "\n";
  }
  list(err);
  return 2;
}

}  // namespace ftmc::cli
