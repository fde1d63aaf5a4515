#include "ftmc/check/repro.hpp"

#include <climits>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "ftmc/common/contracts.hpp"
#include "ftmc/common/parse.hpp"
#include "ftmc/io/parse_error.hpp"
#include "ftmc/io/taskset_io.hpp"

namespace ftmc::check {
namespace {

/// Failure messages can span lines; metadata is one line per key.
std::string one_line(const std::string& text) {
  std::string out = text;
  for (char& ch : out) {
    if (ch == '\n' || ch == '\r') ch = ';';
  }
  return out;
}

/// "# key: value" -> (key, value); empty key when not a metadata line.
std::pair<std::string, std::string> parse_meta_line(
    const std::string& line) {
  if (line.rfind("# ", 0) != 0) return {};
  const std::size_t colon = line.find(": ");
  if (colon == std::string::npos || colon <= 2) return {};
  return {line.substr(2, colon - 2), line.substr(colon + 2)};
}

/// A metadata value read by parse.hpp; a malformed or out-of-domain one
/// is a ParseError naming the key.
template <typename T>
T checked(Expected<T> parsed) {
  if (!parsed) throw io::ParseError("repro metadata: " + parsed.error());
  return *parsed;
}

int parse_count(const std::string& key, const std::string& value,
                int min) {
  return static_cast<int>(checked(parse_int(key, value, min, INT_MAX)));
}

}  // namespace

std::string repro_to_string(const FailureRecord& record) {
  std::ostringstream out;
  out << "# ftmc_check repro (replay: ftmc_check --replay <this file>)\n";
  out << "# property: " << record.property << "\n";
  out << "# family: " << record.family << "\n";
  out << "# base-seed: " << record.base_seed << "\n";
  out << "# case-index: " << record.minimal.index << "\n";
  out << "# case-seed: " << record.minimal.seed << "\n";
  out << "# n-hi: " << record.minimal.n_hi << "\n";
  out << "# n-lo: " << record.minimal.n_lo << "\n";
  out << "# n-adapt: " << record.minimal.n_adapt << "\n";
  out << "# degradation-factor: " << record.minimal.degradation_factor
      << "\n";
  out << "# message: " << one_line(record.message) << "\n";
  out << io::task_set_to_string(record.minimal.ts);
  return out.str();
}

std::string repro_file_name(const FailureRecord& record) {
  std::ostringstream name;
  name << "repro-" << record.property << "-s" << record.base_seed << "-i"
       << record.minimal.index << ".txt";
  return name.str();
}

Repro parse_repro(const std::string& text) {
  Repro repro;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto [key, value] = parse_meta_line(line);
    if (key.empty()) continue;
    if (key == "property") {
      repro.property = value;
    } else if (key == "family") {
      repro.family = value;
    } else if (key == "message") {
      repro.message = value;
    } else if (key == "base-seed") {
      repro.base_seed = checked(parse_uint64(key, value));
    } else if (key == "case-index") {
      repro.c.index = checked(parse_uint64(key, value));
    } else if (key == "case-seed") {
      repro.c.seed = checked(parse_uint64(key, value));
    } else if (key == "n-hi") {
      repro.c.n_hi = parse_count(key, value, 1);
    } else if (key == "n-lo") {
      repro.c.n_lo = parse_count(key, value, 1);
    } else if (key == "n-adapt") {
      repro.c.n_adapt = parse_count(key, value, 0);
    } else if (key == "degradation-factor") {
      repro.c.degradation_factor = checked(parse_double(key, value, 1.0));
    }
    // Unknown metadata keys are ignored: forward compatibility.
  }
  if (repro.property.empty()) {
    throw io::ParseError("repro file lacks a '# property: ...' line");
  }
  // The task lines themselves; '#' metadata passes through as comments.
  repro.c.ts = io::parse_task_set_string(text);
  return repro;
}

std::vector<std::string> write_repro_files(
    std::vector<FailureRecord>& records, const std::string& dir) {
  std::vector<std::string> paths;
  if (records.empty()) return paths;
  std::filesystem::create_directories(dir);
  for (FailureRecord& record : records) {
    const std::filesystem::path path =
        std::filesystem::path(dir) / repro_file_name(record);
    std::ofstream out(path);
    FTMC_EXPECTS(out.good(),
                 "cannot open repro file for writing: " + path.string());
    out << repro_to_string(record);
    out.flush();
    FTMC_EXPECTS(out.good(), "failed writing repro: " + path.string());
    record.repro_path = path.string();
    paths.push_back(record.repro_path);
  }
  return paths;
}

}  // namespace ftmc::check
