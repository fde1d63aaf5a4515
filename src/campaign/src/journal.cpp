#include "ftmc/campaign/journal.hpp"

#include <sstream>
#include <stdexcept>

namespace ftmc::campaign {

std::string record_to_json(const CellRecord& record) {
  return io::json::Object{}
      .add_string("hash", record.hash)
      .add_int("accept_without", record.accept_without)
      .add_int("accept_with", record.accept_with)
      .str();
}

CellRecord record_from_json(std::string_view line) {
  return record_from_json(io::json::parse(line));
}

CellRecord record_from_json(const io::json::Value& doc) {
  CellRecord record;
  record.hash = doc.at("hash").as_string();
  record.accept_without =
      static_cast<int>(doc.at("accept_without").as_uint64());
  record.accept_with = static_cast<int>(doc.at("accept_with").as_uint64());
  if (record.hash.size() != 16) {
    throw io::ParseError("cell record: bad hash \"" + record.hash + "\"");
  }
  return record;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Journal::Journal(std::string path) : path_(std::move(path)) {
  // A crash mid-append can leave the file without a trailing newline.
  // Appending straight after it would concatenate the next record onto
  // the torn line and lose both; terminate the torn line first so it
  // stays quarantined as exactly one bad line.
  bool needs_newline = false;
  {
    std::ifstream in(path_, std::ios::binary);
    if (in) {
      in.seekg(0, std::ios::end);
      const std::streamoff size = in.tellg();
      if (size > 0) {
        in.seekg(size - 1);
        needs_newline = (in.get() != '\n');
      }
    }
  }
  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_) throw std::runtime_error("cannot open journal " + path_);
  if (needs_newline) {
    out_ << '\n';
    out_.flush();
  }
}

void Journal::append(const CellRecord& record) {
  const std::string line = record_to_json(record);
  const std::lock_guard<std::mutex> lock(mu_);
  out_ << line << '\n';
  out_.flush();
  if (!out_) throw std::runtime_error("journal append failed: " + path_);
}

Journal::LoadResult Journal::load(const std::string& path) {
  LoadResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in) return result;  // no journal yet — fresh campaign
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      result.records.push_back(record_from_json(line));
    } catch (const io::ParseError&) {
      // A crash mid-append leaves at most one torn trailing line; count
      // and skip rather than refusing the whole journal.
      ++result.bad_lines;
    }
  }
  return result;
}

}  // namespace ftmc::campaign
