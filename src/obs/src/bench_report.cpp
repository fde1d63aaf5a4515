#include "ftmc/obs/bench_report.hpp"

#include <cstdlib>
#include <exception>
#include <iostream>
#include <thread>

#include "ftmc/common/file.hpp"
#include "ftmc/common/json_text.hpp"
#include "ftmc/obs/registry.hpp"

namespace ftmc::obs {
namespace {

/// Appends `"key":`, after a comma unless it is the object's first key.
void add_key(std::string& out, std::string_view key) {
  if (out.back() != '{') out += ',';
  json_text::append_quoted(out, key);
  out += ':';
}

}  // namespace

BenchReport::BenchReport(std::string name, int argc,
                         const char* const* argv)
    : name_(std::move(name)),
      argv_(argv, argv + argc),
      t0_(std::chrono::steady_clock::now()) {
  Registry::global().enable();
}

void BenchReport::set_items(double items, std::string unit) {
  items_ = items;
  items_unit_ = std::move(unit);
}

void BenchReport::set_items_measured(double items, double measured_seconds,
                                     std::string unit) {
  set_items(items, std::move(unit));
  measured_seconds_ = measured_seconds;
}

void BenchReport::note_number(std::string_view key, double value) {
  std::string raw;
  json_text::append_number(raw, value);
  notes_.emplace_back(key, std::move(raw));
}

void BenchReport::note_string(std::string_view key, std::string_view value) {
  std::string raw;
  json_text::append_quoted(raw, value);
  notes_.emplace_back(key, std::move(raw));
}

void BenchReport::note_bool(std::string_view key, bool value) {
  notes_.emplace_back(key, value ? "true" : "false");
}

std::string BenchReport::path() const {
  const char* dir = std::getenv("FTMC_BENCH_DIR");
  return (dir != nullptr && *dir != '\0' ? std::string(dir) : ".") +
         "/BENCH_" + name_ + ".json";
}

void BenchReport::write() {
  if (written_) return;
  written_ = true;

  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0_)
                          .count();
  std::string doc = "{";
  add_key(doc, "name");
  json_text::append_quoted(doc, name_);
  add_key(doc, "argv");
  doc += '[';
  for (std::size_t i = 0; i < argv_.size(); ++i) {
    if (i > 0) doc += ',';
    json_text::append_quoted(doc, argv_[i]);
  }
  doc += ']';
  add_key(doc, "hardware_threads");
  json_text::append_int(doc, std::thread::hardware_concurrency());
  add_key(doc, "wall_seconds");
  json_text::append_number(doc, wall);
  if (items_ >= 0.0) {
    add_key(doc, "items");
    json_text::append_number(doc, items_);
    add_key(doc, "items_unit");
    json_text::append_quoted(doc, items_unit_);
    const double window = measured_seconds_ > 0.0 ? measured_seconds_ : wall;
    if (measured_seconds_ > 0.0) {
      add_key(doc, "measured_seconds");
      json_text::append_number(doc, measured_seconds_);
    }
    add_key(doc, "items_per_sec");
    json_text::append_number(doc, window > 0.0 ? items_ / window : 0.0);
  }
  if (!notes_.empty()) {
    add_key(doc, "notes");
    doc += '{';
    for (const auto& [key, raw] : notes_) {
      add_key(doc, key);
      doc += raw;
    }
    doc += '}';
  }
  add_key(doc, "metrics");
  doc += Registry::global().snapshot_json();
  doc += "}\n";

  const std::string out_path = path();
  try {
    write_file_atomic(out_path, doc);
  } catch (const std::exception& e) {
    std::cerr << "BenchReport: " << e.what() << "\n";
    return;
  }
  std::cerr << "telemetry: " << out_path << "\n";
}

BenchReport::~BenchReport() {
  try {
    write();
  } catch (...) {
    // A telemetry failure must never take down the run's exit path.
  }
}

}  // namespace ftmc::obs
