#include "ftmc/rt/blackbox_io.hpp"

#include <charconv>
#include <cstdio>
#include <ostream>
#include <string>

namespace ftmc::rt {

namespace {

// Shortest round-trip rendering, locale-independent (the dump must parse
// back bit-identically regardless of LC_NUMERIC).
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string quoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void write_record(std::ostream& os, const BlackBoxRecord& r) {
  os << "{\"seq\":" << r.seq << ",\"time\":" << r.time << ",\"kind\":\""
     << to_string(r.kind) << "\",\"task\":" << r.task << ",\"job\":" << r.job
     << ",\"detail\":" << r.detail << ",\"release\":" << r.release
     << ",\"deadline\":" << r.abs_deadline << "}";
}

}  // namespace

void write_blackbox_json(std::ostream& os, const std::vector<Task>& tasks,
                         const PosixHostConfig& config,
                         const PosixResult& result) {
  os << "{\n  \"format\": \"ftmc-blackbox-v1\",\n  \"config\": {\n"
     << "    \"policy\": \"" << to_string(config.core.policy) << "\",\n"
     << "    \"adaptation\": \"" << to_string(config.core.adaptation)
     << "\",\n"
     << "    \"degradation_factor\": "
     << number(config.core.degradation_factor) << ",\n"
     << "    \"mode_reset_on_idle\": "
     << (config.core.mode_reset_on_idle ? "true" : "false") << ",\n"
     << "    \"admission_control\": "
     << (config.core.admission_control ? "true" : "false") << ",\n"
     << "    \"max_jobs\": " << config.core.max_jobs << ",\n"
     << "    \"allow_job_growth\": "
     << (config.core.allow_job_growth ? "true" : "false") << ",\n"
     << "    \"black_box_capacity\": " << config.core.black_box_capacity
     << ",\n"
     << "    \"horizon\": " << config.horizon << ",\n"
     << "    \"time_scale\": " << number(config.time_scale) << ",\n"
     // Quoted: a full-range 64-bit seed does not survive the JSON
     // double round trip as a bare number, and replay needs it exact.
     << "    \"seed\": \"" << config.seed << "\",\n"
     << "    \"fault_model\": \"" << to_string(config.fault_model)
     << "\"\n  },\n  \"tasks\": [\n";
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Task& p = tasks[i];
    os << "    {\"name\": " << quoted(p.name) << ", \"period\": " << p.period
       << ", \"deadline\": " << p.deadline << ", \"wcet\": " << p.wcet
       << ", \"virtual_deadline\": " << p.virtual_deadline << ", \"crit\": \""
       << (p.crit == CritLevel::HI ? "HI" : "LO")
       << "\", \"max_attempts\": " << p.max_attempts
       << ", \"adapt_threshold\": " << p.adapt_threshold
       << ", \"priority\": " << p.priority << ", \"segments\": " << p.segments
       << ", \"failure_prob\": " << number(p.failure_prob)
       << ", \"checkpoint_overhead\": " << number(p.checkpoint_overhead)
       << "}" << (i + 1 < tasks.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"admission_records\": " << result.blackbox_admissions
     << ",\n  \"total_records\": " << result.blackbox_total
     << ",\n  \"dropped_records\": "
     << (result.blackbox_total - result.blackbox.size())
     << ",\n  \"records\": [\n";
  for (std::size_t i = 0; i < result.blackbox.size(); ++i) {
    os << "    ";
    write_record(os, result.blackbox[i]);
    os << (i + 1 < result.blackbox.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

void write_blackbox_csv(std::ostream& os,
                        const std::vector<BlackBoxRecord>& records) {
  os << "seq,time,kind,task,job,detail,release,deadline\n";
  for (const BlackBoxRecord& r : records) {
    os << r.seq << ',' << r.time << ',' << to_string(r.kind) << ',' << r.task
       << ',' << r.job << ',' << r.detail << ',' << r.release << ','
       << r.abs_deadline << '\n';
  }
}

}  // namespace ftmc::rt
