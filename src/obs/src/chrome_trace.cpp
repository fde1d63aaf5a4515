#include "ftmc/obs/chrome_trace.hpp"

#include <cmath>
#include <locale>
#include <ostream>
#include <sstream>

#include "ftmc/common/json_text.hpp"

namespace ftmc::obs::chrome {
namespace {

std::string ts_field(double ts_us) {
  // Perfetto accepts fractional microseconds; keep enough digits for the
  // nanosecond clock underneath. The classic locale keeps a decimal-comma
  // global locale from writing "1.234,5", which is not JSON.
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out.precision(15);
  out << (std::isfinite(ts_us) ? ts_us : 0.0);
  return out.str();
}

std::string quoted(std::string_view text) {
  std::string out;
  json_text::append_quoted(out, text);
  return out;
}

void append_args(std::string& out, std::string_view args_json) {
  if (!args_json.empty()) {
    out += ",\"args\":";
    out += args_json;
  }
}

}  // namespace

std::string duration_begin(std::string_view name, int pid, int tid,
                           double ts_us, std::string_view args_json) {
  std::string out = "{\"name\":" + quoted(name) +
                    ",\"cat\":\"ftmc\",\"ph\":\"B\",\"pid\":" +
                    std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
                    ",\"ts\":" + ts_field(ts_us);
  append_args(out, args_json);
  out += "}";
  return out;
}

std::string duration_end(int pid, int tid, double ts_us) {
  return "{\"ph\":\"E\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":" + std::to_string(tid) + ",\"ts\":" + ts_field(ts_us) +
         "}";
}

std::string instant(std::string_view name, int pid, int tid, double ts_us,
                    std::string_view args_json) {
  std::string out = "{\"name\":" + quoted(name) +
                    ",\"cat\":\"ftmc\",\"ph\":\"i\",\"s\":\"t\",\"pid\":" +
                    std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
                    ",\"ts\":" + ts_field(ts_us);
  append_args(out, args_json);
  out += "}";
  return out;
}

std::string thread_name(int pid, int tid, std::string_view name) {
  return "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
         ",\"args\":{\"name\":" + quoted(name) + "}}";
}

std::string process_name(int pid, std::string_view name) {
  return "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(pid) + ",\"tid\":0,\"args\":{\"name\":" +
         quoted(name) + "}}";
}

std::string trace_document(const std::vector<std::string>& events) {
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ",\n";
    out += events[i];
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

void write_trace(std::ostream& os, const std::vector<std::string>& events) {
  os << trace_document(events);
}

}  // namespace ftmc::obs::chrome
