/// \file chrome_trace.hpp
/// \brief Chrome trace-event JSON building blocks.
///
/// Emits the JSON Array Format of the Trace Event specification, loadable
/// in Perfetto (https://ui.perfetto.dev) and chrome://tracing. Each helper
/// renders ONE event object; producers (the span recorder, the simulator
/// trace converter) append event strings to a shared vector and
/// write_trace() wraps them into a document, so timelines from several
/// sources merge into one file under distinct pids.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace ftmc::obs::chrome {

/// Duration-begin event ("ph":"B"). `ts_us` is microseconds from the
/// trace epoch; `args_json`, when non-empty, must be a JSON object.
[[nodiscard]] std::string duration_begin(std::string_view name, int pid,
                                         int tid, double ts_us,
                                         std::string_view args_json = {});

/// Duration-end event ("ph":"E"), closing the innermost open span of
/// (pid, tid).
[[nodiscard]] std::string duration_end(int pid, int tid, double ts_us);

/// Instant event ("ph":"i", thread scope).
[[nodiscard]] std::string instant(std::string_view name, int pid, int tid,
                                  double ts_us,
                                  std::string_view args_json = {});

/// Metadata events naming a thread lane / a process group.
[[nodiscard]] std::string thread_name(int pid, int tid,
                                      std::string_view name);
[[nodiscard]] std::string process_name(int pid, std::string_view name);

/// Wraps rendered events into {"traceEvents":[...],...}.
[[nodiscard]] std::string trace_document(
    const std::vector<std::string>& events);
void write_trace(std::ostream& os, const std::vector<std::string>& events);

}  // namespace ftmc::obs::chrome
