/// \file trace.hpp
/// \brief Execution traces (bounded, optional) and their CSV / Chrome
///        trace-event exports.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "ftmc/common/time.hpp"
#include "ftmc/rt/event.hpp"

namespace ftmc::sim {

// The runtime core's event vocabulary under the simulator's historical
// names: a trace is the event stream the core emitted.
using TraceKind = rt::EventKind;
using TraceEvent = rt::Event;

/// RFC-4180 CSV field quoting: fields containing commas, double quotes,
/// or line breaks are wrapped in double quotes with embedded quotes
/// doubled; anything else passes through unchanged.
[[nodiscard]] std::string csv_escape(std::string_view field);

/// Writes a trace as CSV (time_us,kind,task,task_name,job,detail) for
/// external Gantt/timeline tooling. `task_names` indexes the simulator
/// task list; pass {} to omit names. Task names are RFC-4180 quoted, so
/// names containing commas/quotes/newlines round-trip.
void write_trace_csv(std::ostream& os, const std::vector<TraceEvent>& trace,
                     const std::vector<std::string>& task_names);

/// Converts a simulator trace into Chrome trace-event JSON objects,
/// appended to `out` under process `pid`: one lane per task (execution
/// spans from kStart to preempt/complete/fail/kill, instants for
/// releases, attempt failures and deadline misses) plus a "system" lane
/// carrying mode switches/resets. Begin/end events are balanced per lane.
void append_trace_chrome_events(std::vector<std::string>& out,
                                const std::vector<TraceEvent>& trace,
                                const std::vector<std::string>& task_names,
                                int pid = 1);

/// One-call variant: writes a complete {"traceEvents":[...]} document
/// loadable in Perfetto / chrome://tracing.
void write_trace_chrome_json(std::ostream& os,
                             const std::vector<TraceEvent>& trace,
                             const std::vector<std::string>& task_names);

}  // namespace ftmc::sim
