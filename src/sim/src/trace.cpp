#include "ftmc/sim/trace.hpp"

#include <algorithm>
#include <ostream>

#include "ftmc/obs/chrome_trace.hpp"

namespace ftmc::sim {

std::string csv_escape(std::string_view field) {
  if (field.find_first_of(",\"\n\r") == std::string_view::npos) {
    return std::string(field);
  }
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void write_trace_csv(std::ostream& os, const std::vector<TraceEvent>& trace,
                     const std::vector<std::string>& task_names) {
  os << "time_us,kind,task,task_name,job,detail\n";
  for (const TraceEvent& ev : trace) {
    os << ev.time << "," << to_string(ev.kind) << "," << ev.task << ","
       << (ev.task < task_names.size() ? csv_escape(task_names[ev.task])
                                       : "")
       << "," << ev.job << "," << ev.detail << "\n";
  }
}

namespace {

std::string task_lane_name(const std::vector<std::string>& task_names,
                           std::uint32_t task) {
  if (task < task_names.size() && !task_names[task].empty()) {
    return task_names[task];
  }
  return "task" + std::to_string(task);
}

std::string job_args(const TraceEvent& ev) {
  std::string args = "{\"job\":" + std::to_string(ev.job);
  if (ev.detail != 0) args += ",\"attempt\":" + std::to_string(ev.detail);
  args += "}";
  return args;
}

}  // namespace

void append_trace_chrome_events(std::vector<std::string>& out,
                                const std::vector<TraceEvent>& trace,
                                const std::vector<std::string>& task_names,
                                int pid) {
  namespace chrome = obs::chrome;
  // Lane 0 carries system-wide mode events; task i gets lane i + 1.
  out.push_back(chrome::process_name(pid, "ftmc simulator"));
  out.push_back(chrome::thread_name(pid, 0, "system"));
  std::uint32_t max_task = 0;
  for (const TraceEvent& ev : trace) max_task = std::max(max_task, ev.task);
  for (std::uint32_t t = 0; t <= max_task; ++t) {
    out.push_back(
        chrome::thread_name(pid, static_cast<int>(t) + 1,
                            task_lane_name(task_names, t)));
  }

  // Open execution span per task: begin tick, or kNever when idle.
  std::vector<Tick> open(static_cast<std::size_t>(max_task) + 1, kNever);
  Tick last_time = 0;
  const auto tid_of = [](std::uint32_t task) {
    return static_cast<int>(task) + 1;
  };
  const auto close_span = [&](std::uint32_t task, Tick at) {
    if (open[task] == kNever) return;
    out.push_back(chrome::duration_end(pid, tid_of(task),
                                       static_cast<double>(at)));
    open[task] = kNever;
  };

  for (const TraceEvent& ev : trace) {
    const double ts = static_cast<double>(ev.time);
    last_time = std::max(last_time, ev.time);
    switch (ev.kind) {
      case TraceKind::kStart:
        close_span(ev.task, ev.time);  // re-dispatch of the same lane
        out.push_back(chrome::duration_begin("run", pid, tid_of(ev.task),
                                             ts, job_args(ev)));
        open[ev.task] = ev.time;
        break;
      case TraceKind::kPreempt:
      case TraceKind::kComplete:
      case TraceKind::kJobFail:
        if (ev.kind != TraceKind::kPreempt) {
          out.push_back(chrome::instant(
              ev.kind == TraceKind::kComplete ? "complete" : "job-fail",
              pid, tid_of(ev.task), ts, job_args(ev)));
        }
        close_span(ev.task, ev.time);
        break;
      case TraceKind::kKill:
        out.push_back(chrome::instant("kill", pid, tid_of(ev.task), ts,
                                      job_args(ev)));
        close_span(ev.task, ev.time);
        break;
      case TraceKind::kRelease:
        out.push_back(chrome::instant("release", pid, tid_of(ev.task), ts,
                                      job_args(ev)));
        break;
      case TraceKind::kAttemptFail:
        out.push_back(chrome::instant("attempt-fail", pid, tid_of(ev.task),
                                      ts, job_args(ev)));
        break;
      case TraceKind::kDeadlineMiss:
        out.push_back(chrome::instant("deadline-miss", pid,
                                      tid_of(ev.task), ts, job_args(ev)));
        break;
      case TraceKind::kModeSwitch:
        out.push_back(chrome::instant("mode-switch -> HI", pid, 0, ts));
        break;
      case TraceKind::kModeReset:
        out.push_back(chrome::instant("mode-reset -> LO", pid, 0, ts));
        break;
    }
  }
  // Close spans still open when the trace ends (horizon cut).
  for (std::uint32_t t = 0; t <= max_task; ++t) close_span(t, last_time);
}

void write_trace_chrome_json(std::ostream& os,
                             const std::vector<TraceEvent>& trace,
                             const std::vector<std::string>& task_names) {
  std::vector<std::string> events;
  append_trace_chrome_events(events, trace, task_names);
  obs::chrome::write_trace(os, events);
}

}  // namespace ftmc::sim
