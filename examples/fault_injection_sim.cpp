/// Fault-injection simulation: runs the discrete-event simulator on the
/// Example 3.1 system as configured by FT-S, with the fault rate inflated
/// so mode switches become visible, and prints an annotated trace excerpt
/// plus run statistics.
///
/// Demonstrates the runtime side of the paper's model: re-execution on
/// sanity-check failure, the kill trigger on the (n'+1)-th execution of a
/// HI job, and EDF-VD virtual deadlines.
///
/// Build & run:  ./build/examples/fault_injection_sim [seed]
///               [--trace-out <file>]
///
/// --trace-out writes a Chrome trace-event JSON (open in Perfetto or
/// chrome://tracing): process 1 holds the simulator timeline (one lane
/// per task plus a system lane for mode switches), process 2 the worker
/// lanes of a small threaded Monte-Carlo campaign over the same system.
#include <fstream>
#include <iostream>
#include <string>

#include "ftmc/common/cli.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/io/table.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/obs/chrome_trace.hpp"
#include "ftmc/obs/span.hpp"
#include "ftmc/sim/engine.hpp"
#include "ftmc/sim/gantt.hpp"
#include "ftmc/sim/monte_carlo.hpp"

int main(int argc, char** argv) {
  using namespace ftmc;
  std::uint64_t seed = 42;
  std::string trace_out;
  const cli::Command flags{
      .program = "fault_injection_sim",
      .flags = {cli::uint64("SEED", seed, "simulator seed (default 42)"),
                cli::text("--trace-out", trace_out, "FILE",
                          "write a Chrome trace-event JSON of the run")}};
  if (const auto code = cli::parse(flags, argc, argv)) return *code;

  // Example 3.1 with f inflated to 3% so that re-executions and the mode
  // switch actually happen within a short horizon.
  const double f = 0.03;
  core::FtTaskSet tasks(
      {core::FtTask{"tau1", 60.0, 60.0, 5.0, Dal::B, f},
       core::FtTask{"tau2", 25.0, 25.0, 4.0, Dal::B, f},
       core::FtTask{"tau3", 40.0, 40.0, 7.0, Dal::D, f},
       core::FtTask{"tau4", 90.0, 90.0, 6.0, Dal::D, f},
       core::FtTask{"tau5", 70.0, 70.0, 8.0, Dal::D, f}},
      DualCriticalityMapping{Dal::B, Dal::D});

  // Profiles as FT-S chose them for the real system (n = 3, n' = 2), and
  // the EDF-VD virtual-deadline factor from the converted set.
  const auto converted = core::convert_to_mc(tasks, 3, 1, 2);
  const auto vd = mcs::analyze_edf_vd(converted);
  std::cout << "EDF-VD virtual-deadline factor x = " << vd.x << "\n";

  sim::SimConfig cfg;
  cfg.policy = sim::PolicyKind::kEdfVd;
  cfg.adaptation = mcs::AdaptationKind::kKilling;
  cfg.horizon = 60 * sim::kTicksPerSecond;  // one simulated minute
  cfg.seed = seed;
  cfg.trace_capacity = 200'000;

  sim::Simulator simulator(sim::build_sim_tasks(tasks, 3, 1, 2, vd.x), cfg);
  const sim::SimStats stats = simulator.run();

  // Print the trace around the first mode switch (if any).
  const auto& trace = simulator.trace();
  std::size_t switch_pos = trace.size();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].kind == sim::TraceKind::kModeSwitch) {
      switch_pos = i;
      break;
    }
  }
  if (switch_pos < trace.size()) {
    std::cout << "\ntrace excerpt around the first mode switch (t = "
              << stats.first_mode_switch << " ticks):\n";
    const std::size_t begin = switch_pos >= 6 ? switch_pos - 6 : 0;
    const std::size_t end = std::min(switch_pos + 7, trace.size());
    for (std::size_t i = begin; i < end; ++i) {
      std::cout << "  " << trace[i];
      if (trace[i].kind != sim::TraceKind::kModeSwitch &&
          trace[i].kind != sim::TraceKind::kModeReset) {
        std::cout << " (" << simulator.tasks()[trace[i].task].name << ")";
      }
      std::cout << "\n";
    }
  } else {
    std::cout << "\nno mode switch occurred in this run (try another "
                 "seed)\n";
  }

  // Timeline around the switch (or the first 100 ms if none happened).
  {
    sim::GanttOptions gantt;
    const sim::Tick center = stats.first_mode_switch != sim::kNever
                                 ? stats.first_mode_switch
                                 : 50'000;
    gantt.from = center > 50'000 ? center - 50'000 : 0;
    gantt.to = gantt.from + 100'000;  // a 100 ms window
    gantt.width = 64;
    std::vector<std::string> names;
    for (const auto& t : simulator.tasks()) names.push_back(t.name);
    std::cout << "\ntimeline ('#' executing, 'X' killed, '!' switch, 'H' "
                 "HI mode):\n"
              << sim::render_gantt(simulator.trace(), names, gantt);
  }

  std::cout << "\none simulated minute, seed " << seed << ":\n";
  io::Table table({"task", "chi", "released", "completed", "attempts",
                   "faults", "killed", "misses"});
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto& t = stats.per_task[i];
    table.add_row({tasks[i].name,
                   std::string(to_string(tasks.crit_of(i))),
                   std::to_string(t.released), std::to_string(t.completed),
                   std::to_string(t.attempts), std::to_string(t.faults),
                   std::to_string(t.killed),
                   std::to_string(t.deadline_misses)});
  }
  std::cout << table;
  std::cout << "\nmode switches: " << stats.mode_switches
            << ", preemptions: " << stats.preemptions
            << ", processor utilization: "
            << io::Table::num(stats.utilization_observed(), 3) << "\n";
  std::cout << "HI tasks missed deadlines: "
            << (stats.per_task[0].deadline_misses +
                        stats.per_task[1].deadline_misses ==
                    0
                    ? "none (as EDF-VD guarantees)"
                    : "SOME - unexpected!")
            << "\n";

  if (!trace_out.empty()) {
    // Process 1: the simulated schedule. Process 2: wall-clock worker
    // lanes of a threaded Monte-Carlo campaign over the same system.
    std::vector<std::string> events;
    std::vector<std::string> names;
    for (const auto& t : simulator.tasks()) names.push_back(t.name);
    sim::append_trace_chrome_events(events, simulator.trace(), names, 1);

    obs::SpanRecorder recorder;
    sim::MonteCarloOptions mc_opt;
    mc_opt.missions = 64;
    mc_opt.mission_length = sim::kTicksPerSecond;
    mc_opt.seed = seed;
    mc_opt.threads = 4;
    mc_opt.spans = &recorder;
    sim::SimConfig mc_cfg = cfg;
    mc_cfg.trace_capacity = 0;
    const auto mc = sim::monte_carlo_campaign(
        sim::build_sim_tasks(tasks, 3, 1, 2, vd.x), mc_cfg, mc_opt);
    recorder.append_chrome_events(events, 2, "monte carlo campaign");

    std::ofstream out(trace_out);
    if (!out) {
      std::cerr << "cannot write " << trace_out << "\n";
      return 1;
    }
    obs::chrome::write_trace(out, events);
    std::cout << "\nChrome trace written to " << trace_out << " ("
              << recorder.total_events() << " campaign spans over "
              << recorder.lane_count() << " lanes, trigger rate "
              << io::Table::num(mc.trigger.rate(), 3)
              << ") — open in Perfetto or chrome://tracing.\n";
  }
  return 0;
}
