/// \file ftmc_rtdemo_main.cpp
/// \brief The FMS case study on the ftmc::rt host loop, paced in (scaled)
///        real time on a POSIX machine.
///
/// The demo builds the canonical FMS instance (paper Table 4), runs it on
/// the host loop the discrete-event simulator runs, paces the schedule
/// against CLOCK_MONOTONIC, and can
///  - export the trace in the simulator's CSV / Chrome JSON formats,
///  - dump the core's flight recorder (`--dump-blackbox`, the
///    ftmc-blackbox-v1 post-mortem format — docs/observability.md),
///  - report run telemetry as BENCH_ftmc_rtdemo.json (`--telemetry`), and
///  - verify itself: `--verify` replays the recorded run AND the
///    flight-recorder dump through the simulator host and fails if any
///    event diverges (the trace-replay properties, see docs/runtime.md).
///
/// SIGINT stops the run cleanly (the async-signal-safe request_stop
/// path); everything above still happens for the truncated run, which
/// replays as a prefix of the full schedule — exactly the crashed-target
/// post-mortem workflow the flight recorder exists for.
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/experiment_util.hpp"
#include "ftmc/check/blackbox.hpp"
#include "ftmc/check/replay.hpp"
#include "ftmc/common/parse.hpp"
#include "ftmc/core/conversion.hpp"
#include "ftmc/fms/fms.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/obs/registry.hpp"
#include "ftmc/rt/blackbox_io.hpp"
#include "ftmc/rt/posix_host.hpp"
#include "ftmc/sim/model.hpp"
#include "ftmc/sim/trace.hpp"

namespace {

using ftmc::sim::Tick;

/// Domains of --horizon-ms and --scale: together they keep the paced
/// wall-clock target (scale * horizon, in ns) inside int64.
constexpr std::int64_t kMaxHorizonMs = 1'000'000'000;  // ~11.6 days
constexpr double kMaxScale = 1000.0;

struct Options {
  double scale = 0.001;      // wall seconds per simulated second
  std::int64_t horizon_ms = 10'000;
  std::uint64_t seed = 1;
  std::string adaptation = "degrade";  // kill | degrade
  double degradation_factor = ftmc::fms::kFmsDegradationFactor;
  std::string faults = "bernoulli";  // none | bernoulli | adversary
  double fault_prob = 0.02;  // inflated vs. the FMS 1e-5 so a short demo
                             // actually shows re-execution and the switch
  bool mode_reset = false;
  bool verify = false;
  bool quiet = false;
  bool telemetry = false;
  std::string trace_out;
  std::string chrome_out;
  std::string dump_blackbox;
};

void usage() {
  std::cout <<
      "ftmc_rtdemo — FMS case study on the ftmc::rt core, POSIX host\n"
      "\n"
      "  --scale S        wall seconds per simulated second, 0..1000\n"
      "                   (default 0.001 = 1000x fast-forward; 0 = free-run)\n"
      "  --horizon-ms N   simulated horizon in ms, 1..1e9 (default 10000)\n"
      "  --seed N         RNG seed for the fault model (default 1)\n"
      "  --adaptation A   kill | degrade (default degrade)\n"
      "  --df X           degradation factor d_f >= 1 (default 6, the FMS\n"
      "                   value)\n"
      "  --faults F       none | bernoulli | adversary (default bernoulli)\n"
      "  --fault-prob P   per-attempt fault probability in [0, 1)\n"
      "                   (default 0.02)\n"
      "  --mode-reset     return to LO mode at idle instants\n"
      "  --trace-out F    write the trace as CSV\n"
      "  --chrome-out F   write the trace as Chrome trace JSON\n"
      "  --dump-blackbox F  write the core's flight recorder as a\n"
      "                   ftmc-blackbox-v1 JSON dump\n"
      "  --telemetry      write BENCH_ftmc_rtdemo.json (FTMC_BENCH_DIR)\n"
      "  --verify         replay the run and the flight-recorder dump\n"
      "                   through the simulator host; exit non-zero if\n"
      "                   any event diverges\n"
      "  --quiet          suppress the run summary\n";
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "ftmc_rtdemo: missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    // Every number is parsed whole and checked against its domain; a bad
    // one ends the run with exit code 2 and a message naming the flag.
    const auto checked = [](auto parsed) {
      if (!parsed) {
        std::cerr << "ftmc_rtdemo: " << parsed.error() << "\n";
        std::exit(2);
      }
      return *parsed;
    };
    if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(0);
    } else if (arg == "--scale") {
      opt.scale = checked(ftmc::parse_double(arg, value(), 0.0, kMaxScale));
    } else if (arg == "--horizon-ms") {
      opt.horizon_ms =
          checked(ftmc::parse_int(arg, value(), 1, kMaxHorizonMs));
    } else if (arg == "--seed") {
      opt.seed = checked(ftmc::parse_uint64(arg, value()));
    } else if (arg == "--adaptation") {
      opt.adaptation = value();
    } else if (arg == "--df") {
      opt.degradation_factor =
          checked(ftmc::parse_double(arg, value(), 1.0, 1e6));
    } else if (arg == "--faults") {
      opt.faults = value();
    } else if (arg == "--fault-prob") {
      // A per-attempt probability, and < 1: a certain fault is no model.
      opt.fault_prob = checked(
          ftmc::parse_double(arg, value(), 0.0, std::nextafter(1.0, 0.0)));
    } else if (arg == "--mode-reset") {
      opt.mode_reset = true;
    } else if (arg == "--verify") {
      opt.verify = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--telemetry") {
      opt.telemetry = true;
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else if (arg == "--chrome-out") {
      opt.chrome_out = value();
    } else if (arg == "--dump-blackbox") {
      opt.dump_blackbox = value();
    } else {
      std::cerr << "unknown option " << arg << "\n";
      return false;
    }
  }
  return true;
}

// SIGINT path: the handler may only call the async-signal-safe
// request_stop(); set before the handler is installed.
ftmc::rt::PosixHost* g_host = nullptr;

extern "C" void handle_sigint(int) {
  if (g_host != nullptr) g_host->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage();
    return 2;
  }

  namespace fms = ftmc::fms;
  namespace rt = ftmc::rt;
  namespace sim = ftmc::sim;
  namespace check = ftmc::check;

  // The canonical FMS instance with its minimal safe profiles (n_HI = 3,
  // n_LO = 2, n' = 2; see fms.hpp) and the EDF-VD virtual-deadline factor
  // from the analysis — the same workload the simulation benches run.
  const ftmc::core::FtTaskSet fms_set = fms::canonical_fms_instance();
  const int n_hi = 3, n_lo = 2, n_adapt = 2;
  const ftmc::mcs::McTaskSet mc =
      ftmc::core::convert_to_mc(fms_set, n_hi, n_lo, n_adapt);
  const ftmc::mcs::EdfVdAnalysis vd = ftmc::mcs::analyze_edf_vd(mc);
  const double x = vd.schedulable ? vd.x : 1.0;

  std::vector<rt::Task> tasks =
      sim::build_sim_tasks(fms_set, n_hi, n_lo, n_adapt, x);
  for (rt::Task& t : tasks) t.failure_prob = opt.fault_prob;

  rt::PosixHostConfig cfg;
  cfg.core.policy = rt::Policy::kEdfVd;
  if (opt.adaptation == "kill") {
    cfg.core.adaptation = rt::Adaptation::kKilling;
    cfg.core.degradation_factor = 1.0;
  } else if (opt.adaptation == "degrade") {
    cfg.core.adaptation = rt::Adaptation::kDegradation;
    cfg.core.degradation_factor = opt.degradation_factor;
  } else {
    std::cerr << "unknown adaptation '" << opt.adaptation << "'\n";
    return 2;
  }
  cfg.core.mode_reset_on_idle = opt.mode_reset;
  cfg.horizon = opt.horizon_ms * 1000;  // ms -> ticks (us)
  cfg.time_scale = opt.scale;
  cfg.seed = opt.seed;
  if (opt.faults == "none") {
    cfg.fault_model = rt::FaultModel::kNone;
  } else if (opt.faults == "bernoulli") {
    cfg.fault_model = rt::FaultModel::kBernoulli;
  } else if (opt.faults == "adversary") {
    cfg.fault_model = rt::FaultModel::kExhaustBudget;
  } else {
    std::cerr << "unknown fault model '" << opt.faults << "'\n";
    return 2;
  }
  cfg.trace_capacity = 1 << 22;
  // Generous ring for post-mortems; the dump stays replayable even when
  // a long run wraps it (records carry their own sequence numbers).
  cfg.core.black_box_capacity = 1 << 16;

  // --telemetry: BENCH_ftmc_rtdemo.json via the bench reporting path.
  // The report constructor enables the global registry, so the
  // context-switch metrics below are live exactly when requested.
  std::optional<ftmc::bench::BenchReport> report;
  if (opt.telemetry) report.emplace("ftmc_rtdemo", argc, argv);

  rt::PosixHost host(tasks, cfg);
  g_host = &host;
  std::signal(SIGINT, handle_sigint);
  const rt::PosixResult result = host.run();
  std::signal(SIGINT, SIG_DFL);
  g_host = nullptr;

  // Host::on_context_switch feeds the runtime-layer metrics: how often
  // the processor actually switched jobs, and how late pacing delivered
  // each switch relative to the schedule's ideal instant.
  ftmc::obs::Registry& registry = ftmc::obs::Registry::global();
  registry.counter("rt.context_switches").inc(result.context_switches);
  ftmc::obs::Histogram switch_lateness =
      registry.histogram("rt.switch_lateness_us");
  for (const std::int64_t us : result.switch_lateness_us) {
    switch_lateness.observe(static_cast<double>(us));
  }

  std::vector<std::string> names;
  names.reserve(tasks.size());
  for (const rt::Task& t : tasks) names.push_back(t.name);

  if (!opt.quiet) {
    std::cout << "ftmc_rtdemo: FMS case study on the ftmc::rt core\n"
              << "  policy EDF-VD (x=" << x << "), adaptation "
              << opt.adaptation << ", faults " << opt.faults << " (p="
              << opt.fault_prob << "), seed " << opt.seed << "\n"
              << "  horizon " << opt.horizon_ms << " ms at scale "
              << opt.scale << " -> wall " << result.wall_seconds << " s";
    if (opt.scale > 0.0) {
      std::cout << ", max pacing lateness " << result.max_wall_lateness_us
                << " us";
    }
    std::cout << "\n  events " << result.trace.size() << ", busy "
              << result.stats.busy_time << " us, preemptions "
              << result.stats.preemptions << ", context switches "
              << result.context_switches << ", mode switches "
              << result.stats.mode_switches << " (resets "
              << result.stats.mode_resets << ")\n"
              << "  black box " << result.blackbox.size() << " of "
              << result.blackbox_total << " records kept ("
              << result.blackbox_admissions << " admission verdicts)\n";
    std::uint64_t misses = 0, failures = 0, completed = 0;
    for (const rt::TaskCounters& tc : result.stats.per_task) {
      misses += tc.deadline_misses;
      failures += tc.job_failures;
      completed += tc.completed;
    }
    std::cout << "  jobs completed " << completed << ", deadline misses "
              << misses << ", exhausted budgets " << failures << "\n";
  }

  if (!opt.trace_out.empty()) {
    std::ofstream os(opt.trace_out);
    if (!os) {
      std::cerr << "cannot open " << opt.trace_out << "\n";
      return 1;
    }
    sim::write_trace_csv(os, result.trace, names);
  }
  if (!opt.chrome_out.empty()) {
    std::ofstream os(opt.chrome_out);
    if (!os) {
      std::cerr << "cannot open " << opt.chrome_out << "\n";
      return 1;
    }
    sim::write_trace_chrome_json(os, result.trace, names);
  }
  if (!opt.dump_blackbox.empty()) {
    std::ofstream os(opt.dump_blackbox);
    if (!os) {
      std::cerr << "cannot open " << opt.dump_blackbox << "\n";
      return 1;
    }
    rt::write_blackbox_json(os, tasks, cfg, result);
  }

  if (report) {
    report->set_items(static_cast<double>(result.trace.size()), "events");
    report->note_number("context_switches",
                        static_cast<double>(result.context_switches));
    report->note_number("preemptions",
                        static_cast<double>(result.stats.preemptions));
    report->note_number("mode_switches",
                        static_cast<double>(result.stats.mode_switches));
    report->note_number("blackbox_records",
                        static_cast<double>(result.blackbox.size()));
    report->note_number("blackbox_total",
                        static_cast<double>(result.blackbox_total));
    report->note_number("max_wall_lateness_us",
                        static_cast<double>(result.max_wall_lateness_us));
  }

  if (opt.verify) {
    const check::ReplayDiff diff = check::replay_through_sim(
        tasks, cfg, result.trace, result.stopped);
    if (!diff.identical) {
      std::cerr << "REPLAY DIVERGENCE: " << diff.message << "\n";
      return 1;
    }
    // Round-trip the flight recorder through its serialized form and the
    // simulator — the exact pipeline a post-mortem of this binary uses.
    std::ostringstream dump_text;
    rt::write_blackbox_json(dump_text, tasks, cfg, result);
    const check::BlackBoxDump dump =
        check::parse_blackbox_json(dump_text.str());
    const check::ReplayDiff bb_diff = check::replay_blackbox_through_sim(dump);
    if (!bb_diff.identical) {
      std::cerr << "BLACK-BOX DIVERGENCE: " << bb_diff.message << "\n";
      return 1;
    }
    if (!opt.quiet) {
      std::cout << "  replay: " << diff.posix_events
                << " events bit-identical through the simulator host";
      if (result.stopped) {
        std::cout << " (stopped: a prefix of its " << diff.sim_events << ")";
      }
      std::cout << "\n  replay: " << dump.records.size()
                << " flight-recorder records match the simulator stream\n";
    }
  }
  return 0;
}
