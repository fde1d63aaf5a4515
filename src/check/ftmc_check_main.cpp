/// \file ftmc_check_main.cpp
/// \brief The `ftmc_check` CLI: differential fuzzing of the paper's
///        schedulability and PFH claims (see docs/testing.md).
///
/// Exit codes: 0 = all checks passed, 4 = property failures found,
/// 2 = usage / input error, 1 = runtime failure.
#include <algorithm>
#include <climits>
#include <ctime>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ftmc/check/harness.hpp"
#include "ftmc/common/cli.hpp"
#include "ftmc/exec/parallel.hpp"
#include "ftmc/io/parse_error.hpp"
#include "ftmc/obs/progress.hpp"
#include "ftmc/obs/registry.hpp"

namespace {

using namespace ftmc;

/// A fixed-size run is one parallel wave that keeps a partial result per
/// 16 cases; 1e8 cases (hours of work) bounds that storage to a few
/// hundred MB.
constexpr long long kMaxCases = 100'000'000;

struct CliOptions {
  CliOptions() { harness.threads = 0; }  // CLI: all hardware threads

  check::HarnessOptions harness;
  std::optional<std::uint64_t> cases;  ///< default: 1e4, or 1e7 with a budget
  std::string repro_dir = "check/repros";
  std::string replay_path;
  bool list = false;
  bool progress = false;
  bool stats = false;
};

[[nodiscard]] std::uint64_t utc_date_seed() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  return static_cast<std::uint64_t>((utc.tm_year + 1900) * 10000 +
                                    (utc.tm_mon + 1) * 100 + utc.tm_mday);
}

[[nodiscard]] cli::Command flags(CliOptions& opt) {
  std::vector<std::string> families;
  std::vector<std::string> names;
  for (const check::Property& p : check::all_properties()) {
    names.emplace_back(p.name);
    if (std::find(families.begin(), families.end(), p.family) ==
        families.end()) {
      families.emplace_back(p.family);
    }
  }
  return {
      .program = "ftmc_check",
      .about = "Differential fuzzing of the schedulability analyses and PFH "
               "bounds:\nrandom task sets are drawn and every registered "
               "property is checked;\nfailures are delta-debugged to "
               "minimal repros.",
      .flags = {
          cli::integer("--cases", opt.cases, 1, kMaxCases,
                       "number of cases to run (default 10000, at most\n"
                       "100000000; longer runs use --budget-sec)"),
          cli::real("--budget-sec", opt.harness.budget_sec,
                    std::numeric_limits<double>::denorm_min(),
                    std::numeric_limits<double>::max(),
                    "run until X seconds of wall clock are spent (cases\n"
                    "then caps the run; default cap 10000000)"),
          cli::Flag{
              .name = "--seed",
              .meta = "N",
              .help = "base seed; every case replays from (seed, index);\n"
                      "from-date: the UTC date as YYYYMMDD (a fresh\n"
                      "corpus daily)",
              .set = [&opt](std::string_view label, std::string_view text) {
                if (text == "from-date") {
                  opt.harness.seed = utc_date_seed();
                  return std::string();
                }
                const Expected<std::uint64_t> n = parse_uint64(label, text);
                if (n) opt.harness.seed = *n;
                return n ? std::string() : n.error() + " (or from-date)";
              }},
          cli::text("--family", opt.harness.families, "F",
                     "only properties of this family (repeatable)")
              .one_of(std::move(families)),
          cli::text("--property", opt.harness.properties, "P",
                     "only this property (repeatable; see --list)")
              .one_of(std::move(names)),
          cli::integer("--threads", opt.harness.threads, INT_MIN, INT_MAX,
                       "worker threads (0 = all hardware threads; default 0)"),
          cli::text("--repro-dir", opt.repro_dir, "DIR",
                    "where shrunk repros are written (default check/repros)"),
          cli::integer("--max-failures", opt.harness.max_recorded_failures, 0,
                       LLONG_MAX,
                       "record and shrink at most N failures (default 16)"),
          cli::text("--replay", opt.replay_path, "FILE",
                    "re-run the property stored in a repro file and exit"),
          cli::Flag{.name = "--inject-bug",
                    .meta = "B",
                    .help = "corrupt an analysis on purpose (self-test)",
                    .choices = {"drop-reexec-term"},
                    .set = [&opt](std::string_view, std::string_view) {
                      opt.harness.bugs.drop_reexec_term = true;
                      return std::string();
                    }},
          cli::toggle("--list", opt.list,
                      "list registered properties and exit"),
          cli::toggle("--progress", opt.progress,
                      "live progress meter on stderr"),
          cli::toggle("--stats", opt.stats,
                      "print run counters and metrics on completion"),
      }};
}

int cmd_list() {
  std::string_view family;
  for (const check::Property& p : check::all_properties()) {
    if (p.family != family) {
      family = p.family;
      std::cout << family << ":\n";
    }
    std::cout << "  " << p.name << "\n      " << p.doc << "\n";
  }
  return 0;
}

int cmd_replay(const CliOptions& opt) {
  std::ifstream in(opt.replay_path);
  if (!in.good()) {
    std::cerr << "ftmc_check: cannot read \"" << opt.replay_path << "\"\n";
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const check::Repro repro = check::parse_repro(text.str());

  check::PropertyContext ctx;
  ctx.bugs = opt.harness.bugs;
  const check::Outcome outcome = check::replay_repro(repro, ctx);
  std::cout << "replay " << opt.replay_path << "\n"
            << "property: " << repro.property << " (" << repro.family
            << ")\n"
            << "case: seed=" << repro.c.seed << " index=" << repro.c.index
            << " n_hi=" << repro.c.n_hi << " n_lo=" << repro.c.n_lo
            << " n'=" << repro.c.n_adapt << " tasks=" << repro.c.ts.size()
            << "\n";
  switch (outcome.verdict) {
    case check::Verdict::kPass:
      std::cout << "verdict: PASS\n";
      return 0;
    case check::Verdict::kSkip:
      std::cout << "verdict: SKIP"
                << (outcome.message.empty() ? ""
                                            : " (" + outcome.message + ")")
                << "\n";
      return 0;
    case check::Verdict::kFail:
      std::cout << "verdict: FAIL\n" << outcome.message << "\n";
      return 4;
  }
  return 1;
}

int cmd_run(const CliOptions& opt) {
  check::HarnessOptions harness = opt.harness;
  // Budget mode without an explicit case count: the budget decides.
  harness.cases =
      opt.cases.value_or(harness.budget_sec > 0.0 ? 10'000'000 : 10'000);
  if (opt.stats) obs::Registry::global().enable();
  if (opt.progress) harness.progress = obs::stderr_progress("check");

  check::HarnessResult result = check::run_harness(harness);

  const std::uint64_t checks =
      result.checks_pass + result.checks_fail + result.checks_skip;
  std::cout << "ftmc_check: seed=" << harness.seed
            << (harness.bugs.any() ? " [BUG INJECTED: drop-reexec-term]" : "")
            << "\n"
            << result.cases_run << " cases x " << result.selected.size()
            << " properties = " << checks << " checks in "
            << result.wall_seconds << " s ("
            << (result.wall_seconds > 0.0
                    ? static_cast<double>(result.cases_run) /
                          result.wall_seconds
                    : 0.0)
            << " cases/s)\n"
            << "pass: " << result.checks_pass
            << "  fail: " << result.checks_fail
            << "  skip: " << result.checks_skip
            << (result.budget_exhausted ? "  (budget exhausted)" : "")
            << "\n";

  if (!result.failures.empty()) {
    check::write_repro_files(result.failures, opt.repro_dir);
    std::cout << "\n" << result.failures.size() << " failure(s) shrunk to "
              << "minimal repros (replay with --replay FILE):\n";
    for (const check::FailureRecord& f : result.failures) {
      std::cout << "  " << f.property << " @ case " << f.original.index
                << ": " << f.original.ts.size() << " -> "
                << f.minimal.ts.size() << " tasks, "
                << f.shrink_evaluations << " shrink evals\n    "
                << f.repro_path << "\n    " << f.message << "\n";
    }
  } else if (result.checks_fail > 0) {
    std::cout << "failures occurred but max-failures is 0; rerun with "
                 "--max-failures N to record repros\n";
  }

  if (opt.stats) {
    std::cerr << exec::phase_summary(obs::Registry::global())
              << obs::Registry::global().snapshot_json() << "\n";
  }
  return result.ok() ? 0 : 4;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  if (const auto code = cli::parse(flags(opt), argc, argv)) return *code;
  if (opt.list) return cmd_list();
  try {
    if (!opt.replay_path.empty()) return cmd_replay(opt);
    return cmd_run(opt);
  } catch (const io::ParseError& e) {
    std::cerr << "ftmc_check: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "ftmc_check: " << e.what() << "\n";
    return 1;
  }
}
