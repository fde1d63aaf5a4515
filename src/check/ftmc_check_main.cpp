/// \file ftmc_check_main.cpp
/// \brief The `ftmc_check` CLI: differential fuzzing of the paper's
///        schedulability and PFH claims (see docs/testing.md).
///
/// Exit codes: 0 = all checks passed, 4 = property failures found,
/// 2 = usage / input error, 1 = runtime failure.
#include <climits>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "ftmc/check/harness.hpp"
#include "ftmc/common/expected.hpp"
#include "ftmc/common/parse.hpp"
#include "ftmc/exec/stats.hpp"
#include "ftmc/io/parse_error.hpp"
#include "ftmc/obs/progress.hpp"
#include "ftmc/obs/registry.hpp"

namespace {

using namespace ftmc;

constexpr const char* kUsage = R"(usage: ftmc_check [options]

Differential fuzzing of the schedulability analyses and PFH bounds:
random task sets are drawn and every registered property is checked;
failures are delta-debugged to minimal repros.

options:
  --cases N        number of cases to run (default 10000, at most
                   100000000; longer runs use --budget-sec)
  --budget-sec S   run until S seconds of wall clock are spent (cases
                   then caps the run; default cap 10000000)
  --seed N         base seed; every case replays from (seed, index)
  --seed from-date seed = UTC date as YYYYMMDD (fresh corpus daily)
  --family F       only properties of this family (repeatable):
                   analysis-vs-sim | sufficient-vs-exact | pfh-metamorphic
  --property P     only this property (repeatable; see --list)
  --threads N      worker threads (0 = all hardware threads; default 0)
  --repro-dir DIR  where shrunk repros are written (default check/repros)
  --max-failures N record and shrink at most N failures (default 16)
  --replay FILE    re-run the property stored in a repro file and exit
  --inject-bug B   corrupt an analysis on purpose (self-test):
                   drop-reexec-term
  --list           list registered properties and exit
  --progress       live progress meter on stderr
  --stats          print run counters and metrics on completion
)";

/// A fixed-size run is one parallel wave that keeps a partial result per
/// 16 cases; 1e8 cases (hours of work) bounds that storage to a few
/// hundred MB.
constexpr long long kMaxCases = 100'000'000;

struct CliOptions {
  std::uint64_t cases = 10'000;
  bool cases_given = false;
  double budget_sec = 0.0;
  std::uint64_t seed = 1;
  std::vector<std::string> families;
  std::vector<std::string> properties;
  int threads = 0;
  std::string repro_dir = "check/repros";
  std::size_t max_failures = 16;
  std::string replay_path;
  check::InjectedBugs bugs;
  bool list = false;
  bool progress = false;
  bool stats = false;
  bool help = false;
};

[[nodiscard]] std::uint64_t utc_date_seed() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  return static_cast<std::uint64_t>((utc.tm_year + 1900) * 10000 +
                                    (utc.tm_mon + 1) * 100 + utc.tm_mday);
}

[[nodiscard]] Expected<CliOptions> parse_cli(int argc, char** argv) {
  using Fail = Expected<CliOptions>;
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> Expected<std::string> {
      if (i + 1 >= argc) {
        return Expected<std::string>::failure("ftmc_check: " + flag +
                                              " expects a value");
      }
      return std::string(argv[++i]);
    };
    auto int_value = [&](long long min,
                         long long max) -> Expected<long long> {
      auto v = value();
      if (!v) return Expected<long long>::failure(v.error());
      auto n = parse_int(flag, *v, min, max);
      if (!n) return Expected<long long>::failure("ftmc_check: " + n.error());
      return n;
    };
    if (flag == "--help" || flag == "-h") {
      opt.help = true;
    } else if (flag == "--list") {
      opt.list = true;
    } else if (flag == "--progress") {
      opt.progress = true;
    } else if (flag == "--stats") {
      opt.stats = true;
    } else if (flag == "--cases") {
      auto n = int_value(1, kMaxCases);
      if (!n) return Fail::failure(n.error());
      opt.cases = static_cast<std::uint64_t>(*n);
      opt.cases_given = true;
    } else if (flag == "--budget-sec") {
      auto v = value();
      if (!v) return Fail::failure(v.error());
      auto sec = parse_double(flag, *v);
      if (!sec || *sec <= 0.0) {
        return Fail::failure("ftmc_check: --budget-sec expects a positive "
                             "number of seconds, got \"" + *v + "\"");
      }
      opt.budget_sec = *sec;
    } else if (flag == "--seed") {
      auto v = value();
      if (!v) return Fail::failure(v.error());
      if (*v == "from-date") {
        opt.seed = utc_date_seed();
      } else {
        auto n = parse_uint64(flag, *v);
        if (!n) {
          return Fail::failure("ftmc_check: " + n.error() +
                               " (or 'from-date')");
        }
        opt.seed = *n;
      }
    } else if (flag == "--family") {
      auto v = value();
      if (!v) return Fail::failure(v.error());
      opt.families.push_back(*v);
    } else if (flag == "--property") {
      auto v = value();
      if (!v) return Fail::failure(v.error());
      opt.properties.push_back(*v);
    } else if (flag == "--threads") {
      auto n = int_value(INT_MIN, INT_MAX);
      if (!n) return Fail::failure(n.error());
      opt.threads = static_cast<int>(*n);
    } else if (flag == "--repro-dir") {
      auto v = value();
      if (!v) return Fail::failure(v.error());
      opt.repro_dir = *v;
    } else if (flag == "--max-failures") {
      auto n = int_value(0, LLONG_MAX);
      if (!n) return Fail::failure(n.error());
      opt.max_failures = static_cast<std::size_t>(*n);
    } else if (flag == "--replay") {
      auto v = value();
      if (!v) return Fail::failure(v.error());
      opt.replay_path = *v;
    } else if (flag == "--inject-bug") {
      auto v = value();
      if (!v) return Fail::failure(v.error());
      if (*v == "drop-reexec-term") {
        opt.bugs.drop_reexec_term = true;
      } else {
        return Fail::failure("ftmc_check: unknown bug \"" + *v +
                             "\" (known: drop-reexec-term)");
      }
    } else {
      return Fail::failure("ftmc_check: unknown flag \"" + flag + "\"\n" +
                           kUsage);
    }
  }
  // Budget mode without an explicit case count: the budget decides.
  if (opt.budget_sec > 0.0 && !opt.cases_given) opt.cases = 10'000'000;
  return opt;
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
  ctx.bugs = opt.bugs;
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
  check::HarnessOptions harness;
  harness.seed = opt.seed;
  harness.cases = opt.cases;
  harness.budget_sec = opt.budget_sec;
  harness.threads = opt.threads;
  harness.families = opt.families;
  harness.properties = opt.properties;
  harness.bugs = opt.bugs;
  harness.max_recorded_failures = opt.max_failures;
  exec::RunStats stats;
  if (opt.stats) {
    obs::Registry::global().enable();
    harness.registry = &obs::Registry::global();
    harness.stats = &stats;
  }
  if (opt.progress) harness.progress = obs::stderr_progress("check");

  check::HarnessResult result = check::run_harness(harness);

  const std::uint64_t checks =
      result.checks_pass + result.checks_fail + result.checks_skip;
  std::cout << "ftmc_check: seed=" << opt.seed
            << (opt.bugs.any() ? " [BUG INJECTED: drop-reexec-term]" : "")
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
    std::cerr << stats.summary();
    std::cerr << obs::Registry::global().snapshot_json() << "\n";
  }
  return result.ok() ? 0 : 4;
}

}  // namespace

int main(int argc, char** argv) {
  const Expected<CliOptions> parsed = parse_cli(argc, argv);
  if (!parsed) {
    std::cerr << parsed.error() << "\n";
    return 2;
  }
  const CliOptions& opt = *parsed;
  if (opt.help) {
    std::cout << kUsage;
    return 0;
  }
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
