#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "ftmc/obs/registry.hpp"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

[[nodiscard]] std::uint64_t parse_uint(const std::string& flag,
                                       const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 19) {
    throw std::invalid_argument(flag + " expects a non-negative integer, got \"" +
                                text + "\"");
  }
  return std::stoull(text);
}

}  // namespace

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_uint(flag, value);
      if (s < 1 || s > 3600) {
        throw std::invalid_argument("--seconds must be in [1, 3600]");
      }
      args.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace expects 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return args;
}

std::uint64_t cpu_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::size_t Tracer::open(const char* name) {
  SpanRecord s;
  s.name = name;
  s.op = op_;
  s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  spans_.push_back(s);
  stack_.push_back(spans_.size() - 1);
  spans_.back().begin_ns = now_ns();
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

Tracer::Totals Tracer::totals(const char* name) const {
  Totals t;
  const std::string key = name;
  for (const SpanRecord& s : spans_) {
    if (key != s.name) continue;
    t.us += static_cast<double>(s.end_ns - s.begin_ns) / 1000.0;
    ++t.calls;
  }
  return t;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "name,op,parent,begin_ns,end_ns\n";
  for (const SpanRecord& s : spans_) {
    out << s.name << ',' << s.op << ',' << s.parent << ',' << s.begin_ns << ','
        << s.end_ns << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

namespace {

/// Set-up repetitions per run; setup_s is their median. The first runs
/// before the first round; the others run between the untraced rounds,
/// spread over the phase, so that they sample the machine's speed across
/// the run as the rounds do (set-ups run back to back moved with its
/// sub-second swings).
constexpr std::size_t kSetupRepeats = 7;

double timed_setup(Workload& w) {
  const std::uint64_t t0 = cpu_now_ns();
  w.setup();
  return cpu_seconds_since(t0);
}

struct Phase {
  double busy_s = 0.0;  ///< summed round durations (thread CPU time)
  double wall_s = 0.0;  ///< the same rounds on the wall clock
  std::size_t ops = 0;
  std::size_t rounds = 0;
  std::vector<double> latency_ms;
  [[nodiscard]] double ops_per_s() const {
    return busy_s > 0.0 ? static_cast<double>(ops) / busy_s : 0.0;
  }
};

/// Whole rounds of the workload's operations until `budget_s` of round
/// time has elapsed (at least one round). With `setup_s`, repeats the
/// set-up between rounds until it holds kSetupRepeats times.
Phase run_phase(Workload& w, double budget_s, std::size_t& next_round,
                std::uint64_t& next_op, Tracer* tracer,
                std::vector<double>* setup_s) {
  Phase p;
  const std::size_t n = w.round_size();
  p.latency_ms.reserve(n * 8);
  do {
    const std::size_t round = next_round++;
    w.begin_round(round);
    const std::uint64_t r0 = cpu_now_ns();
    const auto w0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      if (tracer) tracer->begin_op(next_op);
      ++next_op;
      const std::uint64_t t0 = cpu_now_ns();
      w.run_op(i, round, tracer);
      p.latency_ms.push_back(cpu_seconds_since(t0) * 1000.0);
    }
    p.busy_s += cpu_seconds_since(r0);
    p.wall_s += std::chrono::duration<double>(std::chrono::steady_clock::now() - w0).count();
    p.ops += n;
    ++p.rounds;
    while (setup_s != nullptr && setup_s->size() < kSetupRepeats &&
           (p.busy_s >= budget_s ||
            p.busy_s * kSetupRepeats >= budget_s * static_cast<double>(setup_s->size()))) {
      setup_s->push_back(timed_setup(w));
    }
  } while (p.busy_s < budget_s);
  return p;
}

void append_metric(std::ostringstream& os, bool& first, const Metric& m) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", m.value);
  os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << buf
     << ", \"unit\": \"" << m.unit << "\"}";
  first = false;
}

}  // namespace

int drive(const Args& args, const WorkloadFactory& make) {
  // Program-internal counters stay off except in the traced phase, whatever
  // the environment says: the untraced path is the one users run.
  ftmc::obs::Registry::global().enable(false);

  const std::unique_ptr<Workload> w = make(args.seed);
  w->prepare();
  std::vector<double> setup_s{timed_setup(*w)};

  std::size_t next_round = 0;
  std::uint64_t next_op = 0;
  const Phase plain =
      run_phase(*w, args.seconds, next_round, next_op, nullptr, &setup_s);
  std::size_t rounds = plain.rounds;

  std::vector<Metric> metrics;
  std::unique_ptr<Tracer> tracer;
  if (args.trace) {
    tracer = std::make_unique<Tracer>();
    ftmc::obs::Registry::global().enable(true);
    const Phase traced =
        run_phase(*w, args.seconds, next_round, next_op, tracer.get(), nullptr);
    ftmc::obs::Registry::global().enable(false);
    rounds += traced.rounds;
    metrics = w->layer_metrics(*tracer);
    metrics.push_back({"obs.trace_overhead",
                       traced.ops_per_s() / plain.ops_per_s(), "ratio"});
  }
  const double rss_mb = peak_rss_mb();
  if (!args.trace) {
    metrics = {{"ops_per_s", plain.ops_per_s(), "1/s"},
               {"p50_ms", quantile(plain.latency_ms, 0.5), "ms"},
               {"p90_ms", quantile(plain.latency_ms, 0.9), "ms"},
               {"setup_s", quantile(setup_s, 0.5), "s"},
               {"peak_rss_mb", rss_mb, "MB"}};
  }

  const Verdict verdict = w->check();
  for (const std::string& p : verdict.problems) {
    std::cerr << "oracle: " << p << "\n";
  }
  // Every round repeats the same operations and must answer them as the
  // first did (each workload checks), so attempted and failed count the
  // operations of one round: the same numbers in every run, whatever its
  // length.
  std::ostringstream line;
  line << "{\"correct\": " << (verdict.correct ? "true" : "false")
       << ", \"attempted\": " << w->round_size()
       << ", \"failed\": " << verdict.failed_per_round
       << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) append_metric(line, first, m);
  line << "}}";

  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) +
                           (args.trace ? "-traced" : "");
  std::ofstream(stem + ".result.json") << line.str() << "\n";
  if (tracer) tracer->write(stem + ".spans.csv");

  std::cerr << args.workload << ": set-ups took";
  for (const double t : setup_s) std::cerr << " " << t;
  std::cerr << " s of CPU time\n";
  std::cerr << args.workload << ": " << rounds << " round(s) of "
            << w->round_size() << " op(s); untraced rounds took "
            << plain.busy_s << " s of CPU time in " << plain.wall_s
            << " s of wall time\n";
  std::cout << line.str() << std::endl;
  return 0;
}

}  // namespace perfbench
