/// \file harness.hpp
/// \brief Workload-independent parts of the benchmark: command line,
///        clocks, quantiles, peak RSS, seed streams, the in-memory span
///        tracer of the traced run, and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// CPU time consumed by the calling thread, in nanoseconds. Every time the
/// benchmark reports is measured on this clock: the timed path is one
/// thread that computes and never blocks, so on an idle machine it reads
/// the same as a wall clock, while on a shared machine it leaves out the
/// time other tenants hold the core.
[[nodiscard]] std::uint64_t cpu_now_ns();

[[nodiscard]] inline double cpu_seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(cpu_now_ns() - t0_ns) * 1e-9;
}

/// SplitMix64: the benchmark's own seed stream, so that the inputs a seed
/// produces never depend on the program's seed derivation.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = "perfbench-out";
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--out-dir D]`.
/// Throws std::invalid_argument with a message on anything else.
[[nodiscard]] Args parse_args(int argc, char** argv);

/// Linear-interpolation quantile (q in [0, 1]) of unsorted samples.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

// ---------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------

/// One span: a timed call into a layer, made by the benchmark's own code.
struct SpanRecord {
  const char* name = nullptr;
  std::uint64_t op = 0;      ///< operation id shared by the op's spans
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 at the root
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
};

/// In-memory span store. Spans nest through an explicit stack; the parent
/// of a span is the innermost span open when it began. Spans are timed on
/// the monotonic wall clock, which costs a fraction of the thread CPU
/// clock's system call: a traced fig3-campaign round opens over a million.
class Tracer {
 public:
  Tracer();
  void begin_op(std::uint64_t op) { op_ = op; }
  [[nodiscard]] std::size_t open(const char* name);
  void close(std::size_t index);
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Total duration and call count of every span named `name`.
  struct Totals {
    double us = 0.0;
    std::uint64_t calls = 0;
    [[nodiscard]] double mean_us() const { return calls ? us / calls : 0.0; }
  };
  [[nodiscard]] Totals totals(const char* name) const;
  /// Writes the spans as CSV: name,op,parent,begin_ns,end_ns (parent is
  /// the row index of the enclosing span, counting from 0; -1 at the root).
  void write(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t op_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span; a null tracer makes it a no-op (the untraced path).
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->open(name) : 0) {}
  ~Span() {
    if (tracer_) tracer_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::size_t index_;
};

// ---------------------------------------------------------------------
// Workload interface and driver
// ---------------------------------------------------------------------

/// A per-layer metric as printed by the traced run.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What the oracles concluded about the operations of one run.
struct Verdict {
  bool correct = true;
  std::uint64_t failed_per_round = 0;  ///< ops whose output is contradicted
  std::vector<std::string> problems;   ///< first few explanations
  void flag(const std::string& problem) {
    correct = false;
    if (problems.size() < 20) problems.push_back(problem);
  }
};

/// One workload. prepare() generates the inputs from the seed (the
/// benchmark's own work, untimed); setup() is the program's work before the
/// first operation, timed, and repeated between rounds: it rebuilds the
/// same state each time and leaves the outputs recorded so far alone.
/// An operation index runs in [0, round_size()); every round repeats the
/// same operations on the same inputs, and round 0 records their outputs
/// (begin_round(0) is the place to reset them).
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void prepare() {}
  virtual void setup() = 0;
  [[nodiscard]] virtual std::size_t round_size() const = 0;
  /// Called before each round (outside the timed operations).
  virtual void begin_round(std::size_t round) { (void)round; }
  /// Runs operation i. With a tracer, records spans around every layer
  /// call and replays composed calls (see README.md).
  virtual void run_op(std::size_t i, std::size_t round, Tracer* tracer) = 0;
  /// Oracles over the outputs recorded so far.
  [[nodiscard]] virtual Verdict check() = 0;
  /// Per-layer metrics from the traced rounds.
  [[nodiscard]] virtual std::vector<Metric> layer_metrics(
      const Tracer& tracer) = 0;
};

using WorkloadFactory = std::function<std::unique_ptr<Workload>(std::uint64_t)>;

/// Runs one workload end to end and prints the result line; returns the
/// process exit code.
int drive(const Args& args, const WorkloadFactory& make);

}  // namespace perfbench
