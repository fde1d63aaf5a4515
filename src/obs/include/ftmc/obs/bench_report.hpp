/// \file bench_report.hpp
/// \brief The one BENCH_<name>.json writer: the telemetry of a bench
///        binary, of `ftmc_rtdemo --telemetry` and of a fleet
///        coordinator.
///
/// The document holds, in this key order: name, argv, hardware_threads,
/// wall_seconds, then (once set_items* was called) items, items_unit,
/// measured_seconds (set_items_measured only) and items_per_sec, then
/// notes (when any) and metrics, a snapshot of Registry::global(). It is
/// written atomically (ftmc/common/file.hpp) to FTMC_BENCH_DIR, or to the
/// working directory when that variable is unset or empty.
#pragma once

#include <chrono>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ftmc::obs {

/// Telemetry of one run. Construct it once the command line is accepted
/// (a usage error must leave no report); the destructor writes the
/// report unless write() already did.
class BenchReport {
 public:
  /// Starts the clock, records the whole of argv and enables
  /// Registry::global(), so library counters (mcs.*, core.*, campaign.*,
  /// exec.*) are live for the rest of the run.
  BenchReport(std::string name, int argc, const char* const* argv);
  ~BenchReport();
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  /// Headline work volume; reported with items per second of wall time.
  void set_items(double items, std::string unit = "items");
  /// Same, but items_per_sec is items / measured_seconds instead of
  /// items / total wall time. For binaries where the gated workload is
  /// only one section of the process (e.g. the micro benches, whose
  /// google-benchmark phase has a fixed wall time that would dilute the
  /// rate).
  void set_items_measured(double items, double measured_seconds,
                          std::string unit = "items");
  /// Domain-specific values attached under "notes", in call order.
  void note_number(std::string_view key, double value);
  void note_string(std::string_view key, std::string_view value);
  void note_bool(std::string_view key, bool value);

  /// Output path: FTMC_BENCH_DIR (default ".") joined with
  /// BENCH_<name>.json.
  [[nodiscard]] std::string path() const;
  /// Renders and writes the report now (the destructor then skips it).
  /// A write failure is reported on stderr, never thrown.
  void write();

 private:
  std::string name_;
  std::vector<std::string> argv_;
  std::chrono::steady_clock::time_point t0_;
  double items_ = -1.0;
  double measured_seconds_ = -1.0;  ///< < 0: rate uses total wall time
  std::string items_unit_;
  std::vector<std::pair<std::string, std::string>> notes_;  // key, raw json
  bool written_ = false;
};

}  // namespace ftmc::obs
