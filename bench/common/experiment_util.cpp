#include "experiment_util.hpp"

#include <climits>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "ftmc/common/parse.hpp"
#include "ftmc/io/json.hpp"
#include "ftmc/io/table.hpp"
#include "ftmc/obs/registry.hpp"

namespace ftmc::bench {

BenchReport::BenchReport(std::string name, int argc, char** argv)
    : name_(std::move(name)), t0_(std::chrono::steady_clock::now()) {
  for (int i = 0; i < argc; ++i) argv_.emplace_back(argv[i]);
  // Benches always collect library metrics; the snapshot rides along in
  // the report (library hot paths stay near-free — see registry.hpp).
  obs::Registry::global().enable();
}

void BenchReport::set_items(double items, std::string unit) {
  items_ = items;
  items_unit_ = std::move(unit);
}

void BenchReport::set_items_measured(double items, double measured_seconds,
                                     std::string unit) {
  items_ = items;
  measured_seconds_ = measured_seconds;
  items_unit_ = std::move(unit);
}

void BenchReport::note_number(std::string_view key, double value) {
  notes_.emplace_back(std::string(key), io::json::number(value));
}

void BenchReport::note_string(std::string_view key,
                              std::string_view value) {
  notes_.emplace_back(std::string(key),
                      "\"" + io::json::escape(value) + "\"");
}

double BenchReport::wall_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0_)
      .count();
}

std::string BenchReport::path() const {
  std::string dir = ".";
  if (const char* env = std::getenv("FTMC_BENCH_DIR")) {
    if (*env != '\0') dir = env;
  }
  return dir + "/BENCH_" + name_ + ".json";
}

void BenchReport::write() {
  if (written_) return;
  written_ = true;

  const double wall = wall_seconds();
  io::json::Object doc;
  doc.add_string("name", name_);
  {
    std::vector<std::string> args;
    args.reserve(argv_.size());
    for (const std::string& a : argv_) {
      args.push_back("\"" + io::json::escape(a) + "\"");
    }
    doc.add_raw("argv", io::json::array(args));
  }
  doc.add_int("hardware_threads",
              static_cast<long long>(std::thread::hardware_concurrency()));
  doc.add_number("wall_seconds", wall);
  if (items_ >= 0.0) {
    doc.add_number("items", items_);
    doc.add_string("items_unit", items_unit_);
    const double rate_window = measured_seconds_ > 0.0 ? measured_seconds_
                                                       : wall;
    if (measured_seconds_ > 0.0) {
      doc.add_number("measured_seconds", measured_seconds_);
    }
    doc.add_number("items_per_sec",
                   rate_window > 0.0 ? items_ / rate_window : 0.0);
  }
  if (!notes_.empty()) {
    io::json::Object notes;
    for (const auto& [key, raw] : notes_) notes.add_raw(key, raw);
    doc.add_raw("notes", notes.str());
  }
  doc.add_raw("metrics", obs::Registry::global().snapshot_json());

  const std::string out_path = path();
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "BenchReport: cannot write " << out_path << "\n";
    return;
  }
  out << doc.str() << "\n";
  std::cerr << "telemetry: " << out_path << "\n";
}

BenchReport::~BenchReport() {
  try {
    write();
  } catch (...) {
    // A telemetry failure must never take down the bench's exit path.
  }
}

bool progress_requested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--progress") return true;
  }
  return false;
}

campaign::CampaignSpec fig3_campaign_spec(const Fig3Config& config,
                                          std::string name) {
  campaign::CampaignSpec spec;
  spec.name = std::move(name);
  spec.title = config.title.empty() ? spec.name : config.title;
  spec.schedulers = {config.kind == mcs::AdaptationKind::kKilling
                         ? campaign::Scheduler::kEdfVdKilling
                         : campaign::Scheduler::kEdfVdDegradation};
  spec.mapping = config.mapping;
  spec.degradation_factor = config.degradation_factor;
  spec.os_hours = config.os_hours;
  spec.failure_probs = config.failure_probs;
  spec.utilizations = config.utilizations;
  spec.sets_per_point = config.sets_per_point;
  spec.seed = config.seed;
  return spec;
}

std::vector<Fig3Point> fig3_points_from(
    const campaign::CampaignResult& result) {
  std::vector<Fig3Point> points;
  points.reserve(result.cells.size());
  for (const campaign::CellOutcome& outcome : result.cells) {
    if (!outcome.completed) continue;
    Fig3Point p;
    p.failure_prob = outcome.cell.failure_prob;
    p.utilization = outcome.cell.utilization;
    p.ratio_without = outcome.ratio_without();
    p.ratio_with = outcome.ratio_with();
    points.push_back(p);
  }
  return points;
}

std::vector<Fig3Point> run_fig3(const Fig3Config& config) {
  campaign::RunnerOptions options;
  options.threads = config.threads;
  options.stats = config.stats;
  options.progress = config.progress;
  return fig3_points_from(
      campaign::run_campaign(fig3_campaign_spec(config), options));
}

void print_fig3(const Fig3Config& config,
                const std::vector<Fig3Point>& points) {
  std::cout << "=== " << config.title << " ===\n";
  std::cout << "mapping HI=" << to_string(config.mapping.hi)
            << " LO=" << to_string(config.mapping.lo)
            << ", mechanism="
            << (config.kind == mcs::AdaptationKind::kKilling
                    ? "task killing"
                    : "service degradation")
            << ", O_S=" << config.os_hours << "h, "
            << config.sets_per_point << " task sets per point\n\n";

  for (const double f : config.failure_probs) {
    io::Table table({"U", "accept(no adaptation)", "accept(FT-EDF-VD)",
                     "gap"});
    for (const Fig3Point& p : points) {
      if (p.failure_prob != f) continue;
      table.add_row({io::Table::num(p.utilization, 3),
                     io::Table::num(p.ratio_without, 3),
                     io::Table::num(p.ratio_with, 3),
                     io::Table::num(p.ratio_with - p.ratio_without, 3)});
    }
    std::cout << "f = " << io::Table::sci(f, 0) << "\n" << table << "\n";
  }

  std::cout << "CSV: f,U,accept_without,accept_with\n";
  for (const Fig3Point& p : points) {
    std::cout << p.failure_prob << "," << p.utilization << ","
              << p.ratio_without << "," << p.ratio_with << "\n";
  }
  std::cout << std::endl;
}

void print_fig3(const campaign::CampaignSpec& spec,
                const std::vector<Fig3Point>& points) {
  Fig3Config config;
  config.title = spec.title;
  config.kind = campaign::adaptation_of(spec.schedulers.front());
  config.mapping = spec.mapping;
  config.degradation_factor = spec.degradation_factor;
  config.failure_probs = spec.failure_probs;
  config.utilizations = spec.utilizations;
  config.sets_per_point = spec.sets_per_point;
  config.os_hours = spec.os_hours;
  config.seed = spec.seed;
  print_fig3(config, points);
}

Expected<BenchOverrides> parse_bench_overrides(int argc, char** argv,
                                               bool allow_campaign_flags) {
  using Fail = Expected<BenchOverrides>;
  BenchOverrides overrides;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--progress") {
      overrides.progress = true;
      continue;
    }
    const bool known =
        flag == "--sets" || flag == "--seed" || flag == "--threads" ||
        (allow_campaign_flags && (flag == "--spec" || flag == "--out"));
    if (!known) {
      return Fail::failure(
          "unknown argument \"" + flag + "\" (expected --sets N, --seed S, "
          "--threads T, --progress" +
          (allow_campaign_flags ? ", --spec FILE, --out DIR)" : ")"));
    }
    if (i + 1 >= argc) {
      return Fail::failure("flag " + flag + " expects a value");
    }
    const std::string value = argv[++i];
    if (flag == "--sets") {
      const auto n = parse_int("--sets", value, 1, INT_MAX);
      if (!n) return Fail::failure(n.error());
      overrides.sets = static_cast<int>(*n);
    } else if (flag == "--seed") {
      const auto s = parse_uint64("--seed", value);
      if (!s) return Fail::failure(s.error());
      overrides.seed = *s;
    } else if (flag == "--threads") {
      const auto n = parse_int("--threads", value, INT_MIN, INT_MAX);
      if (!n) return Fail::failure(n.error());
      overrides.threads = static_cast<int>(*n);
    } else if (flag == "--spec") {
      overrides.spec = value;
    } else {  // --out
      overrides.out = value;
    }
  }
  // Environment overrides used by CI smoke runs (win over the CLI).
  if (const char* env = std::getenv("FTMC_BENCH_SETS")) {
    const auto n = parse_int("FTMC_BENCH_SETS", env, 1, INT_MAX);
    if (!n) return Fail::failure(n.error());
    overrides.sets = static_cast<int>(*n);
  }
  if (const char* env = std::getenv("FTMC_BENCH_THREADS")) {
    const auto n = parse_int("FTMC_BENCH_THREADS", env, INT_MIN, INT_MAX);
    if (!n) return Fail::failure(n.error());
    overrides.threads = static_cast<int>(*n);
  }
  return overrides;
}

Expected<Fig3Config> apply_cli_overrides(Fig3Config config, int argc,
                                         char** argv) {
  const auto parsed = parse_bench_overrides(argc, argv);
  if (!parsed) return Expected<Fig3Config>::failure(parsed.error());
  if (parsed->sets) config.sets_per_point = *parsed->sets;
  if (parsed->seed) config.seed = *parsed->seed;
  if (parsed->threads) config.threads = *parsed->threads;
  if (parsed->progress && !config.progress) {
    config.progress = obs::stderr_progress("fig3");
  }
  return config;
}

int fig3_campaign_main(const char* bench_name,
                       const char* default_spec_path, int argc,
                       char** argv) {
  BenchReport report(bench_name, argc, argv);
  const auto parsed =
      parse_bench_overrides(argc, argv, /*allow_campaign_flags=*/true);
  if (!parsed) {
    std::cerr << bench_name << ": " << parsed.error() << "\n";
    return 2;
  }
  try {
    campaign::CampaignSpec spec = campaign::load_spec_file(
        parsed->spec ? *parsed->spec : default_spec_path);
    if (parsed->sets) spec.sets_per_point = *parsed->sets;
    if (parsed->seed) spec.seed = *parsed->seed;

    campaign::RunnerOptions options;
    options.threads = parsed->threads.value_or(0);  // benches: all threads
    if (parsed->out) options.dir = *parsed->out;
    if (parsed->progress) options.progress = obs::stderr_progress("fig3");

    const campaign::CampaignResult result =
        campaign::run_campaign(spec, options);
    const std::vector<Fig3Point> points = fig3_points_from(result);
    print_fig3(spec, points);

    report.set_items(
        static_cast<double>(points.size()) * spec.sets_per_point,
        "task sets");
    report.note_number("campaign_cells_run",
                       static_cast<double>(result.cells_run));
    report.note_number("campaign_cache_hits",
                       static_cast<double>(result.cache_hits));
    return 0;
  } catch (const io::ParseError& e) {
    std::cerr << bench_name << ": " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << bench_name << ": " << e.what() << "\n";
    return 1;
  }
}

}  // namespace ftmc::bench
