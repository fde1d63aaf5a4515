/// fig3-campaign: one operation is one cell of the paper's four Fig. 3
/// specs (2 failure probabilities x 19 utilizations x 4 specs = 152 cells
/// of 500 task sets), evaluated in memory by campaign::run_cell.
#include <string>

#include "ftmc/campaign/runner.hpp"
#include "ftmc/campaign/spec.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/taskgen/generator.hpp"
#include "layers.hpp"
#include "oracles.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace campaign = ftmc::campaign;

/// The specs of bench/specs/fig3a-d.json at the time the benchmark was
/// defined, kept here so that the workload cannot drift with those files.
/// "@SEED@" is replaced by a seed derived from --seed.
struct SpecTemplate {
  const char* name;
  const char* scheduler;
  const char* lo;
};
constexpr SpecTemplate kSpecs[] = {
    {"fig3a", "edf_vd_killing", "D"},
    {"fig3b", "edf_vd_killing", "C"},
    {"fig3c", "edf_vd_degradation", "D"},
    {"fig3d", "edf_vd_degradation", "C"},
};

[[nodiscard]] std::string spec_text(const SpecTemplate& t, std::uint64_t seed) {
  return std::string("{\"name\": \"") + t.name + "\", \"schedulers\": [\"" +
         t.scheduler + "\"], \"mapping\": {\"hi\": \"B\", \"lo\": \"" + t.lo +
         "\"}, \"degradation_factor\": 6.0, \"os_hours\": 1.0, "
         "\"failure_probs\": [1e-3, 1e-5], \"utilizations\": [0.10, 0.15, "
         "0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, "
         "0.75, 0.80, 0.85, 0.90, 0.95, 1.00], \"sets_per_point\": 500, "
         "\"seed\": " + std::to_string(seed) + "}";
}

/// Task sets per warm-up cell: sized so one set-up (which warms one cell
/// per spec) takes a few hundred milliseconds. The warm-up cells draw their
/// sets from kWarmupSeed rather than the run's seed, so every run's set-up
/// does the same work.
constexpr int kWarmupSets = 400;
constexpr std::uint64_t kWarmupSeed = 20140601;

class Fig3Campaign final : public Workload {
 public:
  explicit Fig3Campaign(std::uint64_t seed) : seed_(seed) {}

  void prepare() override {
    texts_.clear();
    for (std::size_t k = 0; k < std::size(kSpecs); ++k) {
      // Seeds stay below 2^53 so that the JSON number round-trips exactly.
      texts_.push_back(spec_text(kSpecs[k], mix_seed(seed_, k) >> 11));
    }
  }

  /// Parses and expands the specs, then warms up on one cell per spec.
  void setup() override {
    cells_.clear();
    for (const std::string& text : texts_) {
      const campaign::CampaignSpec spec = campaign::parse_spec_text(text);
      spec.validate();
      std::vector<campaign::CellSpec> cells = campaign::expand_cells(spec);
      // Warm-up: the densest cell of the spec, on a few sets.
      campaign::CellSpec warm = cells.back();
      warm.sets_per_point = kWarmupSets;
      warm.seed = mix_seed(kWarmupSeed, cells_.size());
      (void)campaign::run_cell(warm);
      cells_.insert(cells_.end(), cells.begin(), cells.end());
    }
  }

  [[nodiscard]] std::size_t round_size() const override { return cells_.size(); }

  void begin_round(std::size_t round) override {
    if (round == 0) first_.assign(round_size(), {});
  }

  void run_op(std::size_t i, std::size_t round, Tracer* tracer) override {
    const campaign::CellSpec& cell = cells_[i];
    campaign::CellCounts counts;
    if (tracer == nullptr) {
      counts = campaign::run_cell(cell);
    } else {
      counts = traced_cell(cell, *tracer);
    }
    if (round == 0) {
      first_[i] = counts;
    } else if (counts.accept_without != first_[i].accept_without ||
               counts.accept_with != first_[i].accept_with) {
      ++repeat_mismatch_;
    }
  }

  [[nodiscard]] Verdict check() override {
    Verdict v;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      oracle::check_fig3_cell(cells_[i], first_[i],
                              oracle::fig3_expected(cells_[i]), v);
    }
    if (repeat_mismatch_ > 0) {
      v.flag(std::to_string(repeat_mismatch_) +
             " cell(s) answered differently on a repeated round");
    }
    if (counters_.replay_mismatches > 0) {
      v.flag(std::to_string(counters_.replay_mismatches) +
             " traced replay(s) composed a result different from the op's own");
    }
    return v;
  }

  [[nodiscard]] std::vector<Metric> layer_metrics(const Tracer& tracer) override {
    return perfbench::layer_metrics(tracer, counters_);
  }

 private:
  /// The traced operation: the op's own run_cell, then the same public
  /// calls run_cell makes (generate, ft_schedule) replayed in its order with
  /// a span around each, and then, apart so as not to disturb that pass,
  /// FT-S's own profile search and conversions replayed on the same sets.
  campaign::CellCounts traced_cell(const campaign::CellSpec& cell,
                                   Tracer& tracer) {
    ++counters_.ops;
    campaign::CellCounts own;
    {
      Span s(&tracer, span::kRunCell);
      own = campaign::run_cell(cell);
    }
    const ftmc::taskgen::GeneratorParams params = oracle::cell_generator_params(cell);
    ftmc::core::FtsConfig fts;
    fts.adaptation.kind = campaign::adaptation_of(cell.scheduler);
    fts.adaptation.degradation_factor = cell.degradation_factor;
    fts.adaptation.os_hours = cell.os_hours;
    fts.prefer_no_adaptation = true;
    fts.test = campaign::make_fts_test(cell.scheduler);

    campaign::CellCounts composed;
    ftmc::taskgen::Rng rng(cell.seed);
    for (int k = 0; k < cell.sets_per_point; ++k) {
      ftmc::core::FtTaskSet ts;
      {
        Span s(&tracer, span::kGenerate);
        ts = ftmc::taskgen::generate_task_set(params, rng);
      }
      ftmc::core::FtsResult r;
      {
        Span s(&tracer, span::kFts);
        r = ftmc::core::ft_schedule(ts, fts);
      }
      if (r.feasible_without_adaptation) ++composed.accept_without;
      if (r.success) ++composed.accept_with;
    }
    if (composed.accept_without != own.accept_without ||
        composed.accept_with != own.accept_with) {
      ++counters_.replay_mismatches;
    }
    ftmc::taskgen::Rng again(cell.seed);
    for (int k = 0; k < cell.sets_per_point; ++k) {
      const ftmc::core::FtTaskSet ts = ftmc::taskgen::generate_task_set(params, again);
      replay_ft_schedule(ts, fts, fts.test.get(), ftmc::core::ft_schedule(ts, fts),
                         &tracer, counters_);
    }
    return own;
  }

  std::uint64_t seed_;
  std::vector<std::string> texts_;
  std::vector<campaign::CellSpec> cells_;
  std::vector<campaign::CellCounts> first_;
  std::uint64_t repeat_mismatch_ = 0;
  LayerCounters counters_;
};

}  // namespace

std::unique_ptr<Workload> make_fig3_campaign(std::uint64_t seed) {
  return std::make_unique<Fig3Campaign>(seed);
}

}  // namespace perfbench
