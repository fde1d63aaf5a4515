/// dbf-sensitivity: FT-S with the MC-DBF technique (virtual-deadline
/// tuner over EDF demand scans) on generated implicit- and
/// constrained-deadline sets, plus the WCET headroom of every admitted set
/// by mcs::max_wcet_scaling under the same test; and a fixed slice of
/// Gamma(3,2,2) conversions of U = 0.5 sets whose LO view sums to U = 1.
#include <algorithm>
#include <iostream>
#include <random>
#include <string>

#include "ftmc/core/conversion.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/mcs/mc_dbf.hpp"
#include "ftmc/mcs/sensitivity.hpp"
#include "ftmc/obs/registry.hpp"
#include "ftmc/taskgen/generator.hpp"
#include "layers.hpp"
#include "oracles.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = ftmc::core;
namespace mcs = ftmc::mcs;

/// Generated part of a round: every (utilization, deadline kind) stratum
/// gets kSetsPerStratum sets drawn from a fixed stream, kSetStream. The
/// seed orders a round's operations instead of drawing the sets: the
/// program's demand test rounds some sets' answers wrong (README.md), so
/// seed-drawn sets would fail on some seeds and not on others. HI = B and
/// LO = D give n_HI = 3 and n_LO = 1, so no conversion's view sums to U = 1
/// by construction, as Gamma(3,2,2) of a U = 0.5 set does.
constexpr double kUtilizations[] = {0.3, 0.4, 0.5, 0.6};
constexpr int kSetsPerStratum = 500;
constexpr std::uint64_t kSetStream = 20200516;
/// Constrained deadlines are drawn uniformly in [kMinDeadline * T, T].
constexpr double kMinDeadline = 0.75;
/// Fixed slice: the first kSliceSets sets drawn from taskgen::Rng(7) at
/// U = 0.5 with the generator's defaults (HI = B, LO = C, f = 1e-5). Their
/// Gamma(3,2,2) LO-mode view sums to U = 1 (up to rounding), the case the
/// EDF demand test decides by a fixed fallback horizon.
constexpr int kSliceSets = 12;
constexpr std::uint64_t kSliceSeed = 7;
constexpr double kScalingCeiling = 8.0;
/// Headroom to 1%: a finer tolerance drives the last bisection probes of a
/// set whose headroom ends where a view reaches U = 1 into demand scans of
/// up to millions of points.
constexpr double kScalingTolerance = 1e-2;
/// Set-up warms up on every kWarmupStride-th generated set.
constexpr std::size_t kWarmupStride = 4;

struct Claim {
  mcs::McTaskSet ts;
  std::vector<double> virtual_deadlines;
};

/// The technique handed to FT-S and to max_wcet_scaling: MC-DBF, wrapped
/// so that every call is counted, optionally traced, and every
/// "schedulable" answer recorded for the oracle with its virtual deadlines.
class RecordingMcDbf final : public mcs::SchedulabilityTest {
 public:
  [[nodiscard]] bool schedulable(const mcs::McTaskSet& ts) const override {
    ++calls;
    Span s(tracer, span::kTest);
    mcs::McDbfAnalysis a;
    {
      Span m(tracer, span::kMcDbf);
      a = mcs::analyze_mc_dbf(ts);
    }
    if (claims != nullptr && a.schedulable) {
      claims->push_back({ts, a.virtual_deadlines});
    }
    return a.schedulable;
  }
  [[nodiscard]] std::string name() const override { return "MC-DBF"; }
  [[nodiscard]] mcs::AdaptationKind adaptation() const override {
    return mcs::AdaptationKind::kKilling;
  }

  mutable std::uint64_t calls = 0;
  Tracer* tracer = nullptr;
  std::vector<Claim>* claims = nullptr;
};

struct Outcome {
  core::FtsResult fts;  ///< generated sets only; `converted` moved out
  bool success = false;
  double max_scaling = 0.0;
  mcs::McTaskSet scaled_base;  ///< the set whose headroom was searched
  std::vector<Claim> claims;
  [[nodiscard]] bool same(const Outcome& o) const {
    return success == o.success && fts.n_adapt == o.fts.n_adapt &&
           max_scaling == o.max_scaling;
  }
};

class DbfSensitivity final : public Workload {
 public:
  explicit DbfSensitivity(std::uint64_t seed)
      : seed_(seed),
        test_(std::make_shared<RecordingMcDbf>()),
        edf_evals_(ftmc::obs::Registry::global().counter("mcs.mc_dbf.edf_evals")) {
    cfg_.test = test_;
    cfg_.use_closed_form_umc = false;  // decide line 8 by MC-DBF itself
    cfg_.adaptation.kind = mcs::AdaptationKind::kKilling;
  }

  /// The fixed slice and the seed's order of a round's operations.
  void prepare() override {
    ftmc::taskgen::GeneratorParams params;
    params.target_utilization = 0.5;
    ftmc::taskgen::Rng rng(kSliceSeed);
    slice_.clear();
    for (int i = 0; i < kSliceSets; ++i) {
      slice_.push_back(ftmc::taskgen::generate_task_set(params, rng));
    }
    order_.resize(kGenerated + slice_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::mt19937_64 shuffle_rng(mix_seed(seed_, 0));
    std::shuffle(order_.begin(), order_.end(), shuffle_rng);
  }

  void setup() override {
    for (std::size_t i = 0; i < kGenerated; i += kWarmupStride) {
      (void)run_generated(i, nullptr, nullptr);
    }
  }

  [[nodiscard]] std::size_t round_size() const override { return order_.size(); }

  void begin_round(std::size_t round) override {
    if (round == 0) first_.assign(round_size(), {});
  }

  void run_op(std::size_t i, std::size_t round, Tracer* tracer) override {
    const std::size_t op = order_[i];
    const std::uint64_t evals_before = edf_evals_.value();
    std::vector<Claim>* claims = round == 0 ? &first_[op].claims : nullptr;
    Outcome out = op < kGenerated ? run_generated(op, tracer, claims)
                                  : run_slice(slice_[op - kGenerated], tracer, claims);
    if (tracer != nullptr) {
      ++counters_.ops;
      counters_.edf_evals += edf_evals_.value() - evals_before;
      if (op < kGenerated) {
        replay_ft_schedule(generated_set(op), cfg_, &plain_test_, out.fts, tracer,
                           counters_);
      }
    }
    if (round == 0) {
      out.claims = std::move(first_[op].claims);
      first_[op] = std::move(out);
    } else if (!out.same(first_[op])) {
      ++repeat_mismatch_;
    }
  }

  /// An operation whose answers the oracles contradict is a failed
  /// operation; the sets are fixed, so every run counts the same ones.
  [[nodiscard]] Verdict check() override {
    Verdict v;
    std::uint64_t failed_slice = 0;
    for (std::size_t op = 0; op < first_.size(); ++op) {
      const bool in_slice = op >= kGenerated;
      Verdict own;
      examine(first_[op], (in_slice ? "slice set " : "generated set ") +
                              std::to_string(in_slice ? op - kGenerated : op),
              own);
      if (own.correct) continue;
      ++v.failed_per_round;
      if (in_slice) ++failed_slice;
      for (const std::string& p : own.problems) std::cerr << "failed op: " << p << "\n";
    }
    std::cerr << "dbf-sensitivity: " << v.failed_per_round
              << " failed op(s) per round, " << failed_slice << " in the U = 1 slice\n";
    if (repeat_mismatch_ > 0) {
      v.flag(std::to_string(repeat_mismatch_) +
             " op(s) answered differently on a repeated round");
    }
    if (counters_.replay_mismatches > 0) {
      v.flag(std::to_string(counters_.replay_mismatches) +
             " traced FT-S replay(s) differ from the op's own result");
    }
    return v;
  }

  [[nodiscard]] std::vector<Metric> layer_metrics(const Tracer& tracer) override {
    return perfbench::layer_metrics(tracer, counters_);
  }

 private:
  static constexpr std::size_t kStrata = std::size(kUtilizations) * 2;
  static constexpr std::size_t kGenerated = kStrata * kSetsPerStratum;

  /// Op of a generated set: generate, FT-S under MC-DBF, and headroom.
  Outcome run_generated(std::size_t index, Tracer* tracer,
                        std::vector<Claim>* claims) {
    begin(tracer, claims);
    core::FtTaskSet ts;
    {
      Span s(tracer, span::kGenerate);
      ts = generated_set(index);
    }
    Outcome out;
    {
      Span s(tracer, span::kFts);
      out.fts = core::ft_schedule(ts, cfg_);
    }
    out.success = out.fts.success;
    finish(out, std::move(out.fts.converted), tracer, claims);
    return out;
  }

  /// Op of a slice set: the MC-DBF test on Gamma(3,2,2), and headroom.
  Outcome run_slice(const core::FtTaskSet& ts, Tracer* tracer,
                    std::vector<Claim>* claims) {
    begin(tracer, claims);
    mcs::McTaskSet mc;
    {
      Span s(tracer, span::kConvert);
      mc = core::convert_to_mc(ts, 3, 2, 2);
    }
    Outcome out;
    out.success = test_->schedulable(mc);
    finish(out, std::move(mc), tracer, claims);
    return out;
  }

  void begin(Tracer* tracer, std::vector<Claim>* claims) {
    test_->tracer = tracer;
    test_->claims = claims;
  }

  void finish(Outcome& out, mcs::McTaskSet base, Tracer* tracer,
              std::vector<Claim>* claims) {
    if (out.success) {
      const std::uint64_t calls_before = test_->calls;
      {
        Span s(tracer, span::kSensitivity);
        out.max_scaling = mcs::max_wcet_scaling(base, *test_, kScalingCeiling,
                                                kScalingTolerance)
                              .max_scaling;
      }
      if (tracer != nullptr) {
        counters_.sensitivity_probes += test_->calls - calls_before;
      }
      if (claims != nullptr) out.scaled_base = std::move(base);
    }
    begin(nullptr, nullptr);
  }

  /// Generated set `index`: its stratum's utilization and deadline kind,
  /// drawn from its own stream of kSetStream.
  [[nodiscard]] static core::FtTaskSet generated_set(std::size_t index) {
    const std::size_t stratum = index / kSetsPerStratum;
    ftmc::taskgen::GeneratorParams params;
    params.mapping = {ftmc::Dal::B, ftmc::Dal::D};
    params.target_utilization = kUtilizations[stratum / 2];
    ftmc::taskgen::Rng rng(mix_seed(kSetStream, index));
    core::FtTaskSet ts = ftmc::taskgen::generate_task_set(params, rng);
    if (stratum % 2 == 0) return ts;
    std::vector<core::FtTask> tasks = ts.tasks();
    std::uniform_real_distribution<double> factor(kMinDeadline, 1.0);
    for (core::FtTask& t : tasks) t.deadline = t.period * factor(rng);
    return core::FtTaskSet(std::move(tasks), ts.mapping());
  }

  /// Runs the oracles over one op's recorded answers: every "schedulable"
  /// claim and the headroom factor.
  static void examine(const Outcome& o, const std::string& label, Verdict& v) {
    for (const Claim& c : o.claims) {
      const oracle::ClaimCheck r =
          oracle::verify_mc_dbf_claim(c.ts, c.virtual_deadlines);
      if (r.status == oracle::ClaimStatus::kMalformed) {
        v.flag(label + ": malformed MC-DBF claim: " + r.detail);
      } else if (r.status == oracle::ClaimStatus::kContradicted) {
        v.flag(label + ": MC-DBF claim contradicted" +
               (r.at_full_utilization ? " at U = 1: " : ": ") + r.detail);
      }
    }
    if (o.success) {
      oracle::check_headroom(o.scaled_base, o.max_scaling, kScalingCeiling,
                             kScalingTolerance, label, v);
    }
  }

  std::uint64_t seed_;
  std::shared_ptr<RecordingMcDbf> test_;
  ftmc::obs::Counter edf_evals_;
  mcs::McDbfTest plain_test_;
  core::FtsConfig cfg_;
  std::vector<core::FtTaskSet> slice_;
  std::vector<std::size_t> order_;  ///< op index of each round position
  std::vector<Outcome> first_;      ///< by op index
  std::uint64_t repeat_mismatch_ = 0;
  LayerCounters counters_;
};

}  // namespace

std::unique_ptr<Workload> make_dbf_sensitivity(std::uint64_t seed) {
  return std::make_unique<DbfSensitivity>(seed);
}

}  // namespace perfbench
