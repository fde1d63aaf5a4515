/// sim-missions: one operation is one simulated mission of a fixed length
/// on the discrete-event simulator (sim host over rt::Core). Missions run
/// the FMS case study and FT-S-admitted generated sets under EDF-VD with
/// killing and with degradation, with Bernoulli faults at a raised f and
/// with the exhaust-budget adversary.
#include <algorithm>
#include <map>
#include <optional>
#include <string>

#include "ftmc/core/analysis.hpp"
#include "ftmc/core/conversion.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/fms/fms.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/mcs/edf_vd_degradation.hpp"
#include "ftmc/sim/engine.hpp"
#include "ftmc/taskgen/generator.hpp"
#include "layers.hpp"
#include "oracles.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = ftmc::core;
namespace mcs = ftmc::mcs;
namespace sim = ftmc::sim;
using ftmc::CritLevel;

/// Per-attempt failure probability the missions simulate. FT-S admits the
/// sets at the paper's f = 1e-5; at 1e-2 re-executions, mode switches and
/// kills happen within one mission.
constexpr double kSimFailureProb = 1e-2;
/// Every mission releases about as many jobs as a quarter hour of the FMS
/// case study (~20k), so operations of different sets cost about the same.
constexpr double kJobsPerMission = 20'500.0;
/// Generated sets per kind of adaptation, drawn from the seed.
constexpr int kGeneratedSets = 24;
/// Generated candidates FT-S is asked to admit, and their fixed stream.
constexpr std::uint64_t kCandidates = 400;
constexpr std::uint64_t kSetStream = 20140601;
constexpr double kUtilizations[] = {0.55, 0.6, 0.65, 0.7};
/// Bernoulli missions per FMS / generated configuration per round.
constexpr int kFmsBernoulli = 8;
constexpr int kGeneratedBernoulli = 1;
/// FT-S acceptances within this distance of U_MC = 1 are left out: tick
/// rounding of the simulator could turn them into real misses (the same
/// margin ftmc::check uses).
constexpr double kUmcMargin = 1e-3;
constexpr double kDegradationFactor = 6.0;
/// Confidence of the Poisson limit the PFH check uses. sim_validation's
/// 95% would flag about one correct run in forty once a run makes a
/// handful of such checks and the benchmark is run many times; at
/// 1 - 1e-6 a bound is still refuted when the observed rate is twice it
/// over a few hundred failures.
constexpr double kPfhConfidence = 1.0 - 1e-6;
/// Jobs per task that may still be pending when a mission ends.
constexpr std::uint64_t kInFlight = 2;

struct MissionSet {
  std::string label;
  core::FtTaskSet ts;  ///< at kSimFailureProb
  mcs::AdaptationKind kind = mcs::AdaptationKind::kKilling;
  int n_hi = 0, n_lo = 0, n_adapt = 0;
  double x = 1.0;
  double hours = 1.0;
  double bound_hi = 0.0;  ///< Eq. (2)
  double bound_lo = 0.0;  ///< Eq. (5) under killing, Eq. (2) under degradation
};

struct Mission {
  std::size_t set = 0;
  bool exhaust = false;
  std::uint64_t seed = 0;
};

struct Result {
  sim::SimStats stats;
  std::uint64_t records = 0;
};

class SimMissions final : public Workload {
 public:
  explicit SimMissions(std::uint64_t seed) : seed_(seed) {}

  /// Candidate sets: the FMS case study, then generated sets (HI = B,
  /// LO = D, P_HI = 0.5) from a fixed stream. The seed drives the missions
  /// (fault draws and release phasing) rather than the sets: the cost of a
  /// mission depends on its set's shape far more than on its faults, and a
  /// few dozen seed-drawn shapes made the latency quantiles of two seeds
  /// differ by up to a fifth.
  void prepare() override {
    candidates_.clear();
    candidates_.push_back(ftmc::fms::canonical_fms_instance());
    for (std::uint64_t draw = 0; draw < kCandidates; ++draw) {
      ftmc::taskgen::GeneratorParams params;
      params.mapping = {ftmc::Dal::B, ftmc::Dal::D};
      params.p_hi = 0.5;
      params.target_utilization = kUtilizations[draw % std::size(kUtilizations)];
      ftmc::taskgen::Rng rng(mix_seed(kSetStream, draw));
      candidates_.push_back(ftmc::taskgen::generate_task_set(params, rng));
    }
  }

  /// FT-S admission of the candidates, their bounds and the missions.
  void setup() override {
    sets_.clear();
    missions_.clear();
    add_set("fms", candidates_[0], mcs::AdaptationKind::kDegradation);
    const mcs::AdaptationKind kinds[] = {mcs::AdaptationKind::kKilling,
                                         mcs::AdaptationKind::kDegradation};
    for (const mcs::AdaptationKind kind : kinds) {
      int found = 0;
      for (std::size_t c = 1; c < candidates_.size() && found < kGeneratedSets; ++c) {
        const std::string label = std::string(kind == kinds[0] ? "kill-" : "degr-") +
                                  std::to_string(found);
        if (add_set(label, candidates_[c], kind)) ++found;
      }
    }
    for (std::size_t s = 0; s < sets_.size(); ++s) {
      const int bernoulli = s == 0 ? kFmsBernoulli : kGeneratedBernoulli;
      for (int m = 0; m < bernoulli; ++m) {
        missions_.push_back({s, false, mix_seed(seed_, 1000 + missions_.size())});
      }
      missions_.push_back({s, true, 0});
    }
    // Warm-up: two full-length missions per set.
    for (std::size_t s = 0; s < sets_.size(); ++s) {
      (void)simulate({s, false, 1}, nullptr);
      (void)simulate({s, true, 0}, nullptr);
    }
  }

  [[nodiscard]] std::size_t round_size() const override { return missions_.size(); }

  void begin_round(std::size_t round) override {
    if (round == 0) first_.assign(round_size(), {});
  }

  void run_op(std::size_t i, std::size_t round, Tracer* tracer) override {
    Result r = simulate(missions_[i], tracer);
    if (tracer != nullptr) {
      ++counters_.ops;
      for (const sim::TaskStats& t : r.stats.per_task) {
        counters_.sim_jobs += t.released;
        counters_.sim_attempts += t.attempts;
        counters_.sim_kills += t.killed;
      }
      counters_.sim_preemptions += r.stats.preemptions;
      counters_.sim_mode_switches += r.stats.mode_switches;
      counters_.rt_records += r.records;
    }
    if (round == 0) {
      first_[i] = std::move(r);
    } else if (!oracle::same_stats(r.stats, first_[i].stats) ||
               r.records != first_[i].records) {
      ++repeat_mismatch_;
    }
  }

  [[nodiscard]] Verdict check() override {
    Verdict v;
    // Failures and analytical expectations (bound x hours) per group of
    // sets (FMS, killing, degradation) and criticality level.
    struct Tally {
      std::uint64_t failures = 0;
      double hours = 0.0, expected = 0.0;
    };
    std::map<std::string, Tally> tallies;
    for (std::size_t i = 0; i < missions_.size(); ++i) {
      const Mission& m = missions_[i];
      const MissionSet& set = sets_[m.set];
      const sim::SimStats& stats = first_[i].stats;
      const std::string label = set.label + (m.exhaust ? " exhaust" : " bernoulli") +
                                " mission " + std::to_string(i);
      oracle::check_balance(stats, kInFlight, label, v);
      if (m.exhaust) {
        oracle::check_exhaust(stats, label, v);
        continue;
      }
      const std::string group = set.label.substr(0, set.label.find('-'));
      Tally& hi = tallies[group + " HI"];
      Tally& lo = tallies[group + " LO"];
      for (std::size_t t = 0; t < stats.per_task.size(); ++t) {
        const bool is_hi = set.ts.crit_of(t) == CritLevel::HI;
        (is_hi ? hi : lo).failures += stats.per_task[t].temporal_failures();
      }
      hi.hours += set.hours;
      lo.hours += set.hours;
      hi.expected += set.bound_hi * set.hours;
      lo.expected += set.bound_lo * set.hours;
    }
    for (const auto& [label, t] : tallies) {
      oracle::check_pfh(t.failures, t.hours, t.expected / t.hours,
                        kPfhConfidence, label, v);
    }
    // The same seed twice gives identical statistics.
    for (std::size_t i = 0; i < std::min<std::size_t>(3, missions_.size()); ++i) {
      const Result again = simulate(missions_[i], nullptr);
      if (!oracle::same_stats(again.stats, first_[i].stats)) {
        v.flag("mission " + std::to_string(i) + " is not reproducible from its seed");
      }
    }
    if (repeat_mismatch_ > 0) {
      v.flag(std::to_string(repeat_mismatch_) +
             " mission(s) differed on a repeated round");
    }
    return v;
  }

  [[nodiscard]] std::vector<Metric> layer_metrics(const Tracer& tracer) override {
    return perfbench::layer_metrics(tracer, counters_);
  }

 private:
  /// Runs FT-S on `nominal` under `kind`; keeps the set when it is admitted
  /// with a reachable mode switch (n' < n_HI) and away from U_MC = 1.
  bool add_set(const std::string& label, const core::FtTaskSet& nominal,
               mcs::AdaptationKind kind) {
    core::FtsConfig cfg;
    cfg.adaptation.kind = kind;
    cfg.adaptation.degradation_factor = kDegradationFactor;
    const core::FtsResult r = core::ft_schedule(nominal, cfg);
    if (!r.success || r.n_adapt >= r.n_hi || r.u_mc > 1.0 - kUmcMargin) return false;

    MissionSet s;
    s.label = label;
    s.kind = kind;
    s.n_hi = r.n_hi;
    s.n_lo = r.n_lo;
    s.n_adapt = r.n_adapt;
    std::vector<core::FtTask> tasks = nominal.tasks();
    double jobs_per_hour = 0.0;
    for (core::FtTask& t : tasks) {
      t.failure_prob = kSimFailureProb;
      jobs_per_hour += 3.6e6 / t.period;
    }
    s.ts = core::FtTaskSet(std::move(tasks), nominal.mapping());
    s.hours = kJobsPerMission / jobs_per_hour;
    const mcs::McTaskSet mc = core::convert_to_mc(s.ts, s.n_hi, s.n_lo, s.n_adapt);
    const double x =
        kind == mcs::AdaptationKind::kKilling
            ? mcs::analyze_edf_vd(mc).x
            : mcs::analyze_edf_vd_degradation(mc, kDegradationFactor).x;
    s.x = std::clamp(x, 0.001, 1.0);
    const core::PerTaskProfile n = core::uniform_profile(s.ts, s.n_hi, s.n_lo);
    const core::PerTaskProfile n_adapt = core::uniform_profile(s.ts, s.n_adapt, 0);
    s.bound_hi = core::pfh_plain(s.ts, n, CritLevel::HI);
    if (kind == mcs::AdaptationKind::kKilling) {
      core::KillingBoundOptions opt;
      opt.os_hours = s.hours;
      s.bound_lo = core::pfh_lo_killing(s.ts, n, n_adapt, opt);
    } else {
      // Degradation only stretches LO periods, so Eq. (2) bounds the LO
      // failures (see README.md for why Eq. (7) is not used here).
      s.bound_lo = core::pfh_plain(s.ts, n, CritLevel::LO);
    }
    sets_.push_back(std::move(s));
    return true;
  }

  Result simulate(const Mission& m, Tracer* tracer) const {
    const MissionSet& set = sets_[m.set];
    sim::SimConfig cfg;
    cfg.policy = sim::PolicyKind::kEdfVd;
    cfg.adaptation = set.kind;
    cfg.degradation_factor =
        set.kind == mcs::AdaptationKind::kDegradation ? kDegradationFactor : 1.0;
    cfg.horizon =
        static_cast<sim::Tick>(set.hours * static_cast<double>(sim::kTicksPerHour));
    cfg.seed = m.seed;
    // Bernoulli missions start each task at a random phase; the exhaust
    // adversary keeps the synchronous release, the worst case.
    cfg.random_phasing = !m.exhaust;
    cfg.fault_adversary = m.exhaust ? sim::FaultAdversary::kExhaustBudget
                                    : sim::FaultAdversary::kBernoulli;
    std::optional<sim::Simulator> simulator;
    {
      Span s(tracer, span::kSimBuild);
      simulator.emplace(
          sim::build_sim_tasks(set.ts, set.n_hi, set.n_lo, set.n_adapt, set.x), cfg);
    }
    Result r;
    {
      Span s(tracer, span::kSimRun);
      r.stats = simulator->run();
    }
    // The recorder's stream starts with one admission record per task.
    r.records = simulator->black_box().total() - set.ts.size();
    return r;
  }

  std::uint64_t seed_;
  std::vector<core::FtTaskSet> candidates_;
  std::vector<MissionSet> sets_;
  std::vector<Mission> missions_;
  std::vector<Result> first_;
  std::uint64_t repeat_mismatch_ = 0;
  LayerCounters counters_;
};

}  // namespace

std::unique_ptr<Workload> make_sim_missions(std::uint64_t seed) {
  return std::make_unique<SimMissions>(seed);
}

}  // namespace perfbench
