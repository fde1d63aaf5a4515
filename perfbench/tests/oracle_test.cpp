/// Feeds every oracle of the benchmark a correct answer, which it must
/// accept, and deliberately corrupted answers, which it must flag.
///   python3 perfbench/run.py --selftest
#include <cmath>
#include <iostream>
#include <string>

#include "ftmc/campaign/runner.hpp"
#include "ftmc/campaign/spec.hpp"
#include "ftmc/core/conversion.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/fms/fms.hpp"
#include "ftmc/mcs/edf.hpp"
#include "ftmc/mcs/mc_dbf.hpp"
#include "ftmc/mcs/sensitivity.hpp"
#include "ftmc/serve/server.hpp"
#include "ftmc/sim/engine.hpp"
#include "ftmc/taskgen/generator.hpp"
#include "oracles.hpp"

namespace {

using namespace perfbench;
namespace oracle = perfbench::oracle;
namespace mcs = ftmc::mcs;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++g_failures;
}

/// Runs `feed` on a fresh verdict and reports whether it flagged.
template <class F>
bool flags(F&& feed) {
  Verdict v;
  feed(v);
  return !v.correct;
}

// --- fig3-campaign ----------------------------------------------------

void test_fig3() {
  for (const char* spec_name : {"edf_vd_killing", "edf_vd_degradation"}) {
    const std::string text =
        std::string("{\"name\": \"t\", \"schedulers\": [\"") + spec_name +
        "\"], \"mapping\": {\"hi\": \"B\", \"lo\": \"C\"}, \"failure_probs\": "
        "[1e-3], \"utilizations\": [0.45], \"sets_per_point\": 60, \"seed\": 11}";
    const auto cells = ftmc::campaign::expand_cells(ftmc::campaign::parse_spec_text(text));
    const ftmc::campaign::CellSpec& cell = cells.front();
    const ftmc::campaign::CellCounts good = ftmc::campaign::run_cell(cell);
    const oracle::Fig3Expectation e = oracle::fig3_expected(cell);
    const std::string tag = std::string("fig3 ") + spec_name + ": ";
    expect(!flags([&](Verdict& v) { oracle::check_fig3_cell(cell, good, e, v); }),
           tag + "run_cell's counts accepted");
    auto bad = good;
    bad.accept_without = e.without.hi + 1;
    bad.accept_with = std::max(bad.accept_with, bad.accept_without);
    expect(flags([&](Verdict& v) { oracle::check_fig3_cell(cell, bad, e, v); }),
           tag + "accept_without above Eq. (2) + EDF bound flagged");
    bad = good;
    bad.accept_with = bad.accept_without - 1;
    expect(flags([&](Verdict& v) { oracle::check_fig3_cell(cell, bad, e, v); }),
           tag + "accept_with below accept_without flagged");
    if (e.with_checked) {
      bad = good;
      bad.accept_with = e.with.hi + 1;
      expect(flags([&](Verdict& v) { oracle::check_fig3_cell(cell, bad, e, v); }),
             tag + "accept_with above Eq. (7) + Eq. (11) flagged");
    }
  }
}

// --- dbf-sensitivity --------------------------------------------------

mcs::McTaskSet u_half_gamma(int index) {
  ftmc::taskgen::GeneratorParams params;
  params.target_utilization = 0.5;
  ftmc::taskgen::Rng rng(7);
  ftmc::core::FtTaskSet ts;
  for (int i = 0; i <= index; ++i) ts = ftmc::taskgen::generate_task_set(params, rng);
  return ftmc::core::convert_to_mc(ts, 3, 2, 2);
}

void test_dbf() {
  // A set MC-DBF accepts with proper virtual deadlines.
  ftmc::taskgen::GeneratorParams params;
  params.target_utilization = 0.45;
  params.mapping = {ftmc::Dal::B, ftmc::Dal::D};
  mcs::McTaskSet good_set;
  mcs::McDbfAnalysis good;
  for (std::uint64_t s = 1; s < 200 && !(good.schedulable && good.uniform_factor < 1.0); ++s) {
    ftmc::taskgen::Rng rng(s);
    good_set = ftmc::core::convert_to_mc(ftmc::taskgen::generate_task_set(params, rng), 3, 1, 1);
    good = mcs::analyze_mc_dbf(good_set);
  }
  expect(good.schedulable && good.uniform_factor < 1.0, "dbf: found a set needing virtual deadlines");
  const oracle::ClaimCheck ok = oracle::verify_mc_dbf_claim(good_set, good.virtual_deadlines);
  expect(ok.status == oracle::ClaimStatus::kConfirmed, "dbf: a sound claim is confirmed");

  std::size_t hi = 0;
  while (good_set[hi].crit != ftmc::CritLevel::HI) ++hi;
  auto vd = good.virtual_deadlines;
  vd[hi] = good_set[hi].deadline - 0.5 * good_set[hi].wcet_hi;  // HI residual < C(HI)
  expect(oracle::verify_mc_dbf_claim(good_set, vd).status ==
             oracle::ClaimStatus::kContradicted,
         "dbf: virtual deadline leaving too little HI-mode slack flagged");
  vd = good.virtual_deadlines;
  vd[hi] = good_set[hi].deadline * 1.5;
  expect(oracle::verify_mc_dbf_claim(good_set, vd).status ==
             oracle::ClaimStatus::kMalformed,
         "dbf: virtual deadline beyond D flagged as malformed");

  // The U = 1 fault: the 5th Rng(7) set's Gamma(3,2,2) LO view.
  const mcs::McTaskSet full = u_half_gamma(4);
  const mcs::McDbfAnalysis claimed = mcs::analyze_mc_dbf(full);
  const oracle::ClaimCheck c = oracle::verify_mc_dbf_claim(full, claimed.virtual_deadlines);
  std::cout << "     (program says " << (claimed.schedulable ? "schedulable" : "not schedulable")
            << "; oracle: " << c.detail << ")\n";
  expect(c.status == oracle::ClaimStatus::kContradicted && c.at_full_utilization,
         "dbf: U = 1 LO view with demand above supply past 1000 T_max flagged");

  // A view whose demand exceeds supply exactly at a deadline point that
  // floor((t - D) / T) in double precision rounds one job short of.
  mcs::McTaskSet own;
  const double tasks[4][3] = {{1548.2866665924303, 1202.4074714355309, 596.60792431777429},
                              {1880.9410759511723, 1828.0468317046621, 225.96394909648828},
                              {215.83837422201378, 215.77791427290438, 58.251730983240847},
                              {600.32835915742567, 553.64433679993363, 130.11575560168714}};
  std::vector<double> own_vd;
  for (int i = 0; i < 4; ++i) {
    mcs::McTask t;
    t.name = "t";
    t.name += std::to_string(i);
    t.period = tasks[i][0];
    t.deadline = tasks[i][1];
    t.wcet_lo = t.wcet_hi = tasks[i][2];
    t.crit = i == 0 ? ftmc::CritLevel::HI : ftmc::CritLevel::LO;
    own.add(t);
    own_vd.push_back(t.deadline);
  }
  const oracle::ClaimCheck r = oracle::verify_mc_dbf_claim(own, own_vd);
  std::cout << "     (program's EDF test says "
            << (mcs::edf_schedulable(mcs::as_sporadic_own_level(own)).schedulable
                    ? "schedulable"
                    : "not schedulable")
            << "; oracle: " << r.detail << ")\n";
  expect(r.status == oracle::ClaimStatus::kContradicted,
         "dbf: demand 0.89 ms above supply at t = 4316.7 ms flagged");

  // Headroom: the true factor passes, a larger or smaller one does not.
  const mcs::McDbfTest test;
  const double factor = mcs::max_wcet_scaling(good_set, test, 8.0, 1e-2).max_scaling;
  expect(!flags([&](Verdict& v) { oracle::check_headroom(good_set, factor, 8.0, 1e-2, "h", v); }),
         "dbf: max_wcet_scaling's factor accepted");
  expect(flags([&](Verdict& v) { oracle::check_headroom(good_set, factor * 1.2, 8.0, 1e-2, "h", v); }),
         "dbf: a factor above the headroom flagged");
  expect(flags([&](Verdict& v) { oracle::check_headroom(good_set, factor * 0.8, 8.0, 1e-2, "h", v); }),
         "dbf: a factor far below the headroom flagged");
}

// --- sim-missions -----------------------------------------------------

void test_sim() {
  const ftmc::core::FtTaskSet ts = ftmc::fms::canonical_fms_instance();
  ftmc::sim::SimConfig cfg;
  cfg.adaptation = mcs::AdaptationKind::kDegradation;
  cfg.degradation_factor = 6.0;
  cfg.horizon = ftmc::sim::kTicksPerHour / 10;
  cfg.fault_adversary = ftmc::sim::FaultAdversary::kExhaustBudget;
  ftmc::sim::Simulator sim(ftmc::sim::build_sim_tasks(ts, 3, 2, 2, 0.6741), cfg);
  const ftmc::sim::SimStats stats = sim.run();
  expect(!flags([&](Verdict& v) {
           oracle::check_balance(stats, 2, "m", v);
           oracle::check_exhaust(stats, "m", v);
         }),
         "sim: FMS exhaust-budget mission balances and meets every deadline");
  auto bad = stats;
  bad.per_task[0].deadline_misses = 1;
  expect(flags([&](Verdict& v) { oracle::check_exhaust(bad, "m", v); }),
         "sim: a deadline miss under the exhaust adversary flagged");
  bad = stats;
  bad.per_task[1].completed = bad.per_task[1].released + 1;
  expect(flags([&](Verdict& v) { oracle::check_balance(bad, 2, "m", v); }),
         "sim: more completions than releases flagged");
  bad = stats;
  bad.per_task[2].released += 5;
  expect(flags([&](Verdict& v) { oracle::check_balance(bad, 2, "m", v); }),
         "sim: releases that never ended flagged");
  expect(std::fabs(oracle::poisson_lower_limit(10) - 4.7954) < 1e-3,
         "sim: Garwood lower limit of k = 10 is 4.7954");
  expect(!flags([&](Verdict& v) { oracle::check_pfh(15, 1.0, 10.0, 0.95, "p", v); }),
         "sim: 15 failures per hour under a bound of 10 accepted at 95%");
  expect(flags([&](Verdict& v) { oracle::check_pfh(50, 1.0, 10.0, 0.95, "p", v); }),
         "sim: 50 failures per hour over a bound of 10 flagged at 95%");
  expect(!flags([&](Verdict& v) { oracle::check_pfh(20, 1.0, 10.0, 1.0 - 1e-6, "p", v); }) &&
             flags([&](Verdict& v) { oracle::check_pfh(100, 1.0, 10.0, 1.0 - 1e-6, "p", v); }),
         "sim: at 1 - 1e-6 confidence 20 failures pass and 100 are flagged");
  bad = stats;
  bad.preemptions += 1;
  expect(oracle::same_stats(stats, stats) && !oracle::same_stats(stats, bad),
         "sim: a changed preemption count breaks reproducibility");
}

// --- serve-queries ----------------------------------------------------

void test_serve() {
  ftmc::serve::ServerOptions options;
  options.threads = 1;
  ftmc::serve::Server server(options);
  const ftmc::core::FtTaskSet ts = ftmc::fms::canonical_fms_instance();
  const std::string set = ftmc::io::task_set_to_json(ts);
  const std::string response = server.handle(
      "{\"type\":\"analyze\",\"queries\":[{\"query\":\"fts\",\"scheduler\":"
      "\"edf_vd_degradation\",\"task_set\":" + set + "},{\"query\":\"admit\","
      "\"n_hi\":3,\"n_lo\":2,\"n_adapt\":1,\"task_set\":" + set + "}]}");
  const std::size_t split = response.find("{\"ok\":true,\"query\":\"admit\"");
  const std::string fts = response.substr(0, split);
  const std::string admit = response.substr(split);

  ftmc::core::FtsConfig cfg;
  cfg.adaptation.kind = mcs::AdaptationKind::kDegradation;
  cfg.adaptation.degradation_factor = 6.0;
  cfg.prefer_no_adaptation = true;
  const ftmc::core::FtsResult r = ftmc::core::ft_schedule(ts, cfg);
  const oracle::FtsFacts facts{r.success, r.n_hi, r.n_lo, r.n_adapt};
  expect(!flags([&](Verdict& v) { oracle::check_fts_answer(fts, facts, "q", v); }),
         "serve: fts answer agrees with core::ft_schedule");
  auto wrong = facts;
  wrong.n_adapt += 1;
  expect(flags([&](Verdict& v) { oracle::check_fts_answer(fts, wrong, "q", v); }),
         "serve: fts answer with another adaptation profile flagged");
  wrong = facts;
  wrong.success = !wrong.success;
  expect(flags([&](Verdict& v) { oracle::check_fts_answer(fts, wrong, "q", v); }),
         "serve: fts answer with the opposite verdict flagged");

  std::vector<bool> admitted;
  for (std::size_t p = admit.find("\"tasks\":["); (p = admit.find("\"admitted\":", p + 1)) <
                                                  admit.find("\"blackbox\":");) {
    admitted.push_back(admit.compare(p + 11, 4, "true") == 0);
  }
  expect(admitted.size() == ts.size() &&
             !flags([&](Verdict& v) { oracle::check_admit_answer(admit, admitted, "q", v); }),
         "serve: admit answer lists one verdict per task and is accepted");
  auto flipped = admitted;
  flipped.back() = !flipped.back();
  expect(flags([&](Verdict& v) { oracle::check_admit_answer(admit, flipped, "q", v); }),
         "serve: admit answer with one task's verdict flipped flagged");
  expect(flags([&](Verdict& v) { oracle::check_ok("{\"ok\":false,\"error\":\"x\"}", "q", v); }),
         "serve: a failed result slot flagged");
  expect(!flags([&](Verdict& v) { oracle::check_hit(fts, fts, "q", v); }) &&
             flags([&](Verdict& v) { oracle::check_hit(fts + " ", fts, "q", v); }),
         "serve: a cache hit differing from its cold answer flagged");
}

}  // namespace

int main() {
  test_fig3();
  test_dbf();
  test_sim();
  test_serve();
  std::cout << (g_failures == 0 ? "all oracle tests passed\n" : "oracle tests FAILED\n");
  return g_failures == 0 ? 0 : 1;
}
