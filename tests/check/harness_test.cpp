#include <gtest/gtest.h>

#include <vector>

#include "ftmc/check/harness.hpp"
#include "ftmc/io/parse_error.hpp"
#include "ftmc/io/taskset_io.hpp"
#include "ftmc/obs/registry.hpp"

namespace ftmc::check {
namespace {

TEST(Harness, CleanSweepPassesAndCountsAddUp) {
  HarnessOptions opt;
  opt.seed = 42;
  opt.cases = 300;
  opt.threads = 2;
  const HarnessResult r = run_harness(opt);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.cases_run, 300u);
  EXPECT_FALSE(r.budget_exhausted);
  ASSERT_FALSE(r.selected.empty());
  // Every (case, property) pair yields exactly one verdict.
  EXPECT_EQ(r.checks_pass + r.checks_fail + r.checks_skip,
            r.cases_run * r.selected.size());
  EXPECT_EQ(r.checks_fail, 0u);
  EXPECT_GT(r.checks_pass, 0u);
}

TEST(Harness, CountsCasesInTheGlobalRegistryOnceEnabled) {
  obs::Registry& registry = obs::Registry::global();
  const bool was_enabled = registry.is_enabled();
  const obs::Counter cases = registry.counter("check.cases");
  const obs::Counter items = registry.counter("exec.check.items");
  HarnessOptions opt;
  opt.seed = 42;
  opt.cases = 40;
  opt.threads = 2;

  registry.enable(false);
  const std::uint64_t cases_off = cases.value();
  (void)run_harness(opt);
  EXPECT_EQ(cases.value(), cases_off);

  registry.enable(true);
  const std::uint64_t cases0 = cases.value();
  const std::uint64_t items0 = items.value();
  const HarnessResult r = run_harness(opt);
  registry.enable(was_enabled);
  EXPECT_EQ(cases.value() - cases0, r.cases_run);
  EXPECT_EQ(items.value() - items0, r.cases_run);  // the "check" region
}

TEST(Harness, VerdictsAreThreadCountInvariant) {
  HarnessOptions serial;
  serial.seed = 99;
  serial.cases = 150;
  serial.threads = 1;
  HarnessOptions parallel = serial;
  parallel.threads = 4;
  const HarnessResult a = run_harness(serial);
  const HarnessResult b = run_harness(parallel);
  EXPECT_EQ(a.checks_pass, b.checks_pass);
  EXPECT_EQ(a.checks_fail, b.checks_fail);
  EXPECT_EQ(a.checks_skip, b.checks_skip);
  EXPECT_EQ(a.failures.size(), b.failures.size());
}

TEST(Harness, FamilySelectionRestrictsAndUnknownNamesThrow) {
  HarnessOptions opt;
  opt.seed = 1;
  opt.cases = 20;
  opt.families = {std::string(kFamilyPfhMetamorphic)};
  const HarnessResult r = run_harness(opt);
  for (const std::string& name : r.selected) {
    const Property* p = find_property(name);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->family, kFamilyPfhMetamorphic);
  }
  EXPECT_THROW(select_properties({"no-such-family"}, {}),
               ContractViolation);
  EXPECT_THROW(select_properties({}, {"no-such-property"}),
               ContractViolation);
}

TEST(Harness, BudgetModeStopsEarlyAtACaseBoundary) {
  HarnessOptions opt;
  opt.seed = 3;
  opt.cases = 1'000'000;  // the budget, not this cap, must stop the run
  opt.budget_sec = 0.15;
  opt.threads = 2;
  const HarnessResult r = run_harness(opt);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_LT(r.cases_run, 1'000'000u);
  EXPECT_GT(r.cases_run, 0u);
  EXPECT_EQ(r.checks_pass + r.checks_fail + r.checks_skip,
            r.cases_run * r.selected.size());
}

TEST(Harness, BudgetStopEndsProgressAtDoneEqualsTotal) {
  // A progress meter ends its line on done == total; a budget stop
  // leaves the run short of opt.cases, and the last report must say so.
  HarnessOptions opt;
  opt.seed = 3;
  opt.cases = 10'000'000;  // what ftmc_check sets in budget mode
  opt.budget_sec = 0.05;
  opt.threads = 1;
  std::vector<obs::Progress> reports;
  opt.progress = [&reports](const obs::Progress& p) { reports.push_back(p); };
  const HarnessResult r = run_harness(opt);
  ASSERT_TRUE(r.budget_exhausted);
  ASSERT_FALSE(reports.empty());
  EXPECT_EQ(reports.back().done, r.cases_run);
  EXPECT_EQ(reports.back().total, r.cases_run);
  for (std::size_t i = 0; i + 1 < reports.size(); ++i) {
    EXPECT_LT(reports[i].done, reports[i].total);  // only the last closes
  }
}

TEST(Harness, InjectedBugIsFoundShrunkAndReplayable) {
  HarnessOptions opt;
  opt.seed = 5;
  opt.cases = 150;
  opt.threads = 2;
  opt.bugs.drop_reexec_term = true;
  const HarnessResult r = run_harness(opt);

  // The self-test teeth: the corrupted analysis must be caught ...
  ASSERT_FALSE(r.ok());
  ASSERT_FALSE(r.failures.empty());

  for (const FailureRecord& f : r.failures) {
    // ... by a differential family (metamorphic PFH properties do not
    // depend on the schedulability conversion under test),
    EXPECT_NE(f.family, kFamilyPfhMetamorphic) << f.property;
    // ... shrunk to a handful of tasks,
    EXPECT_LE(f.minimal.ts.size(), 4u) << f.property;
    EXPECT_LE(f.minimal.ts.size(), f.original.ts.size());
    EXPECT_FALSE(f.message.empty());

    // ... and the repro file round-trips to the same failing verdict.
    const std::string text = repro_to_string(f);
    const Repro repro = parse_repro(text);
    EXPECT_EQ(repro.property, f.property);
    EXPECT_EQ(repro.base_seed, 5u);
    EXPECT_EQ(repro.c.index, f.minimal.index);
    EXPECT_EQ(repro.c.n_hi, f.minimal.n_hi);
    EXPECT_EQ(io::task_set_to_string(repro.c.ts),
              io::task_set_to_string(f.minimal.ts));

    PropertyContext buggy;
    buggy.bugs = opt.bugs;
    EXPECT_EQ(replay_repro(repro, buggy).verdict, Verdict::kFail)
        << f.property;
  }
}

TEST(Harness, ReproMetadataIsReadStrictly) {
  HarnessOptions opt;
  opt.seed = 5;
  opt.cases = 150;
  opt.bugs.drop_reexec_term = true;
  opt.max_recorded_failures = 1;
  const HarnessResult r = run_harness(opt);
  ASSERT_EQ(r.failures.size(), 1u);
  const std::string text = repro_to_string(r.failures.front());
  const std::string n_hi =
      "# n-hi: " + std::to_string(r.failures.front().minimal.n_hi) + "\n";
  ASSERT_NE(text.find(n_hi), std::string::npos) << text;

  // A hand-edited value outside the domain, with trailing junk, or too
  // large for an int is a parse error naming the key, never a replay.
  for (const char* bad : {"-1", "3abc", "4294967299", "0", ""}) {
    std::string edited = text;
    edited.replace(edited.find(n_hi), n_hi.size(),
                   std::string("# n-hi: ") + bad + "\n");
    try {
      (void)parse_repro(edited);
      ADD_FAILURE() << "n-hi \"" << bad << "\" was accepted";
    } catch (const io::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("n-hi"), std::string::npos)
          << e.what();
    }
  }
  for (const char* bad : {"0.5", "nan", "inf", "2x"}) {
    std::string edited = text + "# degradation-factor: " + bad + "\n";
    EXPECT_THROW((void)parse_repro(edited), io::ParseError) << bad;
  }
  EXPECT_THROW((void)parse_repro(text + "# n-adapt: -1\n"), io::ParseError);
  EXPECT_THROW((void)parse_repro(text + "# case-seed: -1\n"),
               io::ParseError);
  EXPECT_EQ(parse_repro(text + "# n-adapt: 0\n").c.n_adapt, 0);
}

TEST(Harness, FailureRecordingHonorsTheCap) {
  HarnessOptions opt;
  opt.seed = 5;
  opt.cases = 150;
  opt.bugs.drop_reexec_term = true;
  opt.max_recorded_failures = 1;
  const HarnessResult r = run_harness(opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.failures.size(), 1u);
  // All failures are still *counted* even though only one was recorded.
  EXPECT_GT(r.checks_fail, 1u);
}

TEST(Harness, ReproBytesAreDeterministic) {
  HarnessOptions opt;
  opt.seed = 5;
  opt.cases = 100;
  opt.bugs.drop_reexec_term = true;
  opt.threads = 1;
  HarnessOptions wide = opt;
  wide.threads = 4;
  const HarnessResult a = run_harness(opt);
  const HarnessResult b = run_harness(wide);
  ASSERT_EQ(a.failures.size(), b.failures.size());
  ASSERT_FALSE(a.failures.empty());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(repro_to_string(a.failures[i]),
              repro_to_string(b.failures[i]));
    EXPECT_EQ(repro_file_name(a.failures[i]),
              repro_file_name(b.failures[i]));
  }
}

}  // namespace
}  // namespace ftmc::check
