/// Strict CLI/env parsing of the bench binaries: unknown flags, missing
/// values and malformed numbers are errors (exit non-zero), never
/// silently ignored input. Registered from bench/CMakeLists.txt because
/// it links ftmc_bench_common.
#include "common/experiment_util.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

namespace ftmc::bench {
namespace {

/// argv builder ({"prog", flags...}; keeps storage alive).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : strings_(std::move(args)) {
    strings_.insert(strings_.begin(), "bench_test");
    for (std::string& s : strings_) pointers_.push_back(s.data());
  }
  [[nodiscard]] int argc() const {
    return static_cast<int>(pointers_.size());
  }
  [[nodiscard]] char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> pointers_;
};

/// Scoped environment override (unset when `value` is nullopt).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, std::optional<std::string> value)
      : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    if (value) {
      ::setenv(name, value->c_str(), 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(BenchOverridesParse, ParsesAllKnownFlags) {
  ScopedEnv no_sets("FTMC_BENCH_SETS", std::nullopt);
  ScopedEnv no_threads("FTMC_BENCH_THREADS", std::nullopt);
  Argv argv({"--sets", "25", "--seed", "18446744073709551615", "--threads",
             "4", "--progress"});
  const Expected<BenchOverrides> parsed =
      parse_bench_overrides(argv.argc(), argv.argv());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed->sets, 25);
  EXPECT_EQ(parsed->seed, 18446744073709551615ULL);
  EXPECT_EQ(parsed->threads, 4);
  EXPECT_TRUE(parsed->progress);
}

TEST(BenchOverridesParse, CampaignFlagsAreOptIn) {
  ScopedEnv no_sets("FTMC_BENCH_SETS", std::nullopt);
  ScopedEnv no_threads("FTMC_BENCH_THREADS", std::nullopt);
  Argv spec_flag({"--spec", "custom.json", "--out", "runs/a"});
  const auto rejected =
      parse_bench_overrides(spec_flag.argc(), spec_flag.argv());
  EXPECT_FALSE(rejected.ok());

  Argv again({"--spec", "custom.json", "--out", "runs/a"});
  const auto allowed = parse_bench_overrides(again.argc(), again.argv(),
                                             /*allow_campaign_flags=*/true);
  ASSERT_TRUE(allowed.ok()) << allowed.error();
  EXPECT_EQ(allowed->spec, "custom.json");
  EXPECT_EQ(allowed->out, "runs/a");
}

TEST(BenchOverridesParse, RejectsUnknownFlag) {
  Argv argv({"--stes", "25"});  // typo
  const auto parsed = parse_bench_overrides(argv.argc(), argv.argv());
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("--stes"), std::string::npos);
}

TEST(BenchOverridesParse, RejectsMissingAndMalformedValues) {
  Argv missing({"--sets"});
  EXPECT_FALSE(parse_bench_overrides(missing.argc(), missing.argv()).ok());

  Argv trailing({"--sets", "25x"});
  EXPECT_FALSE(
      parse_bench_overrides(trailing.argc(), trailing.argv()).ok());

  Argv negative({"--sets", "0"});
  EXPECT_FALSE(
      parse_bench_overrides(negative.argc(), negative.argv()).ok());

  Argv overflow({"--seed", "99999999999999999999"});
  EXPECT_FALSE(
      parse_bench_overrides(overflow.argc(), overflow.argv()).ok());

  Argv bad_threads({"--threads", "many"});
  EXPECT_FALSE(
      parse_bench_overrides(bad_threads.argc(), bad_threads.argv()).ok());
}

TEST(BenchOverridesParse, EnvironmentWinsOverCli) {
  // Historical CI contract: FTMC_BENCH_SETS/THREADS override the CLI.
  ScopedEnv sets("FTMC_BENCH_SETS", "11");
  ScopedEnv threads("FTMC_BENCH_THREADS", "2");
  Argv argv({"--sets", "7", "--threads", "5"});
  const Expected<BenchOverrides> parsed =
      parse_bench_overrides(argv.argc(), argv.argv());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed->sets, 11);
  EXPECT_EQ(parsed->threads, 2);
}

TEST(BenchOverridesParse, MalformedEnvironmentIsAnErrorNotADefault) {
  ScopedEnv sets("FTMC_BENCH_SETS", "lots");
  ScopedEnv no_threads("FTMC_BENCH_THREADS", std::nullopt);
  Argv argv({});
  const Expected<BenchOverrides> parsed =
      parse_bench_overrides(argv.argc(), argv.argv());
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("FTMC_BENCH_SETS"), std::string::npos);
}

}  // namespace
}  // namespace ftmc::bench
