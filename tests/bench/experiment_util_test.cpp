/// Strict CLI/env parsing of the sweep benches' table: unknown flags,
/// missing values and malformed numbers are usage errors (exit 2), never
/// silently ignored input. Registered from bench/CMakeLists.txt because
/// it links ftmc_bench_common.
#include "common/experiment_util.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace ftmc::bench {
namespace {

/// Parses {"bench_test", args...} against the sweep benches' table;
/// the error is what the parser printed.
Expected<BenchOverrides> parse_bench_args(
    std::vector<std::string> args, bool campaign_flags = false) {
  args.insert(args.begin(), "bench_test");
  std::vector<const char*> argv;
  for (const std::string& a : args) argv.push_back(a.c_str());
  BenchOverrides overrides;
  std::ostringstream out, err;
  const std::optional<int> code =
      cli::parse(bench_flags("bench_test", overrides, campaign_flags),
                 static_cast<int>(argv.size()), argv.data(), out, err);
  if (!code) return overrides;
  EXPECT_EQ(code, 2);
  EXPECT_EQ(err.str().rfind("bench_test: ", 0), 0u) << err.str();
  return Expected<BenchOverrides>::failure(err.str());
}

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
  const Expected<BenchOverrides> parsed = parse_bench_args(
      {"--sets", "25", "--seed", "18446744073709551615", "--threads", "4",
       "--progress"});
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed->sets, 25);
  EXPECT_EQ(parsed->seed, 18446744073709551615ULL);
  EXPECT_EQ(parsed->threads, 4);
  EXPECT_TRUE(parsed->progress);
}

TEST(BenchOverridesParse, CampaignFlagsAreOptIn) {
  ScopedEnv no_sets("FTMC_BENCH_SETS", std::nullopt);
  ScopedEnv no_threads("FTMC_BENCH_THREADS", std::nullopt);
  const auto rejected =
      parse_bench_args({"--spec", "custom.json", "--out", "runs/a"});
  EXPECT_FALSE(rejected.ok());

  const auto allowed =
      parse_bench_args({"--spec", "custom.json", "--out", "runs/a"},
                            /*campaign_flags=*/true);
  ASSERT_TRUE(allowed.ok()) << allowed.error();
  EXPECT_EQ(allowed->spec, "custom.json");
  EXPECT_EQ(allowed->out, "runs/a");
}

TEST(BenchOverridesParse, RejectsUnknownFlag) {
  const auto parsed = parse_bench_args({"--stes", "25"});  // typo
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("--stes"), std::string::npos);
}

TEST(BenchOverridesParse, RejectsMissingAndMalformedValues) {
  EXPECT_FALSE(parse_bench_args({"--sets"}).ok());
  EXPECT_FALSE(parse_bench_args({"--sets", "25x"}).ok());
  EXPECT_FALSE(parse_bench_args({"--sets", "0"}).ok());
  EXPECT_FALSE(
      parse_bench_args({"--seed", "99999999999999999999"}).ok());
  EXPECT_FALSE(parse_bench_args({"--threads", "many"}).ok());
}

TEST(BenchOverridesParse, EnvironmentWinsOverCli) {
  // Historical CI contract: FTMC_BENCH_SETS/THREADS override the CLI.
  ScopedEnv sets("FTMC_BENCH_SETS", "11");
  ScopedEnv threads("FTMC_BENCH_THREADS", "2");
  const Expected<BenchOverrides> parsed =
      parse_bench_args({"--sets", "7", "--threads", "5"});
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed->sets, 11);
  EXPECT_EQ(parsed->threads, 2);
}

TEST(BenchOverridesParse, MalformedEnvironmentIsAnErrorNotADefault) {
  ScopedEnv sets("FTMC_BENCH_SETS", "lots");
  ScopedEnv no_threads("FTMC_BENCH_THREADS", std::nullopt);
  const Expected<BenchOverrides> parsed = parse_bench_args({});
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("FTMC_BENCH_SETS"), std::string::npos);
}

}  // namespace
}  // namespace ftmc::bench
