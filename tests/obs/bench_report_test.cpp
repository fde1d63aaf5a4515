/// Tests of the BENCH_<name>.json writer: key order and value types,
/// notes of every kind, the measured rate, where FTMC_BENCH_DIR puts
/// the file, and that a failed write is reported rather than thrown.
#include "ftmc/obs/bench_report.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ftmc/io/json.hpp"
#include "ftmc/obs/registry.hpp"

namespace ftmc::obs {
namespace {

namespace fs = std::filesystem;
using Kind = io::json::Value::Kind;

/// Scoped environment override (unset when `value` is nullopt).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, std::optional<std::string> value)
      : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
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

/// A fresh directory for the reports; the global registry's enabled
/// state (the report constructor enables it) is restored afterwards.
class BenchReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("ftmc_bench_report_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    was_enabled_ = Registry::global().is_enabled();
  }
  void TearDown() override {
    Registry::global().enable(was_enabled_);
    fs::remove_all(dir_);
  }

  /// Writes `report` into dir_ and parses it back.
  [[nodiscard]] io::json::Value written(BenchReport& report,
                                        const std::string& name) {
    report.write();
    std::ifstream in(dir_ / ("BENCH_" + name + ".json"));
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_FALSE(text.str().empty());
    EXPECT_EQ(text.str().back(), '\n');
    return io::json::parse(text.str());
  }

  [[nodiscard]] static std::vector<std::string> keys(
      const io::json::Value& object) {
    std::vector<std::string> out;
    for (const auto& field : object.fields()) out.push_back(field.first);
    return out;
  }

  fs::path dir_;
  bool was_enabled_ = false;
};

const char* const kArgv[] = {"unit_bench", "--flag", "a \"quoted\" value"};

TEST_F(BenchReportTest, KeyOrderAndValueTypes) {
  const ScopedEnv env("FTMC_BENCH_DIR", dir_.string());
  Registry::global().enable(false);
  BenchReport report("unit", 3, kArgv);
  EXPECT_TRUE(Registry::global().is_enabled());
  report.set_items(12, "things");
  report.note_number("count", 7);
  report.note_string("label", "tab\there");
  report.note_bool("complete", true);
  const io::json::Value doc = written(report, "unit");

  EXPECT_EQ(keys(doc),
            (std::vector<std::string>{"name", "argv", "hardware_threads",
                                      "wall_seconds", "items", "items_unit",
                                      "items_per_sec", "notes", "metrics"}));
  EXPECT_EQ(doc.at("name").as_string(), "unit");
  ASSERT_EQ(doc.at("argv").kind(), Kind::kArray);
  ASSERT_EQ(doc.at("argv").items().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(doc.at("argv").items()[i].as_string(), kArgv[i]);
  }
  EXPECT_EQ(doc.at("hardware_threads").kind(), Kind::kNumber);
  EXPECT_GE(doc.at("wall_seconds").as_number(), 0.0);
  EXPECT_EQ(doc.at("items").as_number(), 12.0);
  EXPECT_EQ(doc.at("items_unit").as_string(), "things");
  EXPECT_GT(doc.at("items_per_sec").as_number(), 0.0);

  const io::json::Value& notes = doc.at("notes");
  EXPECT_EQ(keys(notes),
            (std::vector<std::string>{"count", "label", "complete"}));
  EXPECT_EQ(notes.at("count").kind(), Kind::kNumber);
  EXPECT_EQ(notes.at("count").as_number(), 7.0);
  EXPECT_EQ(notes.at("label").as_string(), "tab\there");
  EXPECT_EQ(notes.at("complete").kind(), Kind::kBool);
  EXPECT_TRUE(notes.at("complete").as_bool());

  EXPECT_EQ(keys(doc.at("metrics")),
            (std::vector<std::string>{"counters", "gauges", "histograms"}));
  // Written atomically: the staging file is gone.
  EXPECT_FALSE(fs::exists(dir_ / "BENCH_unit.json.tmp"));
}

TEST_F(BenchReportTest, MeasuredItemsRateUsesTheMeasuredWindow) {
  const ScopedEnv env("FTMC_BENCH_DIR", dir_.string());
  BenchReport report("measured", 1, kArgv);
  report.set_items_measured(50, 2.0, "jobs");
  const io::json::Value doc = written(report, "measured");

  EXPECT_EQ(keys(doc),
            (std::vector<std::string>{"name", "argv", "hardware_threads",
                                      "wall_seconds", "items", "items_unit",
                                      "measured_seconds", "items_per_sec",
                                      "metrics"}));
  EXPECT_EQ(doc.at("measured_seconds").as_number(), 2.0);
  EXPECT_EQ(doc.at("items_per_sec").as_number(), 25.0);
  EXPECT_EQ(doc.at("items_unit").as_string(), "jobs");
}

TEST_F(BenchReportTest, WithoutItemsOrNotesOnlyTheRunIsReported) {
  const ScopedEnv env("FTMC_BENCH_DIR", dir_.string());
  BenchReport report("bare", 1, kArgv);
  const io::json::Value doc = written(report, "bare");
  EXPECT_EQ(keys(doc),
            (std::vector<std::string>{"name", "argv", "hardware_threads",
                                      "wall_seconds", "metrics"}));
}

TEST_F(BenchReportTest, PathFollowsFtmcBenchDir) {
  {
    const ScopedEnv env("FTMC_BENCH_DIR", dir_.string());
    const BenchReport report("where", 1, kArgv);
    EXPECT_EQ(report.path(), dir_.string() + "/BENCH_where.json");
  }
  {
    const ScopedEnv env("FTMC_BENCH_DIR", std::string());
    BenchReport report("where", 1, kArgv);
    EXPECT_EQ(report.path(), "./BENCH_where.json");
    ::testing::internal::CaptureStderr();
    report.write();  // into the working directory
    (void)::testing::internal::GetCapturedStderr();
    EXPECT_TRUE(fs::exists("BENCH_where.json"));
    fs::remove("BENCH_where.json");
  }
  {
    const ScopedEnv env("FTMC_BENCH_DIR", std::nullopt);
    const BenchReport report("where", 1, kArgv);
    EXPECT_EQ(report.path(), "./BENCH_where.json");
  }
}

TEST_F(BenchReportTest, TheDestructorWritesOnceAndFailuresAreReported) {
  {
    const ScopedEnv env("FTMC_BENCH_DIR", dir_.string());
    const BenchReport report("scoped", 1, kArgv);
  }
  EXPECT_TRUE(fs::exists(dir_ / "BENCH_scoped.json"));

  const ScopedEnv env("FTMC_BENCH_DIR", (dir_ / "no" / "such").string());
  BenchReport report("lost", 1, kArgv);
  ::testing::internal::CaptureStderr();
  EXPECT_NO_THROW(report.write());
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.rfind("BenchReport: ", 0), 0u) << err;
}

}  // namespace
}  // namespace ftmc::obs
