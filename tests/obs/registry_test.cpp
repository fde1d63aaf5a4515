/// Tests of the metrics registry: counter/gauge/histogram semantics,
/// bucket placement and quantile interpolation, concurrent == serial
/// totals, the disabled no-op path, and the JSON snapshot shape.
#include "ftmc/obs/registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <locale>
#include <string>
#include <thread>
#include <vector>

namespace ftmc::obs {
namespace {

TEST(Counter, AccumulatesAndSnapshotsInRegistrationOrder) {
  Registry reg;
  Counter a = reg.counter("test.a");
  Counter b = reg.counter("test.b");
  a.inc();
  a.inc(4);
  b.inc(2);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 2u);

  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "test.a");
  EXPECT_EQ(snap.counters[0].second, 5u);
  EXPECT_EQ(snap.counters[1].first, "test.b");
  EXPECT_EQ(snap.counters[1].second, 2u);
}

TEST(Counter, SameNameSharesTheCell) {
  Registry reg;
  Counter a = reg.counter("test.shared");
  Counter b = reg.counter("test.shared");
  a.inc();
  b.inc();
  EXPECT_EQ(a.value(), 2u);
  EXPECT_EQ(reg.snapshot().counters.size(), 1u);
}

TEST(Counter, DefaultConstructedHandleIsInert) {
  Counter c;
  c.inc();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentIncrementsEqualSerialTotal) {
  Registry reg;
  Counter c = reg.counter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      Counter mine = reg.counter("test.concurrent");
      for (std::uint64_t i = 0; i < kPerThread; ++i) mine.inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Gauge, SetAddAndMax) {
  Registry reg;
  Gauge g = reg.gauge("test.gauge");
  g.set(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.5);
  g.set_max(2.0);  // lower: no change
  EXPECT_DOUBLE_EQ(g.value(), 4.5);
  g.set_max(10.0);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
}

TEST(Gauge, ConcurrentAddsEqualSerialTotal) {
  Registry reg;
  Gauge g = reg.gauge("test.gauge.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      Gauge mine = reg.gauge("test.gauge.concurrent");
      for (int i = 0; i < kPerThread; ++i) mine.add(1.0);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_DOUBLE_EQ(g.value(), kThreads * kPerThread);
}

TEST(Histogram, BucketPlacement) {
  Registry reg;
  Histogram h = reg.histogram("test.hist", {1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(1.0);    // bucket 0 (upper bound inclusive)
  h.observe(5.0);    // bucket 1
  h.observe(100.0);  // bucket 2
  h.observe(1e9);    // overflow bucket

  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSnapshot& hs = snap.histograms[0];
  ASSERT_EQ(hs.bounds.size(), 3u);
  ASSERT_EQ(hs.counts.size(), 4u);
  EXPECT_EQ(hs.counts[0], 2u);
  EXPECT_EQ(hs.counts[1], 1u);
  EXPECT_EQ(hs.counts[2], 1u);
  EXPECT_EQ(hs.counts[3], 1u);
  EXPECT_EQ(hs.count, 5u);
  EXPECT_DOUBLE_EQ(hs.sum, 0.5 + 1.0 + 5.0 + 100.0 + 1e9);
}

TEST(Histogram, QuantileInterpolatesInsideBucket) {
  Registry reg;
  Histogram h = reg.histogram("test.quantile", {10.0, 20.0});
  // 10 values in (0,10], 10 in (10,20]: the median sits at the boundary.
  for (int i = 0; i < 10; ++i) h.observe(5.0);
  for (int i = 0; i < 10; ++i) h.observe(15.0);

  const HistogramSnapshot hs = reg.snapshot().histograms[0];
  // q=0.5 -> rank 10 == the full first bucket -> its upper edge.
  EXPECT_DOUBLE_EQ(hs.quantile(0.5), 10.0);
  // q=0.75 -> rank 15, halfway through (10,20] -> 15 by interpolation.
  EXPECT_DOUBLE_EQ(hs.quantile(0.75), 15.0);
  // q=0.25 -> rank 5, halfway through (0,10].
  EXPECT_DOUBLE_EQ(hs.quantile(0.25), 5.0);
  EXPECT_DOUBLE_EQ(hs.mean(), 10.0);
}

TEST(Histogram, QuantileEdgeCases) {
  Registry reg;
  Histogram empty = reg.histogram("test.empty", {1.0});
  EXPECT_DOUBLE_EQ(reg.snapshot().histograms[0].quantile(0.5), 0.0);

  Histogram over = reg.histogram("test.overflow", {1.0});
  over.observe(50.0);  // only the overflow bucket is occupied
  const HistogramSnapshot hs = reg.snapshot().histograms[1];
  // The overflow bucket has no finite upper edge: report its lower edge.
  EXPECT_DOUBLE_EQ(hs.quantile(0.99), 1.0);
}

TEST(Histogram, QuantileExtremeRanksAndDegenerateBuckets) {
  // Built directly (the fields are public) so the bucket occupancy is
  // exact rather than a side effect of observe() rounding.
  HistogramSnapshot hs;
  hs.bounds = {10.0, 20.0, 30.0};
  hs.counts = {0, 4, 4, 0};  // zero-count first bucket, empty overflow
  hs.count = 8;
  hs.sum = 8.0 * 20.0;

  // q=0 asks for rank 0, which lands in the empty first bucket:
  // interpolation there must not divide by zero and reports the
  // bucket's upper edge.
  EXPECT_DOUBLE_EQ(hs.quantile(0.0), 10.0);
  // q=1 asks for the full count; all mass fits under the last finite
  // bound, so the answer is that bound, not the overflow edge.
  EXPECT_DOUBLE_EQ(hs.quantile(1.0), 30.0);
  // Rank 4 is the full (10,20] bucket: its upper edge.
  EXPECT_DOUBLE_EQ(hs.quantile(0.5), 20.0);

  // All mass in the overflow bucket: every quantile reports the last
  // finite bound (the overflow bucket's lower edge).
  HistogramSnapshot over;
  over.bounds = {1.0, 2.0};
  over.counts = {0, 0, 7};
  over.count = 7;
  over.sum = 700.0;
  EXPECT_DOUBLE_EQ(over.quantile(0.01), 2.0);
  EXPECT_DOUBLE_EQ(over.quantile(1.0), 2.0);
}

TEST(Histogram, QuantileWithNegativeBoundsInterpolatesFromTheBound) {
  // A first bucket with a negative upper bound: the implicit lower edge
  // is min(0, bounds[0]) = bounds[0] itself, so the whole first bucket
  // collapses to its bound instead of interpolating up from zero (which
  // would produce values *above* the bucket's range).
  HistogramSnapshot hs;
  hs.bounds = {-10.0, 0.0, 10.0};
  hs.counts = {2, 2, 2, 0};
  hs.count = 6;
  hs.sum = 0.0;
  // The first bucket's range is [-10, -10]: every rank inside it is the
  // bound itself.
  EXPECT_DOUBLE_EQ(hs.quantile(0.25), -10.0);
  // Rank 3 is halfway through the (-10, 0] bucket.
  EXPECT_DOUBLE_EQ(hs.quantile(0.5), -5.0);
  EXPECT_DOUBLE_EQ(hs.quantile(1.0), 10.0);
}

TEST(Histogram, ConcurrentObservationsEqualSerialTotal) {
  Registry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      Histogram mine = reg.histogram("test.hist.concurrent", {10.0});
      for (int i = 0; i < kPerThread; ++i) mine.observe(1.0);
    });
  }
  for (auto& w : workers) w.join();
  const HistogramSnapshot hs = reg.snapshot().histograms[0];
  EXPECT_EQ(hs.count, kThreads * kPerThread);
  EXPECT_EQ(hs.counts[0], kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(hs.sum, kThreads * kPerThread);
}

TEST(Registry, DisabledRegistryIsANoOp) {
  Registry reg(/*enabled=*/false);
  Counter c = reg.counter("test.off.counter");
  Gauge g = reg.gauge("test.off.gauge");
  Histogram h = reg.histogram("test.off.hist");
  c.inc(100);
  g.set(5.0);
  g.add(5.0);
  g.set_max(5.0);
  h.observe(42.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(reg.snapshot().histograms[0].count, 0u);

  // Re-enabling makes the same handles live again.
  reg.enable();
  c.inc();
  EXPECT_EQ(c.value(), 1u);
  reg.enable(false);
  c.inc();
  EXPECT_EQ(c.value(), 1u);
}

TEST(Registry, SnapshotJsonHasTheDocumentedShape) {
  Registry reg;
  Counter c = reg.counter("test.json.counter");
  c.inc(3);
  Gauge g = reg.gauge("test.json.gauge");
  g.set(1.5);
  Histogram h = reg.histogram("test.json.hist", {1.0, 2.0});
  h.observe(0.5);

  const std::string json = reg.snapshot_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);
  // Structural sanity: braces balance.
  int depth = 0;
  for (char ch : json) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

/// Digit grouping and a decimal comma, as a host locale might install
/// them with std::locale::global; a default stream would then print
/// 1234567 as "1.234.567".
struct GroupingDecimalComma : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

TEST(Registry, SnapshotJsonIsPinnedByteForByte) {
  // Every value kind the renderer handles: escaped names, integer
  // counters at both ends of their range, 17-digit doubles, NaN /
  // infinities, an empty histogram; the same bytes under a grouping,
  // decimal-comma global locale.
  Snapshot snap;
  snap.counters = {{"serve.requests_total", 1234567},
                   {"a\"b\\c\n\x01", 0},
                   {"max", UINT64_MAX}};
  snap.gauges = {{"g.tenth", 0.1},
                 {"g.nan", std::nan("")},
                 {"g.inf", std::numeric_limits<double>::infinity()},
                 {"g.tiny", -2.5e-300},
                 {"g.big", 1e21},
                 {"g.int", 42.0}};
  HistogramSnapshot h;
  h.name = "lat_us";
  h.bounds = {100.0, 400.5, 1e6};
  h.counts = {1, 2, 0, 3};
  h.count = 6;
  h.sum = 12345.678;
  snap.histograms.push_back(h);
  HistogramSnapshot& empty = snap.histograms.emplace_back();
  empty.name = "empty";
  empty.bounds = {1.0};
  empty.counts = {0, 0};
  const std::string golden =
      R"({"counters":{"serve.requests_total":1234567,"a\"b\\c\n\u0001":0,)"
      R"("max":18446744073709551615},"gauges":{"g.tenth":0.10000000000000001,)"
      R"("g.nan":null,"g.inf":"inf","g.tiny":-2.5e-300,"g.big":1e+21,)"
      R"("g.int":42},"histograms":{"lat_us":{"count":6,"sum":12345.678,)"
      R"("mean":2057.6129999999998,"p50":400.5,"p95":1000000,"p99":1000000,)"
      R"("bounds":[100,400.5,1000000],"counts":[1,2,0,3]},"empty":{"count":0,)"
      R"("sum":0,"mean":0,"p50":0,"p95":0,"p99":0,"bounds":[1],)"
      R"("counts":[0,0]}}})";
  EXPECT_EQ(snap.to_json(), golden);
  const std::locale previous = std::locale::global(
      std::locale(std::locale::classic(), new GroupingDecimalComma));
  const std::string localized = snap.to_json();
  std::locale::global(previous);
  EXPECT_EQ(localized, golden);
}

TEST(Buckets, ExponentialAndLinear) {
  const auto exp = exponential_buckets(100.0, 4.0, 3);
  ASSERT_EQ(exp.size(), 3u);
  EXPECT_DOUBLE_EQ(exp[0], 100.0);
  EXPECT_DOUBLE_EQ(exp[1], 400.0);
  EXPECT_DOUBLE_EQ(exp[2], 1600.0);

  const auto lin = linear_buckets(10.0, 5.0, 3);
  ASSERT_EQ(lin.size(), 3u);
  EXPECT_DOUBLE_EQ(lin[0], 10.0);
  EXPECT_DOUBLE_EQ(lin[1], 15.0);
  EXPECT_DOUBLE_EQ(lin[2], 20.0);
}

TEST(Registry, GlobalStartsDisabledWithoutEnv) {
  // The test binary does not set FTMC_OBS, so global() must be disabled:
  // library-internal counters stay no-ops unless a bench opts in.
  if (std::getenv("FTMC_OBS") != nullptr) {
    GTEST_SKIP() << "FTMC_OBS set in the environment";
  }
  EXPECT_FALSE(Registry::global().is_enabled());
}

}  // namespace
}  // namespace ftmc::obs
