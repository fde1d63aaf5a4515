#include "ftmc/exec/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ftmc/obs/registry.hpp"

namespace ftmc::exec {
namespace {

ParallelOptions with_threads(int threads) {
  ParallelOptions opt;
  opt.threads = threads;
  return opt;
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 7}) {
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(hits.size(), with_threads(threads),
                 [&](std::size_t begin, std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i) {
                     hits[i].fetch_add(1);
                   }
                 });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
  bool called = false;
  parallel_for(0, with_threads(4),
               [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesBodyException) {
  EXPECT_THROW(
      parallel_for(256, with_threads(4),
                   [](std::size_t begin, std::size_t) {
                     if (begin >= 128) {
                       throw std::runtime_error("boom");
                     }
                   }),
      std::runtime_error);
  // The failed region must leave no stuck threads behind: a fresh region
  // still works.
  std::atomic<int> n{0};
  parallel_for(64, with_threads(4),
               [&](std::size_t begin, std::size_t end) {
                 n.fetch_add(static_cast<int>(end - begin));
               });
  EXPECT_EQ(n.load(), 64);
}

TEST(ParallelFor, SerialPathPropagatesException) {
  EXPECT_THROW(parallel_for(8, with_threads(1),
                            [](std::size_t, std::size_t) {
                              throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ParallelFor, RecordsRunStats) {
  obs::Registry& registry = obs::Registry::global();
  const bool was_enabled = registry.is_enabled();
  const obs::Counter items = registry.counter("exec.unit.items");
  const obs::Counter chunks = registry.counter("exec.unit.chunks");
  const obs::Counter regions = registry.counter("exec.unit.regions");
  const obs::Gauge wall = registry.gauge("exec.unit.wall_seconds");
  const obs::Gauge threads = registry.gauge("exec.unit.threads");
  const std::uint64_t items0 = items.value();
  const std::uint64_t chunks0 = chunks.value();
  const std::uint64_t regions0 = regions.value();

  ParallelOptions opt;
  opt.threads = 2;
  opt.chunk_size = 10;
  opt.phase = "unit";
  registry.enable(false);  // a disabled registry records nothing
  parallel_for(95, opt, [](std::size_t, std::size_t) {});
  EXPECT_EQ(items.value(), items0);
  registry.enable(true);
  parallel_for(95, opt, [](std::size_t, std::size_t) {});
  const std::string summary = phase_summary(registry);
  registry.enable(was_enabled);

  EXPECT_EQ(items.value() - items0, 95u);
  EXPECT_EQ(chunks.value() - chunks0, 10u);  // ceil(95 / 10)
  EXPECT_EQ(regions.value() - regions0, 1u);
  EXPECT_EQ(threads.value(), 2.0);
  EXPECT_GE(wall.value(), 0.0);
  EXPECT_NE(summary.find("unit: "), std::string::npos) << summary;
  EXPECT_NE(summary.find(" chunks / "), std::string::npos) << summary;
  EXPECT_EQ(summary.find("absent"), std::string::npos) << summary;
}

TEST(ParallelMapReduce, MatchesSerialSumExactly) {
  // Non-associative double accumulation: the parallel fold must be
  // bit-identical to the threads = 1 fold (same chunk tree, merge in
  // chunk order).
  const auto map = [](std::size_t i) {
    return std::sin(static_cast<double>(i)) * 1e-3 + 1.0 / (1.0 + i);
  };
  const auto merge = [](double& into, double&& from) { into += from; };
  const double serial =
      parallel_map_reduce<double>(10'000, with_threads(1), map, merge);
  for (const int threads : {2, 3, 8}) {
    const double parallel =
        parallel_map_reduce<double>(10'000, with_threads(threads), map,
                                    merge);
    EXPECT_EQ(serial, parallel) << "threads = " << threads;
  }
}

TEST(ParallelMapReduce, EmptyRangeReturnsDefault) {
  const auto r = parallel_map_reduce<int>(
      0, with_threads(4), [](std::size_t) { return 1; },
      [](int& a, int&& b) { a += b; });
  EXPECT_EQ(r, 0);
}

TEST(ParallelMapReduce, SingleItem) {
  const auto r = parallel_map_reduce<int>(
      1, with_threads(8), [](std::size_t i) { return static_cast<int>(i) + 41; },
      [](int& a, int&& b) { a += b; });
  EXPECT_EQ(r, 41);
}

TEST(ParallelOptionsTest, ResolveHelpers) {
  EXPECT_GE(resolve_threads(0), 1);
  EXPECT_GE(resolve_threads(-5), 1);
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_EQ(resolve_chunk(0), 16u);
  EXPECT_EQ(resolve_chunk(5), 5u);
}

}  // namespace
}  // namespace ftmc::exec
