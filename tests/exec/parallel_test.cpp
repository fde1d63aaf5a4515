#include "ftmc/exec/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ftmc/io/json.hpp"
#include "ftmc/obs/registry.hpp"
#include "ftmc/obs/span.hpp"

namespace ftmc::exec {
namespace {

ParallelOptions with_threads(int threads) {
  ParallelOptions opt;
  opt.threads = threads;
  return opt;
}

/// Turns the global span recorder on for one scope.
class Tracing {
 public:
  Tracing() : was_enabled_(obs::SpanRecorder::global().is_enabled()) {
    obs::SpanRecorder::global().enable();
  }
  ~Tracing() { obs::SpanRecorder::global().enable(was_enabled_); }
  Tracing(const Tracing&) = delete;
  Tracing& operator=(const Tracing&) = delete;

 private:
  bool was_enabled_;
};

/// One span of the global recorder: its lane and the span enclosing it
/// on that lane ("" at the top).
struct RecordedSpan {
  double tid = 0;
  std::string lane;
  std::string parent;
};

/// The global recorder's spans named `name`, read back from its Chrome
/// trace, which rebuilds each lane's nesting.
std::vector<RecordedSpan> recorded(const std::string& name) {
  const io::json::Value doc =
      io::json::parse(obs::SpanRecorder::global().chrome_trace_json());
  std::map<double, std::string> lanes;              // tid -> lane name
  std::map<double, std::vector<std::string>> open;  // tid -> open spans
  std::vector<RecordedSpan> out;
  for (const io::json::Value& event : doc.at("traceEvents").items()) {
    const std::string phase = event.at("ph").as_string();
    const double tid = event.at("tid").as_number();
    if (phase == "M" && event.at("name").as_string() == "thread_name") {
      lanes[tid] = event.at("args").at("name").as_string();
    } else if (phase == "B") {
      std::vector<std::string>& stack = open[tid];
      if (event.at("name").as_string() == name) {
        out.push_back({tid, lanes[tid], stack.empty() ? "" : stack.back()});
      }
      stack.push_back(event.at("name").as_string());
    } else if (phase == "E") {
      open[tid].pop_back();
    }
  }
  return out;
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

TEST(ParallelFor, RecordsNoSpansWhileTracingIsOff) {
  const obs::SpanRecorder& spans = obs::SpanRecorder::global();
  ASSERT_FALSE(spans.is_enabled());
  const std::size_t lanes = spans.lane_count();
  const std::uint64_t events = spans.total_events();
  parallel_for(64, with_threads(4), [](std::size_t, std::size_t) {
    obs::ScopedSpan span("unit.item");
  });
  EXPECT_EQ(spans.lane_count(), lanes);  // not even a lane is allocated
  EXPECT_EQ(spans.total_events(), events);
}

TEST(ParallelFor, TracingRecordsChunkSpansWithLibrarySpansInside) {
  ParallelOptions opt;
  opt.threads = 3;
  opt.chunk_size = 4;
  opt.phase = "unit.chunk";
  {
    Tracing tracing;
    parallel_for(40, opt, [](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        obs::ScopedSpan span("unit.item");
      }
    });
  }
  const std::vector<RecordedSpan> chunks = recorded("unit.chunk");
  const std::vector<RecordedSpan> items = recorded("unit.item");
  EXPECT_EQ(chunks.size(), 10u);
  ASSERT_EQ(items.size(), 40u);
  for (const RecordedSpan& item : items) {
    EXPECT_EQ(item.parent, "unit.chunk") << "on lane " << item.lane;
  }
  for (const RecordedSpan& chunk : chunks) {
    EXPECT_TRUE(chunk.lane == "main" || chunk.lane.starts_with("worker-"))
        << chunk.lane;
  }
}

TEST(ParallelFor, ACallerThatHoldsALaneKeepsIt) {
  // A server thread runs its analyze region on the lane of its request:
  // the region's chunks land there, never on a shared "main".
  {
    Tracing tracing;
    obs::LaneGuard lane("unit-caller");
    ParallelOptions opt = with_threads(1);
    opt.chunk_size = 1;
    opt.phase = "unit.kept";
    parallel_for(5, opt, [](std::size_t, std::size_t) {});
    opt.threads = 2;
    opt.phase = "unit.kept-2";
    parallel_for(5, opt, [](std::size_t, std::size_t) {});
  }
  const std::vector<RecordedSpan> serial = recorded("unit.kept");
  ASSERT_EQ(serial.size(), 5u);
  for (const RecordedSpan& chunk : serial) {
    EXPECT_EQ(chunk.lane, "unit-caller");
  }
  const std::vector<RecordedSpan> pooled = recorded("unit.kept-2");
  ASSERT_EQ(pooled.size(), 5u);
  for (const RecordedSpan& chunk : pooled) {
    EXPECT_TRUE(chunk.lane == "unit-caller" || chunk.lane == "worker-0")
        << chunk.lane;
  }
}

TEST(ParallelFor, ConcurrentRegionsRecordOnDistinctLanes) {
  // Two regions of two threads each, with all four chunk bodies held open
  // together: four threads write spans at once, so they need four lanes
  // although both regions name theirs "main" and "worker-0".
  ParallelOptions opt = with_threads(2);
  opt.chunk_size = 1;
  opt.phase = "unit.concurrent";
  std::atomic<int> running{0};
  const auto region = [&] {
    parallel_for(2, opt, [&running](std::size_t, std::size_t) {
      running.fetch_add(1);
      while (running.load() < 4) std::this_thread::yield();
    });
  };
  {
    Tracing tracing;
    std::thread a(region);
    std::thread b(region);
    a.join();
    b.join();
  }
  const std::vector<RecordedSpan> chunks = recorded("unit.concurrent");
  ASSERT_EQ(chunks.size(), 4u);
  std::set<double> lanes;
  for (const RecordedSpan& chunk : chunks) lanes.insert(chunk.tid);
  EXPECT_EQ(lanes.size(), 4u);
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
