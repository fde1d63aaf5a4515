/// Tests of span tracing: the no-op path without a lane or with a
/// disabled recorder, lane leasing and reuse, bounded capacity with drop
/// counting, and the Chrome trace-event export (structural JSON
/// validity, balanced B/E per lane).
#include "ftmc/obs/span.hpp"

#include <gtest/gtest.h>

#include <locale>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ftmc/io/json.hpp"
#include "ftmc/obs/chrome_trace.hpp"

namespace ftmc::obs {
namespace {

/// Counts occurrences of `needle` in `text`.
std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(ScopedSpan, NoOpWithoutALane) {
  SpanRecorder recorder;
  {
    ScopedSpan span("orphan");  // no LaneGuard on this thread
  }
  EXPECT_EQ(recorder.total_events(), 0u);
  EXPECT_EQ(recorder.lane_count(), 0u);
}

TEST(ScopedSpan, RecordsIntoTheInstalledLane) {
  SpanRecorder recorder;
  {
    LaneGuard lane(recorder, "worker-0");
    { ScopedSpan span("mission"); }
    { ScopedSpan span("mission"); }
  }
  EXPECT_EQ(recorder.total_events(), 2u);
  EXPECT_EQ(recorder.lane_count(), 1u);
  EXPECT_EQ(recorder.total_dropped(), 0u);
}

TEST(ScopedSpan, DisabledRecorderGuardInstallsNothing) {
  SpanRecorder recorder;
  recorder.enable(false);
  {
    LaneGuard lane(recorder, "worker-0");
    ScopedSpan span("mission");  // records nowhere
  }
  EXPECT_EQ(recorder.total_events(), 0u);
  EXPECT_EQ(recorder.lane_count(), 0u);
}

TEST(ScopedSpan, TheGlobalRecorderStartsOff) {
  // No environment variable turns it on; only a tool's enable() does.
  SpanRecorder& global = SpanRecorder::global();
  ASSERT_FALSE(global.is_enabled());
  const std::size_t lanes = global.lane_count();
  const std::uint64_t events = global.total_events();
  {
    LaneGuard lane("main");
    ScopedSpan span("mission");
  }
  EXPECT_EQ(global.lane_count(), lanes);
  EXPECT_EQ(global.total_events(), events);
}

TEST(LaneGuard, ReenteringANameContinuesTheSameLane) {
  SpanRecorder recorder;
  {
    LaneGuard lane(recorder, "worker-0");
    ScopedSpan span("region-1");
  }
  {
    LaneGuard lane(recorder, "worker-0");  // second parallel region
    ScopedSpan span("region-2");
  }
  EXPECT_EQ(recorder.lane_count(), 1u);
  EXPECT_EQ(recorder.total_events(), 2u);
}

TEST(LaneGuard, RestoresThePreviousLaneOnExit) {
  SpanRecorder recorder;
  {
    LaneGuard outer(recorder, "outer");
    {
      LaneGuard inner(recorder, "inner");  // the thread keeps "outer"
      ScopedSpan span("in-inner");
    }
    { ScopedSpan span("back-in-outer"); }
  }
  { ScopedSpan span("no-lane"); }  // the outer guard left none installed
  EXPECT_EQ(recorder.lane_count(), 1u);
  EXPECT_EQ(recorder.total_events(), 2u);
}

TEST(LaneGuard, ConcurrentHoldersOfANameGetDistinctLanes) {
  // Two parallel regions running at once both name a worker "worker-0";
  // each must write a lane of its own.
  SpanRecorder recorder;
  LaneGuard held(recorder, "worker-0");
  { ScopedSpan span("here"); }
  std::thread other([&recorder] {
    LaneGuard lane(recorder, "worker-0");
    ScopedSpan span("there");
  });
  other.join();
  EXPECT_EQ(recorder.lane_count(), 2u);
  EXPECT_EQ(recorder.total_events(), 2u);
}

TEST(SpanRecorder, ALaneIsLeasedToOneHolderAtATime) {
  SpanRecorder recorder;
  SpanRecorder::Lane* first = recorder.acquire_lane("w");
  SpanRecorder::Lane* second = recorder.acquire_lane("w");
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(first, second);
  recorder.release_lane(first);
  EXPECT_EQ(recorder.acquire_lane("w"), first);  // reused once released
  EXPECT_EQ(recorder.lane_count(), 2u);
}

TEST(SpanRecorder, CapacityBoundsLanesAndCountsDrops) {
  SpanRecorder recorder(/*capacity_per_lane=*/4);
  {
    LaneGuard lane(recorder, "tiny");
    for (int i = 0; i < 10; ++i) {
      ScopedSpan span("s");
    }
  }
  EXPECT_EQ(recorder.total_events(), 4u);
  EXPECT_EQ(recorder.total_dropped(), 6u);
}

TEST(SpanRecorder, ConcurrentLanesRecordIndependently) {
  SpanRecorder recorder;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 100;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&recorder, t] {
      LaneGuard lane(recorder, "worker-" + std::to_string(t));
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan span("mission");
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(recorder.lane_count(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(recorder.total_events(),
            static_cast<std::uint64_t>(kThreads) * kSpansPerThread);
}

TEST(ChromeExport, BalancedBeginEndPerLane) {
  SpanRecorder recorder;
  {
    LaneGuard lane(recorder, "worker-0");
    for (int i = 0; i < 3; ++i) {
      ScopedSpan span("mission");
    }
  }
  {
    LaneGuard lane(recorder, "worker-1");
    ScopedSpan span("mission");
  }

  std::vector<std::string> events;
  recorder.append_chrome_events(events, /*pid=*/7, "test process");

  // Track B/E nesting per (pid, tid) by scanning the rendered objects.
  std::map<std::pair<int, int>, int> depth;
  int begins = 0;
  int ends = 0;
  for (const std::string& e : events) {
    const bool is_begin = e.find("\"ph\":\"B\"") != std::string::npos;
    const bool is_end = e.find("\"ph\":\"E\"") != std::string::npos;
    if (!is_begin && !is_end) continue;
    const auto pid_pos = e.find("\"pid\":");
    const auto tid_pos = e.find("\"tid\":");
    ASSERT_NE(pid_pos, std::string::npos);
    ASSERT_NE(tid_pos, std::string::npos);
    const int pid = std::stoi(e.substr(pid_pos + 6));
    const int tid = std::stoi(e.substr(tid_pos + 6));
    EXPECT_EQ(pid, 7);
    int& d = depth[{pid, tid}];
    if (is_begin) {
      ++d;
      ++begins;
    } else {
      --d;
      ++ends;
      ASSERT_GE(d, 0) << "E without matching B on tid " << tid;
    }
  }
  EXPECT_EQ(begins, 4);
  EXPECT_EQ(ends, 4);
  for (const auto& [lane, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced lane tid " << lane.second;
  }
}

TEST(ChromeExport, DocumentIsStructurallyValidJson) {
  SpanRecorder recorder;
  {
    LaneGuard lane(recorder, R"(we"ird\lane)");  // must be escaped
    ScopedSpan span("mission");
  }
  std::ostringstream os;
  recorder.write_chrome_trace(os, /*pid=*/1);
  const std::string doc = os.str();

  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  // Brace/bracket balance outside of strings.
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const char ch = doc[i];
    if (in_string) {
      if (ch == '\\') {
        ++i;  // skip the escaped character
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    switch (ch) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
  // One thread-name metadata record and one B/E pair.
  EXPECT_EQ(count_occurrences(doc, "thread_name"), 1u);
  EXPECT_EQ(count_occurrences(doc, "\"ph\":\"B\""), 1u);
  EXPECT_EQ(count_occurrences(doc, "\"ph\":\"E\""), 1u);
}

TEST(ChromeHelpers, EscapeHandlesQuotesBackslashesAndControls) {
  // Event names go through the shared JSON escaper (json_text).
  EXPECT_EQ(chrome::thread_name(1, 2, "plain"),
            R"({"name":"thread_name","ph":"M","pid":1,"tid":2,)"
            R"("args":{"name":"plain"}})");
  EXPECT_EQ(chrome::process_name(3, std::string_view("a\"b\\c\nd\x01", 8)),
            R"({"name":"process_name","ph":"M","pid":3,"tid":0,)"
            R"("args":{"name":"a\"b\\c\nd\u0001"}})");
  EXPECT_EQ(chrome::instant("q\"", 1, 1, 2.5),
            R"({"name":"q\"","cat":"ftmc","ph":"i","s":"t","pid":1,"tid":1,)"
            R"("ts":2.5})");
}

/// A decimal-comma, dot-grouping numpunct facet: no installed locale is
/// needed to build a global locale that formats 1234.5 as "1.234,5".
struct DecimalComma : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

TEST(ChromeHelpers, TimestampsIgnoreTheGlobalLocale) {
  const std::locale previous = std::locale::global(
      std::locale(std::locale::classic(), new DecimalComma));
  const std::string begin = chrome::duration_begin("span", 1, 2, 1234.5);
  const std::string end = chrome::duration_end(1, 2, 98765.4321);
  std::locale::global(previous);
  EXPECT_EQ(io::json::parse(begin).at("ts").as_number(), 1234.5) << begin;
  EXPECT_EQ(io::json::parse(end).at("ts").as_number(), 98765.4321) << end;
  EXPECT_EQ(end, R"({"ph":"E","pid":1,"tid":2,"ts":98765.4321})");
}

TEST(SpanRecorder, LaneLimitDegradesToDroppingNotFailing) {
  SpanRecorder recorder(/*capacity_per_lane=*/8, /*max_lanes=*/2);
  EXPECT_NE(recorder.acquire_lane("a"), nullptr);
  EXPECT_NE(recorder.acquire_lane("b"), nullptr);
  EXPECT_EQ(recorder.acquire_lane("c"), nullptr);
  // Spans on the rejected lane are silent no-ops.
  LaneGuard lane(recorder, "c");
  ScopedSpan span("mission");
  EXPECT_EQ(recorder.lane_count(), 2u);
}

}  // namespace
}  // namespace ftmc::obs
