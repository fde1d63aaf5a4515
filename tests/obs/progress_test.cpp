/// Tests of the stderr progress printer: it limits itself to one update
/// every 0.25 s and always prints the final line.
#include "ftmc/obs/progress.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

namespace ftmc::obs {
namespace {

using Clock = std::chrono::steady_clock;

Progress at(std::size_t done, std::size_t total) {
  Progress p;
  p.done = done;
  p.total = total;
  p.wall_seconds = 0.5;
  return p;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// What the "unit" printer writes for {done, 4}: the final line ends
/// with a newline.
std::string line_for(std::size_t done) {
  std::string line = "\r";
  line += format_progress("unit", at(done, 4));
  if (done == 4) line += '\n';
  return line;
}

/// How many copies of `line` make up `text` (which must hold nothing
/// else).
std::size_t copies(const std::string& text, const std::string& line) {
  std::size_t n = 0;
  while ((n + 1) * line.size() <= text.size() &&
         text.compare(n * line.size(), line.size(), line) == 0) {
    ++n;
  }
  EXPECT_EQ(n * line.size(), text.size()) << text;
  return n;
}

// The bounds below are exact unless the machine stalls for 0.25 s
// between two calls; a stall only loosens them.
TEST(StderrProgress, ThrottlesUpdatesAndAlwaysPrintsTheFinalLine) {
  const std::string update = line_for(1);
  const std::string last = line_for(4);

  // A burst of updates prints at most one per 0.25 s, counted from the
  // printer's creation; the final update is printed anyway,
  // newline-terminated.
  const Clock::time_point created = Clock::now();
  const ProgressFn print = stderr_progress("unit");
  ::testing::internal::CaptureStderr();
  for (int i = 0; i < 100; ++i) print(at(1, 4));
  const double burst = seconds_since(created);
  print(at(4, 4));
  std::string out = ::testing::internal::GetCapturedStderr();
  ASSERT_TRUE(out.ends_with(last)) << out;
  out.resize(out.size() - last.size());
  EXPECT_LE(copies(out, update), static_cast<std::size_t>(burst / 0.25));

  // Once the interval has passed, the next update is printed, without a
  // newline, and restarts the interval.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ::testing::internal::CaptureStderr();
  const Clock::time_point first = Clock::now();
  print(at(1, 4));
  print(at(1, 4));
  const double pair = seconds_since(first);
  const std::size_t printed =
      copies(::testing::internal::GetCapturedStderr(), update);
  EXPECT_GE(printed, 1u);
  EXPECT_LE(printed, pair < 0.25 ? 1u : 2u);
}

TEST(StderrProgress, FormatsCountsPercentAndEta) {
  Progress p = at(450, 1000);
  p.wall_seconds = 2.1;
  p.eta_seconds = 2.6;
  EXPECT_EQ(format_progress("label", p),
            "label 450/1000 (45%) 2.1s elapsed, eta 2.6s");
  EXPECT_EQ(format_progress("label", at(0, 0)),
            "label 0/0 (0%) 0.5s elapsed");
}

}  // namespace
}  // namespace ftmc::obs
