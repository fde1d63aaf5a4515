/// \file span.hpp
/// \brief Span tracing: RAII timers recording into per-thread bounded
///        lanes, exported as Chrome trace-event JSON.
///
/// Library code records into one process-wide recorder,
/// SpanRecorder::global(), which stays off until a tool enables it
/// (`--trace-out`); no environment variable turns it on. Usage pattern
/// (mirrors how the exec runtime and the tools wire it):
///
///   obs::SpanRecorder::global().enable();  // a tool, before the run
///   // on each worker thread:
///   obs::LaneGuard lane("worker-3");        // leases a lane
///   {
///     obs::ScopedSpan span("mission");      // times this scope
///     ...
///   }
///   obs::SpanRecorder::global().write_chrome_trace(file);  // Perfetto
///
/// ScopedSpan with no lane installed (no LaneGuard on this thread, or a
/// disabled recorder) is a no-op: one thread-local read and a branch.
/// Lanes are bounded; spans beyond the capacity are dropped and counted,
/// never reallocated — the hot path stays allocation-free after lane
/// creation. Tests construct recorders of their own (enabled).
///
/// Span names must outlive the recorder (string literals in practice).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ftmc::obs {

/// One completed span: [begin_ns, end_ns) relative to the recorder epoch.
struct SpanEvent {
  const char* name = nullptr;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
};

class SpanRecorder {
 public:
  /// A per-thread event buffer. Single writer (the thread holding its
  /// lease); exported after the writing threads have joined.
  struct Lane {
    Lane(std::string lane_name, std::size_t capacity)
        : name(std::move(lane_name)), events(capacity) {}
    std::string name;
    std::vector<SpanEvent> events;     ///< fixed capacity, never grows
    std::atomic<std::size_t> count{0}; ///< committed events
    std::atomic<std::uint64_t> dropped{0};
    bool held = false;  ///< leased to a thread (guarded by the mutex)
  };

  explicit SpanRecorder(std::size_t capacity_per_lane = 1 << 14,
                        std::size_t max_lanes = 256);

  /// The process-wide recorder library spans land in (parallel regions,
  /// campaign cells, serve requests). Starts disabled.
  [[nodiscard]] static SpanRecorder& global();

  /// While disabled, LaneGuards on this recorder install nothing.
  void enable(bool on = true) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool is_enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Leases a free lane named `name` — the first one released earlier,
  /// else a new one (nullptr once max_lanes is reached: tracing then
  /// degrades to dropping, never failing). Re-entering "worker-0" in a
  /// later parallel region continues the same timeline lane, while two
  /// regions running at once get distinct lanes of that name: one lane
  /// never has two writers.
  [[nodiscard]] Lane* acquire_lane(std::string_view name);
  /// Returns a lane from acquire_lane to the free pool.
  void release_lane(Lane* lane);

  /// Nanoseconds since the recorder was constructed.
  [[nodiscard]] std::uint64_t now_ns() const noexcept;

  /// Appends this recorder's lanes as Chrome trace events under `pid`
  /// (thread-name metadata plus balanced B/E pairs per lane).
  void append_chrome_events(std::vector<std::string>& out, int pid = 1,
                            const std::string& process = "ftmc") const;
  [[nodiscard]] std::string chrome_trace_json(int pid = 1) const;
  void write_chrome_trace(std::ostream& os, int pid = 1) const;

  [[nodiscard]] std::size_t lane_count() const;
  [[nodiscard]] std::uint64_t total_events() const;
  [[nodiscard]] std::uint64_t total_dropped() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::size_t capacity_;
  std::size_t max_lanes_;
  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;
  std::deque<Lane> lanes_;  // stable addresses for handed-out Lane*
};

namespace detail {
struct CurrentLane {
  SpanRecorder* recorder = nullptr;
  SpanRecorder::Lane* lane = nullptr;
};
[[nodiscard]] CurrentLane& current_lane() noexcept;
}  // namespace detail

/// Leases `recorder`'s lane `name` as the calling thread's current lane
/// for the guard's lifetime. One thread, one lane: a thread that already
/// holds a lane keeps it (a parallel region's caller records its chunks
/// on the lane it came with), and a disabled recorder installs nothing —
/// spans in scope stay no-ops.
class LaneGuard {
 public:
  /// A lane of SpanRecorder::global().
  explicit LaneGuard(std::string_view name);
  LaneGuard(SpanRecorder& recorder, std::string_view name);
  ~LaneGuard();
  LaneGuard(const LaneGuard&) = delete;
  LaneGuard& operator=(const LaneGuard&) = delete;

 private:
  SpanRecorder* recorder_ = nullptr;
  SpanRecorder::Lane* lane_ = nullptr;  ///< null: this guard leased none
};

/// RAII span on the calling thread's current lane (no-op without one).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_ = nullptr;
  SpanRecorder::Lane* lane_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t begin_ns_ = 0;
};

}  // namespace ftmc::obs
