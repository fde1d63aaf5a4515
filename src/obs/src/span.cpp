#include "ftmc/obs/span.hpp"

#include <algorithm>
#include <ostream>

#include "ftmc/obs/chrome_trace.hpp"

namespace ftmc::obs {

namespace detail {

CurrentLane& current_lane() noexcept {
  thread_local CurrentLane current;
  return current;
}

}  // namespace detail

SpanRecorder::SpanRecorder(std::size_t capacity_per_lane,
                           std::size_t max_lanes)
    : epoch_(std::chrono::steady_clock::now()),
      capacity_(capacity_per_lane == 0 ? 1 : capacity_per_lane),
      max_lanes_(max_lanes == 0 ? 1 : max_lanes) {}

SpanRecorder& SpanRecorder::global() {
  // A recorder can be neither copied nor moved, so the global one is
  // switched off in place, once, on first use.
  static SpanRecorder& recorder = []() -> SpanRecorder& {
    static SpanRecorder off;
    off.enable(false);
    return off;
  }();
  return recorder;
}

SpanRecorder::Lane* SpanRecorder::acquire_lane(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Lane& lane : lanes_) {
    if (!lane.held && lane.name == name) {
      lane.held = true;
      return &lane;
    }
  }
  if (lanes_.size() >= max_lanes_) return nullptr;
  Lane& lane = lanes_.emplace_back(std::string(name), capacity_);
  lane.held = true;
  return &lane;
}

void SpanRecorder::release_lane(Lane* lane) {
  std::lock_guard<std::mutex> lock(mu_);
  lane->held = false;
}

std::uint64_t SpanRecorder::now_ns() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

namespace {

/// Emits one lane's spans as balanced, properly nested B/E pairs.
/// RAII spans recorded by one thread are properly nested in time, so
/// sorting by (begin asc, end desc) yields parents before their children
/// and a simple "close everything that ended before the next span
/// begins" stack walk reconstructs the B/E interleaving.
void append_lane_events(std::vector<std::string>& out,
                        const SpanRecorder::Lane& lane, int pid, int tid) {
  const std::size_t n = lane.count.load(std::memory_order_acquire);
  std::vector<SpanEvent> spans(lane.events.begin(),
                               lane.events.begin() +
                                   static_cast<std::ptrdiff_t>(n));
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     if (a.begin_ns != b.begin_ns)
                       return a.begin_ns < b.begin_ns;
                     return a.end_ns > b.end_ns;
                   });
  const auto us = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1000.0;
  };
  std::vector<const SpanEvent*> open;
  for (const SpanEvent& span : spans) {
    while (!open.empty() && open.back()->end_ns <= span.begin_ns) {
      out.push_back(chrome::duration_end(pid, tid, us(open.back()->end_ns)));
      open.pop_back();
    }
    out.push_back(
        chrome::duration_begin(span.name, pid, tid, us(span.begin_ns)));
    open.push_back(&span);
  }
  while (!open.empty()) {
    out.push_back(chrome::duration_end(pid, tid, us(open.back()->end_ns)));
    open.pop_back();
  }
}

}  // namespace

void SpanRecorder::append_chrome_events(std::vector<std::string>& out,
                                        int pid,
                                        const std::string& process) const {
  std::lock_guard<std::mutex> lock(mu_);
  out.push_back(chrome::process_name(pid, process));
  int tid = 0;
  for (const Lane& lane : lanes_) {
    out.push_back(chrome::thread_name(pid, tid, lane.name));
    append_lane_events(out, lane, pid, tid);
    ++tid;
  }
}

std::string SpanRecorder::chrome_trace_json(int pid) const {
  std::vector<std::string> events;
  append_chrome_events(events, pid);
  return chrome::trace_document(events);
}

void SpanRecorder::write_chrome_trace(std::ostream& os, int pid) const {
  os << chrome_trace_json(pid);
}

std::size_t SpanRecorder::lane_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lanes_.size();
}

std::uint64_t SpanRecorder::total_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) {
    total += lane.count.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t SpanRecorder::total_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) {
    total += lane.dropped.load(std::memory_order_relaxed);
  }
  return total;
}

LaneGuard::LaneGuard(std::string_view name)
    : LaneGuard(SpanRecorder::global(), name) {}

LaneGuard::LaneGuard(SpanRecorder& recorder, std::string_view name) {
  detail::CurrentLane& current = detail::current_lane();
  if (current.lane != nullptr || !recorder.is_enabled()) return;
  lane_ = recorder.acquire_lane(name);
  if (lane_ == nullptr) return;
  recorder_ = &recorder;
  current = {recorder_, lane_};
}

LaneGuard::~LaneGuard() {
  if (lane_ == nullptr) return;
  detail::current_lane() = {};
  recorder_->release_lane(lane_);
}

ScopedSpan::ScopedSpan(const char* name) noexcept {
  const detail::CurrentLane& current = detail::current_lane();
  if (current.lane != nullptr) {
    recorder_ = current.recorder;
    lane_ = current.lane;
    name_ = name;
    begin_ns_ = recorder_->now_ns();
  }
}

ScopedSpan::~ScopedSpan() {
  if (lane_ == nullptr) return;
  const std::size_t n = lane_->count.load(std::memory_order_relaxed);
  if (n < lane_->events.size()) {
    lane_->events[n] = {name_, begin_ns_, recorder_->now_ns()};
    lane_->count.store(n + 1, std::memory_order_release);
  } else {
    lane_->dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace ftmc::obs
