#include "ftmc/exec/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>

#include "ftmc/exec/thread_pool.hpp"

namespace ftmc::exec {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The name of one of a phase's exec.<phase>.* metrics.
std::string metric(std::string_view phase, std::string_view field) {
  return std::string("exec.").append(phase).append(".").append(field);
}

}  // namespace

int resolve_threads(int threads) noexcept {
  return threads <= 0 ? ThreadPool::hardware_threads() : threads;
}

std::size_t resolve_chunk(std::size_t chunk_size) noexcept {
  return chunk_size == 0 ? 16 : chunk_size;
}

void parallel_for(std::size_t n, const ParallelOptions& options,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const auto t0 = Clock::now();
  const std::size_t chunk = resolve_chunk(options.chunk_size);
  const std::size_t n_chunks = (n + chunk - 1) / chunk;
  const int threads = static_cast<int>(
      std::min<std::size_t>(
          static_cast<std::size_t>(resolve_threads(options.threads)),
          n_chunks));
  // Only the calling thread reports, so the callback needs no locking.
  const auto report = [&](std::size_t done) {
    if (!options.progress) return;
    obs::Progress p;
    p.done = done;
    p.total = n;
    p.wall_seconds = seconds_since(t0);
    p.eta_seconds = done > 0 ? p.wall_seconds / static_cast<double>(done) *
                                   static_cast<double>(n - done)
                             : -1.0;
    options.progress(p);
  };

  if (threads <= 1) {
    obs::LaneGuard lane(options.spans, "main");
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const std::size_t end = std::min(n, (c + 1) * chunk);
      {
        obs::ScopedSpan span(options.phase);
        body(c * chunk, end);
      }
      if (end < n) report(end);
    }
  } else {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> cancelled{false};
    std::exception_ptr error;
    std::mutex error_mu;
    // `coordinator` marks the calling thread: it alone fires the progress
    // callback, between the chunks it executes itself.
    const auto drain = [&](const std::string& lane_name, bool coordinator) {
      obs::LaneGuard lane(options.spans, lane_name);
      for (std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
           c < n_chunks;
           c = next.fetch_add(1, std::memory_order_relaxed)) {
        if (cancelled.load(std::memory_order_relaxed)) return;
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(n, begin + chunk);
        try {
          obs::ScopedSpan span(options.phase);
          body(begin, end);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(error_mu);
            if (!error) error = std::current_exception();
          }
          cancelled.store(true, std::memory_order_relaxed);
          return;
        }
        const std::size_t total_done =
            done.fetch_add(end - begin, std::memory_order_relaxed) +
            (end - begin);
        if (coordinator && total_done < n) report(total_done);
      }
    };
    {
      // One drain task per extra worker; the caller participates too.
      // The pool destructor runs the queue dry and joins, so leaving
      // this scope is the completion barrier.
      ThreadPool pool(threads - 1);
      for (int w = 0; w < threads - 1; ++w) {
        pool.submit([&drain, w] {
          drain("worker-" + std::to_string(w), false);
        });
      }
      drain("main", true);
    }
    if (error) std::rethrow_exception(error);
  }

  report(n);

  obs::Registry& registry = obs::Registry::global();
  if (registry.is_enabled()) {
    const std::string_view phase = options.phase;
    registry.counter(metric(phase, "items")).inc(n);
    registry.counter(metric(phase, "chunks")).inc(n_chunks);
    registry.counter(metric(phase, "regions")).inc();
    registry.gauge(metric(phase, "wall_seconds")).add(seconds_since(t0));
    registry.gauge(metric(phase, "threads"))
        .set_max(static_cast<double>(threads));
  }
}

std::string phase_summary(obs::Registry& registry) {
  constexpr std::string_view kPrefix = "exec.";
  constexpr std::string_view kSuffix = ".items";
  std::ostringstream out;
  for (const auto& [name, items] : registry.snapshot().counters) {
    const std::string_view key = name;
    if (key.size() <= kPrefix.size() + kSuffix.size() ||
        !key.starts_with(kPrefix) || !key.ends_with(kSuffix)) {
      continue;
    }
    const std::string_view phase = key.substr(
        kPrefix.size(), key.size() - kPrefix.size() - kSuffix.size());
    out << phase << ": " << items << " items / "
        << registry.counter(metric(phase, "chunks")).value() << " chunks / "
        << registry.counter(metric(phase, "regions")).value()
        << " regions in "
        << registry.gauge(metric(phase, "wall_seconds")).value() << " s on "
        << registry.gauge(metric(phase, "threads")).value() << " threads\n";
  }
  return out.str();
}

}  // namespace ftmc::exec
