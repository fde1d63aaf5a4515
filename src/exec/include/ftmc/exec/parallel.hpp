/// \file parallel.hpp
/// \brief Deterministic chunked parallel_for / map-reduce primitives.
///
/// The experiment runtime of this repo: Monte-Carlo campaigns,
/// design-space exploration and the Fig. 3 acceptance sweeps all fan out
/// over independent work items. These primitives run such loops on a
/// fixed-size thread pool while keeping the *result* a pure function of
/// the input:
///
///  - chunk boundaries depend only on (n, chunk_size), never on the
///    thread count or on which worker ran what;
///  - parallel_map_reduce folds each chunk in item order and then folds
///    the chunk partials in chunk order on the calling thread, so even
///    non-associative merges (floating-point sums) give bit-identical
///    results for every thread count, including threads == 1;
///  - threads == 1 executes inline on the caller, no pool is spawned.
///
/// Exceptions thrown by a body cancel the remaining chunks and are
/// rethrown on the calling thread (first one wins).
///
/// Run counters: while obs::Registry::global() is enabled, every region
/// adds to the metric family `exec.<phase>.{items,chunks,regions,
/// wall_seconds,threads}` (threads is the largest worker count seen).
/// While it is disabled, a region pays one branch for them.
///
/// Spans: while obs::SpanRecorder::global() is enabled, every region
/// records one span per chunk (named by its phase). The calling thread
/// records on the lane it holds, or on "main" when it holds none; pool
/// workers lease "worker-N" lanes, distinct from those of any region
/// running at the same time. A worker's lane stays installed while chunk
/// bodies run, so nested library spans land on the right timeline.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ftmc/obs/progress.hpp"
#include "ftmc/obs/registry.hpp"

namespace ftmc::exec {

/// Knobs of one parallel region.
struct ParallelOptions {
  /// Worker threads. 1 = serial on the caller (the default — parallelism
  /// is opt-in); <= 0 = one worker per hardware thread.
  int threads = 1;
  /// Items per chunk; 0 = default (16). Chunking is deterministic: it
  /// shapes the merge tree of parallel_map_reduce, so changing it may
  /// change floating-point results — changing `threads` never does.
  std::size_t chunk_size = 0;
  /// Names the region's exec.<phase>.* metrics and its chunk spans.
  const char* phase = "parallel";
  /// Optional progress callback, invoked from the CALLING thread only
  /// (never concurrently) after every chunk it sees complete, plus a
  /// final {done == total} call when the region completes.
  obs::ProgressFn progress;
};

/// Resolves ParallelOptions::threads (<= 0 -> hardware concurrency).
[[nodiscard]] int resolve_threads(int threads) noexcept;

/// Resolves ParallelOptions::chunk_size (0 -> 16).
[[nodiscard]] std::size_t resolve_chunk(std::size_t chunk_size) noexcept;

/// One line per phase recorded in `registry`, in first-recorded order:
/// "campaign: 152 items / 152 chunks / 1 regions in 0.21 s on 4 threads".
[[nodiscard]] std::string phase_summary(obs::Registry& registry);

/// Runs `body(begin, end)` over chunked [0, n). Chunks may execute in any
/// order and concurrently; bodies touching shared state must write to
/// disjoint, index-addressed slots (the idiom used by all callers).
void parallel_for(std::size_t n, const ParallelOptions& options,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Chunked map-reduce over [0, n): `map(i) -> Acc` per item, folded with
/// `merge(Acc& into, Acc&& from)` first within each chunk in item order,
/// then across chunks in chunk order. Returns Acc{} for n == 0.
/// Bit-identical for every thread count (see file comment).
template <typename Acc, typename Map, typename Merge>
[[nodiscard]] Acc parallel_map_reduce(std::size_t n,
                                      const ParallelOptions& options,
                                      Map map, Merge merge) {
  if (n == 0) return Acc{};
  const std::size_t chunk = resolve_chunk(options.chunk_size);
  const std::size_t n_chunks = (n + chunk - 1) / chunk;
  std::vector<std::optional<Acc>> partials(n_chunks);
  parallel_for(n, options, [&](std::size_t begin, std::size_t end) {
    Acc acc = map(begin);
    for (std::size_t i = begin + 1; i < end; ++i) merge(acc, map(i));
    partials[begin / chunk] = std::move(acc);
  });
  Acc total = std::move(*partials[0]);
  for (std::size_t c = 1; c < n_chunks; ++c) {
    merge(total, std::move(*partials[c]));
  }
  return total;
}

}  // namespace ftmc::exec
