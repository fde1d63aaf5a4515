#include "ftmc/obs/registry.hpp"

#include <algorithm>
#include <cstdlib>

#include "ftmc/common/contracts.hpp"
#include "ftmc/common/json_text.hpp"

namespace ftmc::obs {
namespace detail {

std::size_t shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id % kShards;
}

void atomic_add_double(std::atomic<double>& target, double value) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + value,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_max_double(std::atomic<double>& target, double value) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (current < value &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

HistogramCell::HistogramCell(std::string n, const std::atomic<bool>* on,
                             std::vector<double> upper_bounds)
    : name(std::move(n)), enabled(on), bounds(std::move(upper_bounds)) {
  FTMC_EXPECTS(!bounds.empty(), "histogram needs at least one bucket bound");
  FTMC_EXPECTS(std::is_sorted(bounds.begin(), bounds.end()),
               "histogram bounds must be ascending");
  for (std::size_t s = 0; s < kShards; ++s) {
    shards.emplace_back(bounds.size() + 1);
  }
}

void HistogramCell::observe(double value) noexcept {
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), value) -
      bounds.begin());
  Shard& shard = shards[shard_index()];
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(shard.sum, value);
}

}  // namespace detail

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double in_bucket = static_cast<double>(counts[i]);
    if (cumulative + in_bucket < target) {
      cumulative += in_bucket;
      continue;
    }
    if (i == bounds.size()) return bounds.back();  // overflow bucket
    const double lower = i == 0 ? std::min(0.0, bounds[0]) : bounds[i - 1];
    const double upper = bounds[i];
    if (in_bucket <= 0.0) return upper;
    const double fraction = (target - cumulative) / in_bucket;
    return lower + fraction * (upper - lower);
  }
  return bounds.back();
}

std::string Snapshot::to_json() const {
  using json_text::append_int;
  using json_text::append_number;
  using json_text::append_quoted;
  std::string out = "{\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out += ',';
    append_quoted(out, counters[i].first);
    out += ':';
    append_int(out, counters[i].second);
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) out += ',';
    append_quoted(out, gauges[i].first);
    out += ':';
    append_number(out, gauges[i].second);
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    if (i > 0) out += ',';
    append_quoted(out, h.name);
    out += ":{\"count\":";
    append_int(out, h.count);
    out += ",\"sum\":";
    append_number(out, h.sum);
    out += ",\"mean\":";
    append_number(out, h.mean());
    out += ",\"p50\":";
    append_number(out, h.quantile(0.5));
    out += ",\"p95\":";
    append_number(out, h.quantile(0.95));
    out += ",\"p99\":";
    append_number(out, h.quantile(0.99));
    out += ",\"bounds\":[";
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      if (b > 0) out += ',';
      append_number(out, h.bounds[b]);
    }
    out += "],\"counts\":[";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (b > 0) out += ',';
      append_int(out, h.counts[b]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::vector<double> exponential_buckets(double start, double factor,
                                        int count) {
  FTMC_EXPECTS(start > 0.0 && factor > 1.0 && count >= 1,
               "exponential buckets need start > 0, factor > 1, count >= 1");
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  double bound = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::vector<double> linear_buckets(double start, double step, int count) {
  FTMC_EXPECTS(step > 0.0 && count >= 1,
               "linear buckets need step > 0, count >= 1");
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    bounds.push_back(start + step * static_cast<double>(i));
  }
  return bounds;
}

Counter Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (detail::CounterCell& cell : counters_) {
    if (cell.name == name) return Counter(&cell);
  }
  counters_.emplace_back(std::string(name), &enabled_);
  return Counter(&counters_.back());
}

Gauge Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (detail::GaugeCell& cell : gauges_) {
    if (cell.name == name) return Gauge(&cell);
  }
  gauges_.emplace_back(std::string(name), &enabled_);
  return Gauge(&gauges_.back());
}

Histogram Registry::histogram(std::string_view name,
                              std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  for (detail::HistogramCell& cell : histograms_) {
    if (cell.name == name) return Histogram(&cell);
  }
  if (upper_bounds.empty()) {
    upper_bounds = exponential_buckets(100.0, 4.0, 12);
  }
  histograms_.emplace_back(std::string(name), &enabled_,
                           std::move(upper_bounds));
  return Histogram(&histograms_.back());
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const detail::CounterCell& cell : counters_) {
    snap.counters.emplace_back(cell.name, cell.total());
  }
  snap.gauges.reserve(gauges_.size());
  for (const detail::GaugeCell& cell : gauges_) {
    snap.gauges.emplace_back(cell.name,
                             cell.value.load(std::memory_order_relaxed));
  }
  snap.histograms.reserve(histograms_.size());
  for (const detail::HistogramCell& cell : histograms_) {
    HistogramSnapshot h;
    h.name = cell.name;
    h.bounds = cell.bounds;
    h.counts.assign(cell.bounds.size() + 1, 0);
    for (const detail::HistogramCell::Shard& shard : cell.shards) {
      for (std::size_t b = 0; b < h.counts.size(); ++b) {
        h.counts[b] += shard.counts[b].load(std::memory_order_relaxed);
      }
      h.sum += shard.sum.load(std::memory_order_relaxed);
    }
    for (const std::uint64_t c : h.counts) h.count += c;
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

std::string Registry::snapshot_json() const { return snapshot().to_json(); }

Registry& Registry::global() {
  static Registry registry = [] {
    const char* env = std::getenv("FTMC_OBS");
    const bool on =
        env != nullptr && *env != '\0' && std::string_view(env) != "0";
    return Registry(on);
  }();
  return registry;
}

}  // namespace ftmc::obs
