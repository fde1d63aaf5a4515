#include "ftmc/serve/server.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <optional>
#include <vector>

#include "ftmc/campaign/runner.hpp"
#include "ftmc/campaign/spec.hpp"
#include "ftmc/core/conversion.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/core/profiles.hpp"
#include "ftmc/exec/parallel.hpp"
#include "ftmc/io/json.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/mcs/sensitivity.hpp"
#include "ftmc/obs/exposition.hpp"
#include "ftmc/rt/core.hpp"
#include "ftmc/rt/host.hpp"
#include "ftmc/sim/model.hpp"

namespace ftmc::serve {

namespace {

using io::json::Value;

/// One parsed admission-control query (see docs/serving.md).
struct Query {
  core::FtTaskSet ts;
  campaign::Scheduler scheduler = campaign::Scheduler::kEdfVdKilling;
  double degradation_factor = 6.0;
  double os_hours = 1.0;
  bool prefer_no_adaptation = true;
  std::string kind = "fts";  // "fts" | "sweep" | "sensitivity" | "admit"
  int n_adapt_max = -1;      // sweep ceiling; -1 = chosen n_HI
  // "admit" re-execution profile (Gamma(n_HI, n_LO, n'_HI) of Sec. 4.2).
  int n_hi = 2;
  int n_lo = 2;
  int n_adapt = 1;
};

[[nodiscard]] Query parse_query(const Value& doc) {
  Query q;
  bool saw_task_set = false;
  for (const auto& [key, value] : doc.fields()) {
    if (key == "task_set") {
      q.ts = io::task_set_from_json(value);
      saw_task_set = true;
    } else if (key == "query") {
      q.kind = value.as_string();
      if (q.kind != "fts" && q.kind != "sweep" && q.kind != "sensitivity" &&
          q.kind != "admit") {
        throw io::ParseError("unknown query kind \"" + q.kind + "\"");
      }
    } else if (key == "n_hi") {
      q.n_hi = static_cast<int>(value.as_uint64());
      if (q.n_hi < 1) throw io::ParseError("n_hi must be >= 1");
    } else if (key == "n_lo") {
      q.n_lo = static_cast<int>(value.as_uint64());
      if (q.n_lo < 1) throw io::ParseError("n_lo must be >= 1");
    } else if (key == "n_adapt") {
      q.n_adapt = static_cast<int>(value.as_uint64());
    } else if (key == "scheduler") {
      const auto s = campaign::parse_scheduler(value.as_string());
      if (!s) {
        throw io::ParseError("unknown scheduler \"" + value.as_string() +
                             "\"");
      }
      q.scheduler = *s;
    } else if (key == "degradation_factor") {
      q.degradation_factor = value.as_number();
      if (!(q.degradation_factor > 1.0)) {
        throw io::ParseError("degradation_factor must be > 1");
      }
    } else if (key == "os_hours") {
      q.os_hours = value.as_number();
      if (!(q.os_hours > 0.0)) {
        throw io::ParseError("os_hours must be > 0");
      }
    } else if (key == "prefer_no_adaptation") {
      q.prefer_no_adaptation = value.as_bool();
    } else if (key == "n_adapt_max") {
      q.n_adapt_max = static_cast<int>(value.as_uint64());
    } else {
      throw io::ParseError("unknown query key \"" + key + "\"");
    }
  }
  if (!saw_task_set) throw io::ParseError("query is missing \"task_set\"");
  if (q.kind == "admit" && (q.n_adapt < 0 || q.n_adapt >= q.n_hi)) {
    throw io::ParseError("admit requires 0 <= n_adapt < n_hi");
  }
  return q;
}

/// Canonical form hashed for the answer cache: fixed key order, full
/// number precision, result-irrelevant fields normalized out
/// (degradation_factor is omitted for killing-family schedulers,
/// n_adapt_max for non-sweep queries) — the campaign cell-cache design.
[[nodiscard]] std::string canonical_query_json(const Query& q) {
  io::json::Object out;
  out.add_string("query", q.kind)
      .add_string("scheduler", campaign::to_string(q.scheduler));
  if (campaign::adaptation_of(q.scheduler) ==
      mcs::AdaptationKind::kDegradation) {
    out.add_number("degradation_factor", q.degradation_factor);
  }
  out.add_number("os_hours", q.os_hours)
      .add_bool("prefer_no_adaptation", q.prefer_no_adaptation);
  if (q.kind == "sweep") out.add_int("n_adapt_max", q.n_adapt_max);
  if (q.kind == "admit") {
    out.add_int("n_hi", q.n_hi)
        .add_int("n_lo", q.n_lo)
        .add_int("n_adapt", q.n_adapt);
  }
  out.add_raw("task_set", io::task_set_to_json(q.ts));
  return out.str();
}

[[nodiscard]] core::FtsConfig fts_config(const Query& q) {
  core::FtsConfig fts;
  fts.adaptation.kind = campaign::adaptation_of(q.scheduler);
  fts.adaptation.degradation_factor = q.degradation_factor;
  fts.adaptation.os_hours = q.os_hours;
  fts.prefer_no_adaptation = q.prefer_no_adaptation;
  fts.test = campaign::make_fts_test(q.scheduler);
  return fts;
}

[[nodiscard]] std::string answer_fts(const Query& q) {
  const core::FtsResult result = core::ft_schedule(q.ts, fts_config(q));
  return io::fts_result_to_json(result);
}

[[nodiscard]] std::string answer_sweep(const Query& q) {
  const auto reqs = core::SafetyRequirements::do178b();
  const auto n_hi = core::min_reexec_profile(q.ts, CritLevel::HI, reqs);
  const auto n_lo = core::min_reexec_profile(q.ts, CritLevel::LO, reqs);
  if (!n_hi || !n_lo) {
    throw io::ParseError(
        "no re-execution profile meets the plain PFH bounds");
  }
  core::AdaptationModel model;
  model.kind = campaign::adaptation_of(q.scheduler);
  model.degradation_factor = q.degradation_factor;
  model.os_hours = q.os_hours;
  const int n_adapt_max = q.n_adapt_max >= 0 ? q.n_adapt_max : *n_hi;
  const auto points = core::sweep_adaptation(q.ts, *n_hi, *n_lo, model,
                                             reqs, n_adapt_max);
  return io::json::Object{}
      .add_int("n_hi", *n_hi)
      .add_int("n_lo", *n_lo)
      .add_raw("points", io::sweep_to_json(points))
      .str();
}

[[nodiscard]] std::string answer_sensitivity(const Query& q) {
  const core::FtsResult result = core::ft_schedule(q.ts, fts_config(q));
  io::json::Object out;
  out.add_raw("fts", io::fts_result_to_json(result));
  mcs::ScalingResult scaling;  // zeros when FT-S failed
  if (result.success) {
    const auto test = campaign::make_schedulability_test(
        q.scheduler, q.degradation_factor);
    scaling = mcs::max_wcet_scaling(result.converted, *test);
  }
  out.add_number("max_wcet_scaling", scaling.max_scaling)
      .add_bool("schedulable_as_given", scaling.schedulable_as_given);
  return out.str();
}

/// Host stub for admission-only cores: add_task never reaches the
/// execution-model callbacks, and the verdict trail of interest is the
/// core's own flight recorder, not the event stream.
struct AdmissionOnlyHost final : rt::Host {
  [[nodiscard]] rt::Tick sample_segment_time(std::uint32_t) override {
    return 0;
  }
  [[nodiscard]] bool sample_fault(std::uint32_t, int) override {
    return false;
  }
  void emit(const rt::Event&) override {}
};

/// The runtime-core view of the query: the Lemma 4.1 conversion fixes
/// the virtual-deadline factor, then the actual rt::Core density test
/// rules on each task in registration order — the same verdicts an
/// embedded target records in its flight recorder (docs/runtime.md).
[[nodiscard]] std::string answer_admit(const Query& q) {
  const mcs::McTaskSet mc =
      core::convert_to_mc(q.ts, q.n_hi, q.n_lo, q.n_adapt);
  const mcs::EdfVdAnalysis vd = mcs::analyze_edf_vd(mc);
  const double x = vd.schedulable ? vd.x : 1.0;
  const std::vector<rt::Task> rt_tasks =
      sim::build_sim_tasks(q.ts, q.n_hi, q.n_lo, q.n_adapt, x);

  rt::CoreConfig cfg;
  cfg.policy = rt::Policy::kEdfVd;
  cfg.adaptation = campaign::adaptation_of(q.scheduler);
  if (cfg.adaptation == rt::Adaptation::kDegradation) {
    cfg.degradation_factor = q.degradation_factor;
  }
  cfg.admission_control = true;
  AdmissionOnlyHost host;
  rt::Core rt_core(cfg, host);

  bool all_admitted = true;
  std::vector<std::string> tasks;
  tasks.reserve(rt_tasks.size());
  for (const rt::Task& t : rt_tasks) {
    const rt::Admission verdict = rt_core.add_task(t);
    all_admitted = all_admitted && verdict.admitted;
    io::json::Object item;
    item.add_string("name", t.name).add_bool("admitted", verdict.admitted);
    if (verdict.reason != nullptr) item.add_string("reason", verdict.reason);
    tasks.push_back(item.str());
  }

  // The admission prefix of the core's black box — the audit trail a
  // post-mortem dump would replay these verdicts from.
  std::vector<std::string> records;
  const rt::FlightRecorder& bb = rt_core.black_box();
  for (std::size_t i = 0; i < bb.size(); ++i) {
    const rt::BlackBoxRecord& r = bb.at(i);
    records.push_back(
        io::json::Object{}
            .add_int("seq", static_cast<long long>(r.seq))
            .add_string("kind", rt::to_string(r.kind))
            .add_int("task", static_cast<long long>(r.task))
            .str());
  }

  return io::json::Object{}
      .add_bool("admitted", all_admitted)
      .add_bool("vd_schedulable", vd.schedulable)
      .add_number("x", x)
      .add_number("u_mc", vd.u_mc)
      .add_raw("tasks", io::json::array(tasks))
      .add_raw("blackbox", io::json::array(records))
      .str();
}

/// Computes one query's result slot. Exceptions become {"ok":false}
/// items rather than batch failures: one bad query must not poison its
/// neighbors (and parallel_for would cancel the region on a throw).
[[nodiscard]] std::string answer_query(const Query& q) {
  try {
    std::string answer;
    if (q.kind == "fts") {
      answer = answer_fts(q);
    } else if (q.kind == "sweep") {
      answer = answer_sweep(q);
    } else if (q.kind == "admit") {
      answer = answer_admit(q);
    } else {
      answer = answer_sensitivity(q);
    }
    return io::json::Object{}
        .add_bool("ok", true)
        .add_string("query", q.kind)
        .add_raw("answer", answer)
        .str();
  } catch (const std::exception& e) {
    return io::json::Object{}
        .add_bool("ok", false)
        .add_string("error", e.what())
        .str();
  }
}

[[nodiscard]] std::string error_item(std::string_view message) {
  return io::json::Object{}
      .add_bool("ok", false)
      .add_string("error", message)
      .str();
}

[[nodiscard]] std::string error_response(std::string_view message,
                                         const std::string& trace_id) {
  return io::json::Object{}
      .add_string("type", "error")
      .add_string("trace_id", trace_id)
      .add_string("error", message)
      .str();
}

[[nodiscard]] obs::Histogram& kind_latency(ServeMetrics& m,
                                           const std::string& kind) {
  if (kind == "fts") return m.latency_fts_us;
  if (kind == "sweep") return m.latency_sweep_us;
  if (kind == "sensitivity") return m.latency_sensitivity_us;
  return m.latency_admit_us;
}

/// Distinct span-lane name per serving thread: transports may call
/// handle() concurrently, and two threads must never share a lane.
[[nodiscard]] const std::string& lane_name() {
  static std::atomic<int> next{0};
  thread_local const std::string name =
      "serve-" + std::to_string(next.fetch_add(1, std::memory_order_relaxed));
  return name;
}

}  // namespace

ServeMetrics ServeMetrics::global() {
  obs::Registry& reg = obs::Registry::global();
  return {reg.counter("serve.requests_total"),
          reg.counter("serve.queries_total"),
          reg.counter("serve.cache_hits"),
          reg.counter("serve.cache_misses"),
          reg.counter("serve.request_errors"),
          reg.counter("serve.query_errors"),
          reg.histogram("serve.query_latency_us"),
          reg.histogram("serve.latency_us.fts"),
          reg.histogram("serve.latency_us.sweep"),
          reg.histogram("serve.latency_us.sensitivity"),
          reg.histogram("serve.latency_us.admit"),
          reg.gauge("serve.cache_entries")};
}

Server::Server(ServerOptions options)
    : options_(options),
      cache_(options.cache_entries),
      metrics_(ServeMetrics::global()) {}

std::string Server::handle(std::string_view request_json) {
  metrics_.requests_total.inc();
  obs::LaneGuard lane(&spans_, lane_name());
  obs::ScopedSpan request_span("request");
  // The echoed trace id, or a synthesized "t-<n>" when the client sent
  // none — synthesized even for unparseable requests, so every response
  // line in a log can be correlated.
  const auto resolve_trace_id = [this](std::string id) {
    if (id.empty()) {
      id = "t-" + std::to_string(
                      trace_seq_.fetch_add(1, std::memory_order_relaxed));
    }
    return id;
  };
  std::string type;
  std::string trace_id;
  try {
    obs::ScopedSpan span("parse");
    // The type probe parses the whole document once; analyze re-parses
    // below. Requests are small relative to the analysis they trigger,
    // and the double parse keeps this dispatch free of Value plumbing.
    const Value doc = io::json::parse(request_json);
    type = doc.at("type").as_string();
    if (const Value* id = doc.find("trace_id")) trace_id = id->as_string();
  } catch (const std::exception& e) {
    metrics_.request_errors.inc();
    return error_response(e.what(), resolve_trace_id(std::move(trace_id)));
  }
  trace_id = resolve_trace_id(std::move(trace_id));
  if (type == "ping") {
    return io::json::Object{}
        .add_string("type", "pong")
        .add_string("trace_id", trace_id)
        .str();
  }
  if (type == "metrics") {
    return io::json::Object{}
        .add_string("type", "metrics")
        .add_string("trace_id", trace_id)
        .add_raw("metrics", obs::Registry::global().snapshot_json())
        .str();
  }
  if (type == "expose") {
    obs::ScopedSpan span("respond");
    return io::json::Object{}
        .add_string("type", "expose")
        .add_string("trace_id", trace_id)
        .add_string("content_type", "text/plain; version=0.0.4; charset=utf-8")
        .add_string("body",
                    obs::to_prometheus(obs::Registry::global().snapshot()))
        .str();
  }
  if (type == "shutdown") {
    shutdown_.store(true, std::memory_order_release);
    return io::json::Object{}
        .add_string("type", "bye")
        .add_string("trace_id", trace_id)
        .str();
  }
  if (type == "analyze") {
    return handle_analyze(request_json, trace_id);
  }
  metrics_.request_errors.inc();
  return error_response("unknown request type \"" + type + "\"", trace_id);
}

std::string Server::handle_analyze(std::string_view request_json,
                                   const std::string& trace_id) {
  // Slot i holds query i's result item; filled from the cache or
  // computed into place — order and content never depend on threads.
  struct Slot {
    std::optional<Query> query;  // parsed; empty on a parse error
    std::string key;             // content hash of the canonical form
    std::string item;            // final {"ok":...} result JSON
  };
  std::vector<Slot> slots;
  std::size_t cache_hits = 0;
  std::vector<std::size_t> pending;
  try {
    obs::ScopedSpan span("parse");
    const Value doc = io::json::parse(request_json);
    const auto& queries = doc.at("queries").items();
    slots.resize(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      metrics_.queries_total.inc();
      try {
        Query q = parse_query(queries[i]);
        slots[i].key = campaign::content_hash(canonical_query_json(q));
        if (auto hit = cache_.lookup(slots[i].key)) {
          slots[i].item = std::move(*hit);
          ++cache_hits;
          metrics_.cache_hits.inc();
        } else {
          slots[i].query = std::move(q);
          pending.push_back(i);
          metrics_.cache_misses.inc();
        }
      } catch (const std::exception& e) {
        slots[i].item = error_item(e.what());
        metrics_.query_errors.inc();
      }
    }
  } catch (const std::exception& e) {
    metrics_.request_errors.inc();
    return error_response(e.what(), trace_id);
  }

  exec::ParallelOptions par;
  par.threads = options_.threads;
  par.chunk_size = 1;  // one query = one FT-S analysis
  par.phase = "serve";
  par.spans = &spans_;
  {
    obs::ScopedSpan span("analyze");
    exec::parallel_for(
        pending.size(), par, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            Slot& slot = slots[pending[i]];
            const auto t0 = std::chrono::steady_clock::now();
            slot.item = answer_query(*slot.query);
            const double us =
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            metrics_.query_latency_us.observe(us);
            kind_latency(metrics_, slot.query->kind).observe(us);
            if (slot.item.rfind("{\"ok\":false", 0) == 0) {
              metrics_.query_errors.inc();
            }
            cache_.insert(slot.key, slot.item);
          }
        });
  }
  metrics_.cache_entries.set(static_cast<double>(cache_.size()));

  obs::ScopedSpan respond_span("respond");
  std::vector<std::string> items;
  items.reserve(slots.size());
  for (Slot& slot : slots) items.push_back(std::move(slot.item));
  return io::json::Object{}
      .add_string("type", "result")
      .add_string("trace_id", trace_id)
      .add_int("count", static_cast<long long>(items.size()))
      .add_int("cache_hits", static_cast<long long>(cache_hits))
      .add_raw("results", io::json::array(items))
      .str();
}

}  // namespace ftmc::serve
