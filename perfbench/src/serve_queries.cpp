/// serve-queries: one operation is one analyze request to an in-process
/// serve::Server (threads = 1), framed by net::encode_frame and decoded by
/// net::FrameDecoder in both directions. No socket and no thread pool is
/// in the timed path.
#include <optional>
#include <random>
#include <string>

#include "ftmc/campaign/cache.hpp"
#include "ftmc/campaign/runner.hpp"
#include "ftmc/core/conversion.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/core/profiles.hpp"
#include "ftmc/io/json.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/mcs/sensitivity.hpp"
#include "ftmc/net/frame.hpp"
#include "ftmc/rt/core.hpp"
#include "ftmc/serve/server.hpp"
#include "ftmc/sim/model.hpp"
#include "ftmc/taskgen/generator.hpp"
#include "layers.hpp"
#include "oracles.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = ftmc::core;
namespace campaign = ftmc::campaign;
namespace json = ftmc::io::json;

constexpr std::size_t kRequests = 1000;
constexpr std::size_t kBatch = 4;
/// Every request whose index is not a multiple of 5 repeats four earlier
/// queries: 80% of requests, and so 80% of queries, are cache hits. The
/// median latency then falls among hits and the 90th percentile among
/// misses, each well inside its own cluster.
[[nodiscard]] bool is_repeat(std::size_t r) { return r % 5 != 0; }
/// Query kinds of fresh queries, cycled: 7 EDF-VD killing fts, 5 EDF-VD
/// degradation fts, 5 admit, 2 sweep, 1 sensitivity per 20 queries.
enum class Kind { kFtsKilling, kFtsDegradation, kAdmit, kSweep, kSensitivity };
constexpr Kind kKindCycle[20] = {
    Kind::kFtsKilling,     Kind::kAdmit,          Kind::kFtsDegradation,
    Kind::kFtsKilling,     Kind::kSweep,          Kind::kAdmit,
    Kind::kFtsDegradation, Kind::kFtsKilling,     Kind::kAdmit,
    Kind::kSensitivity,    Kind::kFtsKilling,     Kind::kFtsDegradation,
    Kind::kAdmit,          Kind::kFtsKilling,     Kind::kSweep,
    Kind::kFtsDegradation, Kind::kFtsKilling,     Kind::kAdmit,
    Kind::kFtsDegradation, Kind::kFtsKilling};
/// The admit queries' Gamma(n_HI, n_LO, n'_HI).
constexpr int kAdmitNHi = 3, kAdmitNLo = 2, kAdmitNAdapt = 1;
/// Fresh requests sent to a throw-away server during set-up, drawn from
/// kWarmupSeed rather than the run's seed so that every run's set-up does
/// the same work.
constexpr std::size_t kWarmupRequests = 500;
constexpr std::uint64_t kWarmupSeed = 20140601;

struct Query {
  Kind kind = Kind::kFtsKilling;
  core::FtTaskSet ts;
  std::string json;  ///< the query object as sent
};

[[nodiscard]] const char* scheduler_of(Kind k) {
  return k == Kind::kFtsKilling || k == Kind::kAdmit ? "edf_vd_killing"
                                                     : "edf_vd_degradation";
}

[[nodiscard]] const char* query_of(Kind k) {
  switch (k) {
    case Kind::kAdmit: return "admit";
    case Kind::kSweep: return "sweep";
    case Kind::kSensitivity: return "sensitivity";
    default: return "fts";
  }
}

[[nodiscard]] core::FtsConfig fts_config(Kind k) {
  core::FtsConfig cfg;
  const auto scheduler = *campaign::parse_scheduler(scheduler_of(k));
  cfg.adaptation.kind = campaign::adaptation_of(scheduler);
  cfg.adaptation.degradation_factor = 6.0;
  cfg.adaptation.os_hours = 1.0;
  cfg.prefer_no_adaptation = true;
  cfg.test = campaign::make_fts_test(scheduler);
  return cfg;
}

/// The result items of a response's "results" array, split at top level.
[[nodiscard]] std::vector<std::string> result_items(const std::string& response) {
  std::vector<std::string> items;
  const std::size_t start = response.find("\"results\":[");
  if (start == std::string::npos) return items;
  int depth = 0;
  bool in_string = false;
  std::size_t item_begin = 0;
  for (std::size_t i = start + 11; i < response.size(); ++i) {
    const char c = response[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      if (depth++ == 0) item_begin = i;
    } else if (c == '}' || c == ']') {
      if (depth == 0) break;  // end of the results array
      if (--depth == 0) items.push_back(response.substr(item_begin, i + 1 - item_begin));
    }
  }
  return items;
}

/// Host for admission-only rt cores (add_task never calls back).
struct NoHost final : ftmc::rt::Host {
  [[nodiscard]] ftmc::rt::Tick sample_segment_time(std::uint32_t) override { return 0; }
  [[nodiscard]] bool sample_fault(std::uint32_t, int) override { return false; }
  void emit(const ftmc::rt::Event&) override {}
};

class ServeQueries final : public Workload {
 public:
  explicit ServeQueries(std::uint64_t seed) : seed_(seed) {}

  void prepare() override {
    queries_.clear();
    requests_.clear();
    warmup_.clear();
    ftmc::taskgen::Rng rng(mix_seed(seed_, 0));
    build_requests(rng, kRequests, requests_);
    // Warm-up traffic of its own, answered by a throw-away server so that
    // the measured server starts cold; its queries are not kept.
    const std::size_t queries = queries_.size();
    ftmc::taskgen::Rng warm_rng(kWarmupSeed);
    std::vector<Request> warm;
    build_requests(warm_rng, kWarmupRequests * 5, warm);
    for (Request& r : warm) {
      if (!r.repeat) warmup_.push_back(std::move(r.json));
    }
    queries_.resize(queries);
  }

  void setup() override {
    ftmc::serve::ServerOptions options;
    options.threads = 1;
    ftmc::serve::Server warm_server(options);
    for (const std::string& request : warmup_) {
      (void)exchange(warm_server, request, nullptr);
    }
  }

  [[nodiscard]] std::size_t round_size() const override { return requests_.size(); }

  void begin_round(std::size_t round) override {
    if (round == 0) first_.assign(round_size(), {});
    ftmc::serve::ServerOptions options;
    options.threads = 1;
    server_ = std::make_unique<ftmc::serve::Server>(options);
  }

  void run_op(std::size_t i, std::size_t round, Tracer* tracer) override {
    const Request& req = requests_[i];
    std::string response = exchange(*server_, req.json, tracer);
    if (tracer != nullptr) replay(req, response, *tracer);
    if (round == 0) {
      first_[i] = std::move(response);
    } else if (response != first_[i]) {
      ++repeat_mismatch_;
    }
  }

  [[nodiscard]] Verdict check() override {
    Verdict v;
    std::vector<std::string> cold(queries_.size());
    for (std::size_t r = 0; r < requests_.size(); ++r) {
      const Request& req = requests_[r];
      const std::vector<std::string> items = result_items(first_[r]);
      const std::string where = "request " + std::to_string(r);
      if (items.size() != req.queries.size()) {
        v.flag(where + ": " + std::to_string(items.size()) + " result(s) for " +
               std::to_string(req.queries.size()) + " queries");
        continue;
      }
      const std::string hits = oracle::json_token(first_[r], "cache_hits");
      const std::string expected_hits = std::to_string(req.repeat ? kBatch : 0);
      if (hits != expected_hits) {
        v.flag(where + ": " + hits + " cache hit(s), expected " + expected_hits);
      }
      for (std::size_t j = 0; j < items.size(); ++j) {
        const std::size_t q = req.queries[j];
        const std::string label = where + " query " + std::to_string(j);
        oracle::check_ok(items[j], label, v);
        if (req.repeat) {
          oracle::check_hit(items[j], cold[q], label, v);
          continue;
        }
        cold[q] = items[j];
        check_answer(queries_[q], items[j], label, v);
      }
    }
    if (repeat_mismatch_ > 0) {
      v.flag(std::to_string(repeat_mismatch_) +
             " response(s) differed on a repeated round");
    }
    if (counters_.replay_mismatches > 0) {
      v.flag(std::to_string(counters_.replay_mismatches) +
             " replayed answer(s) differ from the server's");
    }
    return v;
  }

  [[nodiscard]] std::vector<Metric> layer_metrics(const Tracer& tracer) override {
    return perfbench::layer_metrics(tracer, counters_);
  }

 private:
  struct Request {
    bool repeat = false;
    std::vector<std::size_t> queries;  ///< indices into queries_
    std::string json;
  };

  void build_requests(ftmc::taskgen::Rng& rng, std::size_t count,
                      std::vector<Request>& out) {
    std::uniform_real_distribution<double> util(0.3, 0.8);
    std::vector<std::size_t> fresh;
    for (std::size_t r = 0; r < count; ++r) {
      Request req;
      req.repeat = is_repeat(r);
      for (std::size_t j = 0; j < kBatch; ++j) {
        if (req.repeat) {
          std::uniform_int_distribution<std::size_t> pick(0, fresh.size() - 1);
          req.queries.push_back(fresh[pick(rng)]);
          continue;
        }
        Query q;
        q.kind = kKindCycle[fresh.size() % std::size(kKindCycle)];
        ftmc::taskgen::GeneratorParams params;
        params.target_utilization = util(rng);
        params.mapping = q.kind == Kind::kFtsKilling || q.kind == Kind::kAdmit
                             ? ftmc::DualCriticalityMapping{ftmc::Dal::B, ftmc::Dal::D}
                             : ftmc::DualCriticalityMapping{ftmc::Dal::B, ftmc::Dal::C};
        q.ts = ftmc::taskgen::generate_task_set(params, rng);
        json::Object o;
        o.add_string("query", query_of(q.kind))
            .add_string("scheduler", scheduler_of(q.kind))
            .add_number("os_hours", 1.0)
            .add_bool("prefer_no_adaptation", true);
        if (q.kind != Kind::kFtsKilling && q.kind != Kind::kAdmit) {
          o.add_number("degradation_factor", 6.0);
        }
        if (q.kind == Kind::kAdmit) {
          o.add_int("n_hi", kAdmitNHi).add_int("n_lo", kAdmitNLo).add_int("n_adapt", kAdmitNAdapt);
        }
        o.add_raw("task_set", ftmc::io::task_set_to_json(q.ts));
        q.json = o.str();
        fresh.push_back(queries_.size());
        req.queries.push_back(queries_.size());
        queries_.push_back(std::move(q));
      }
      std::vector<std::string> items;
      for (const std::size_t q : req.queries) items.push_back(queries_[q].json);
      std::string trace_id = "r";
      trace_id += std::to_string(r);
      req.json = json::Object{}
                     .add_string("type", "analyze")
                     .add_string("trace_id", trace_id)
                     .add_raw("queries", json::array(items))
                     .str();
      out.push_back(std::move(req));
    }
  }

  /// Client -> frame -> server -> frame -> client, all in this thread.
  std::string exchange(ftmc::serve::Server& server, const std::string& request,
                       Tracer* tracer) {
    std::string payload;
    {
      Span s(tracer, span::kFrame);
      ftmc::net::FrameDecoder decoder;
      decoder.feed(ftmc::net::encode_frame(request));
      payload = *decoder.next();
    }
    std::string response;
    {
      Span s(tracer, span::kHandle);
      response = server.handle(payload);
    }
    Span s(tracer, span::kFrame);
    ftmc::net::FrameDecoder decoder;
    decoder.feed(ftmc::net::encode_frame(response));
    if (tracer != nullptr) {
      counters_.bytes_in += request.size();
      counters_.bytes_out += response.size();
    }
    return *decoder.next();
  }

  /// Replays, outside the server and in its order, the public calls it
  /// makes for one request: parse (type probe and full parse), per query
  /// task_set_from_json, the canonical form and its content hash, and for
  /// each miss the analysis and its rendering; the composed result items
  /// must equal the server's.
  void replay(const Request& req, const std::string& response, Tracer& tracer) {
    ++counters_.ops;
    const std::size_t spans_before = tracer.spans().size();
    std::vector<core::FtTaskSet> sets;
    {
      Span s(&tracer, span::kParse);
      (void)json::parse(req.json);
      const json::Value doc = json::parse(req.json);
      for (const json::Value& q : doc.at("queries").items()) {
        sets.push_back(ftmc::io::task_set_from_json(q.at("task_set")));
      }
    }
    std::vector<std::string> canonical;
    {
      Span s(&tracer, span::kRender);
      for (std::size_t j = 0; j < sets.size(); ++j) {
        canonical.push_back(canonical_form(queries_[req.queries[j]], sets[j]));
      }
    }
    {
      Span s(&tracer, span::kHash);
      for (const std::string& c : canonical) (void)campaign::content_hash(c);
    }
    counters_.cache_lookups += sets.size();
    const std::string hits = oracle::json_token(response, "cache_hits");
    if (!hits.empty()) counters_.cache_hits += std::stoull(hits);
    const std::vector<std::string> items = result_items(response);
    if (!req.repeat) {
      for (std::size_t j = 0; j < sets.size(); ++j) {
        const std::string item = answer(queries_[req.queries[j]].kind, sets[j], tracer);
        if (j >= items.size() || item != items[j]) ++counters_.replay_mismatches;
      }
    }
    // Everything recorded since spans_before at the top level of this
    // replay is replayed io, hashing and analysis time.
    for (std::size_t k = spans_before; k < tracer.spans().size(); ++k) {
      const SpanRecord& s = tracer.spans()[k];
      const bool top = s.parent < static_cast<std::int64_t>(spans_before);
      if (top) counters_.replayed_us += static_cast<double>(s.end_ns - s.begin_ns) / 1000.0;
    }
  }

  /// The server's canonical query form (docs/serving.md): fixed key order,
  /// degradation_factor only for degradation schedulers, the admit profile
  /// for admit queries, then the task set re-rendered.
  [[nodiscard]] static std::string canonical_form(const Query& q,
                                                  const core::FtTaskSet& ts) {
    json::Object out;
    out.add_string("query", query_of(q.kind)).add_string("scheduler", scheduler_of(q.kind));
    if (q.kind != Kind::kFtsKilling && q.kind != Kind::kAdmit) {
      out.add_number("degradation_factor", 6.0);
    }
    out.add_number("os_hours", 1.0).add_bool("prefer_no_adaptation", true);
    if (q.kind == Kind::kSweep) out.add_int("n_adapt_max", -1);
    if (q.kind == Kind::kAdmit) {
      out.add_int("n_hi", kAdmitNHi).add_int("n_lo", kAdmitNLo).add_int("n_adapt", kAdmitNAdapt);
    }
    out.add_raw("task_set", ftmc::io::task_set_to_json(ts));
    return out.str();
  }

  /// The result item of a missed query, composed from public calls.
  std::string answer(Kind kind, const core::FtTaskSet& ts, Tracer& tracer) {
    std::string body;
    if (kind == Kind::kFtsKilling || kind == Kind::kFtsDegradation ||
        kind == Kind::kSensitivity) {
      const core::FtsConfig cfg = fts_config(kind);
      core::FtsResult r;
      {
        Span s(&tracer, span::kFts);
        r = core::ft_schedule(ts, cfg);
      }
      if (kind != Kind::kSensitivity) {
        Span s(&tracer, span::kRender);
        body = ftmc::io::fts_result_to_json(r);
      } else {
        ftmc::mcs::ScalingResult scaling;
        if (r.success) {
          Span s(&tracer, span::kSensitivity);
          scaling = ftmc::mcs::max_wcet_scaling(
              r.converted, *campaign::make_schedulability_test(
                               *campaign::parse_scheduler(scheduler_of(kind)), 6.0));
        }
        Span s(&tracer, span::kRender);
        body = json::Object{}
                   .add_raw("fts", ftmc::io::fts_result_to_json(r))
                   .add_number("max_wcet_scaling", scaling.max_scaling)
                   .add_bool("schedulable_as_given", scaling.schedulable_as_given)
                   .str();
      }
    } else if (kind == Kind::kSweep) {
      const auto reqs = core::SafetyRequirements::do178b();
      std::vector<core::AdaptationSweepPoint> points;
      int n_hi = 0, n_lo = 0;
      {
        Span s(&tracer, span::kFts);
        n_hi = *core::min_reexec_profile(ts, ftmc::CritLevel::HI, reqs);
        n_lo = *core::min_reexec_profile(ts, ftmc::CritLevel::LO, reqs);
        points = core::sweep_adaptation(ts, n_hi, n_lo, fts_config(kind).adaptation,
                                        reqs, n_hi);
      }
      Span s(&tracer, span::kRender);
      body = json::Object{}
                 .add_int("n_hi", n_hi)
                 .add_int("n_lo", n_lo)
                 .add_raw("points", ftmc::io::sweep_to_json(points))
                 .str();
    } else {
      body = admit_answer(ts, tracer);
    }
    Span s(&tracer, span::kRender);
    return json::Object{}
        .add_bool("ok", true)
        .add_string("query", query_of(kind))
        .add_raw("answer", body)
        .str();
  }

  /// rt::Core's admission verdicts for the admit profile, per task.
  [[nodiscard]] static std::vector<bool> admit_verdicts(const core::FtTaskSet& ts,
                                                        std::string* json_out = nullptr) {
    const ftmc::mcs::McTaskSet mc =
        core::convert_to_mc(ts, kAdmitNHi, kAdmitNLo, kAdmitNAdapt);
    const ftmc::mcs::EdfVdAnalysis vd = ftmc::mcs::analyze_edf_vd(mc);
    const double x = vd.schedulable ? vd.x : 1.0;
    const std::vector<ftmc::sim::SimTask> tasks =
        ftmc::sim::build_sim_tasks(ts, kAdmitNHi, kAdmitNLo, kAdmitNAdapt, x);
    ftmc::rt::CoreConfig cfg;
    cfg.policy = ftmc::rt::Policy::kEdfVd;
    cfg.adaptation = ftmc::rt::Adaptation::kKilling;
    cfg.admission_control = true;
    NoHost host;
    ftmc::rt::Core rt_core(cfg, host);
    std::vector<bool> admitted;
    std::vector<std::string> items;
    for (const ftmc::sim::SimTask& t : tasks) {
      ftmc::rt::TaskParams p;
      p.period = t.period;
      p.deadline = t.deadline;
      p.wcet = t.wcet;
      p.virtual_deadline = t.virtual_deadline;
      p.crit = t.crit;
      p.max_attempts = t.max_attempts;
      p.adapt_threshold = t.adapt_threshold;
      p.priority = t.priority;
      p.segments = t.segments;
      const ftmc::rt::Admission verdict = rt_core.add_task(p);
      admitted.push_back(verdict.admitted);
      if (json_out != nullptr) {
        json::Object item;
        item.add_string("name", t.name).add_bool("admitted", verdict.admitted);
        if (verdict.reason != nullptr) item.add_string("reason", verdict.reason);
        items.push_back(item.str());
      }
    }
    if (json_out != nullptr) {
      std::vector<std::string> records;
      const ftmc::rt::FlightRecorder& bb = rt_core.black_box();
      for (std::size_t i = 0; i < bb.size(); ++i) {
        const ftmc::rt::BlackBoxRecord& r = bb.at(i);
        records.push_back(json::Object{}
                              .add_int("seq", static_cast<long long>(r.seq))
                              .add_string("kind", ftmc::rt::to_string(r.kind))
                              .add_int("task", static_cast<long long>(r.task))
                              .str());
      }
      bool all = true;
      for (const bool a : admitted) all = all && a;
      *json_out = json::Object{}
                      .add_bool("admitted", all)
                      .add_bool("vd_schedulable", vd.schedulable)
                      .add_number("x", x)
                      .add_number("u_mc", vd.u_mc)
                      .add_raw("tasks", json::array(items))
                      .add_raw("blackbox", json::array(records))
                      .str();
    }
    return admitted;
  }

  [[nodiscard]] static std::string admit_answer(const core::FtTaskSet& ts,
                                                Tracer& tracer) {
    Span s(&tracer, span::kFts);
    std::string body;
    (void)admit_verdicts(ts, &body);
    return body;
  }

  /// Field-level oracle for one cold answer, from direct library calls.
  void check_answer(const Query& q, const std::string& item,
                    const std::string& label, Verdict& v) const {
    if (q.kind == Kind::kFtsKilling || q.kind == Kind::kFtsDegradation) {
      const core::FtsResult r = core::ft_schedule(q.ts, fts_config(q.kind));
      oracle::check_fts_answer(item, {r.success, r.n_hi, r.n_lo, r.n_adapt}, label, v);
    } else if (q.kind == Kind::kAdmit) {
      oracle::check_admit_answer(item, admit_verdicts(q.ts), label, v);
    }
  }

  std::uint64_t seed_;
  std::vector<Query> queries_;
  std::vector<Request> requests_;
  std::vector<std::string> warmup_;
  std::unique_ptr<ftmc::serve::Server> server_;
  std::vector<std::string> first_;
  std::uint64_t repeat_mismatch_ = 0;
  LayerCounters counters_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_queries(std::uint64_t seed) {
  return std::make_unique<ServeQueries>(seed);
}

}  // namespace perfbench
