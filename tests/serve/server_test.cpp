/// \file server_test.cpp
/// \brief Request-engine tests: schema handling, the answer cache, and
///        the determinism contract (server answers are bit-identical to
///        serial local analysis for every thread count / cache state).
#include "ftmc/serve/server.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ftmc/campaign/runner.hpp"
#include "ftmc/campaign/spec.hpp"
#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/io/json.hpp"
#include "ftmc/obs/exposition.hpp"
#include "ftmc/obs/registry.hpp"
#include "ftmc/obs/span.hpp"
#include "ftmc/serve/expose.hpp"
#include "ftmc/taskgen/generator.hpp"

namespace ftmc::serve {
namespace {

/// A deterministic Appendix-C task set as JSON (the wire form).
[[nodiscard]] std::string task_set_json(std::uint64_t seed,
                                        double utilization = 0.4) {
  taskgen::GeneratorParams params;
  params.target_utilization = utilization;
  taskgen::Rng rng(seed);
  return io::task_set_to_json(taskgen::generate_task_set(params, rng));
}

[[nodiscard]] std::string fts_query(const std::string& task_set,
                                    const std::string& scheduler =
                                        "edf_vd_killing") {
  return io::json::Object{}
      .add_string("query", "fts")
      .add_string("scheduler", scheduler)
      .add_raw("task_set", task_set)
      .str();
}

[[nodiscard]] std::string analyze_request(
    const std::vector<std::string>& queries) {
  return io::json::Object{}
      .add_string("type", "analyze")
      .add_raw("queries", io::json::array(queries))
      .str();
}

/// The response from `"results":` to the end — the part the
/// determinism contract covers (everything but count/cache_hits).
[[nodiscard]] std::string results_slice(const std::string& response) {
  const auto pos = response.find("\"results\":");
  EXPECT_NE(pos, std::string::npos) << response;
  return response.substr(pos);
}

TEST(Server, AnswersPing) {
  Server server;
  // No trace_id in the request: the server synthesizes one ("t-<n>",
  // starting at 0) and reports it right after the type.
  EXPECT_EQ(server.handle("{\"type\":\"ping\"}"),
            "{\"type\":\"pong\",\"trace_id\":\"t-0\"}");
}

TEST(Server, EchoesTheCallersTraceId) {
  Server server;
  EXPECT_EQ(server.handle("{\"type\":\"ping\",\"trace_id\":\"req-42\"}"),
            "{\"type\":\"pong\",\"trace_id\":\"req-42\"}");
  // Synthesized IDs keep counting across requests.
  EXPECT_EQ(server.handle("{\"type\":\"ping\"}"),
            "{\"type\":\"pong\",\"trace_id\":\"t-0\"}");
  EXPECT_EQ(server.handle("{\"type\":\"ping\"}"),
            "{\"type\":\"pong\",\"trace_id\":\"t-1\"}");
}

TEST(Server, ErrorResponsesCarryTheTraceId) {
  Server server;
  const auto doc = io::json::parse(
      server.handle("{\"type\":\"launch\",\"trace_id\":\"oops-1\"}"));
  EXPECT_EQ(doc.at("type").as_string(), "error");
  EXPECT_EQ(doc.at("trace_id").as_string(), "oops-1");
}

TEST(Server, MetricsRequestReturnsRegistrySnapshot) {
  Server server;
  const std::string response = server.handle("{\"type\":\"metrics\"}");
  const auto doc = io::json::parse(response);
  EXPECT_EQ(doc.at("type").as_string(), "metrics");
  // The serve counters registered in the global registry must appear
  // once obs is enabled; when disabled the snapshot is a valid
  // (possibly empty) object either way — parseability is the contract.
  (void)doc.at("metrics");
}

TEST(Server, ShutdownRequestSetsFlagAndAnswersBye) {
  Server server;
  EXPECT_FALSE(server.shutdown_requested());
  EXPECT_EQ(server.handle("{\"type\":\"shutdown\"}"),
            "{\"type\":\"bye\",\"trace_id\":\"t-0\"}");
  EXPECT_TRUE(server.shutdown_requested());
}

TEST(Server, MalformedJsonAnswersErrorNotThrow) {
  Server server;
  const std::string response = server.handle("{\"type\":");
  const auto doc = io::json::parse(response);
  EXPECT_EQ(doc.at("type").as_string(), "error");
}

TEST(Server, UnknownTypeAnswersError) {
  Server server;
  const auto doc = io::json::parse(server.handle("{\"type\":\"launch\"}"));
  EXPECT_EQ(doc.at("type").as_string(), "error");
}

TEST(Server, AnalyzeWithoutQueriesAnswersError) {
  Server server;
  const auto doc = io::json::parse(server.handle("{\"type\":\"analyze\"}"));
  EXPECT_EQ(doc.at("type").as_string(), "error");
}

// The core property: a served FT-S answer is byte-for-byte the JSON of
// the same analysis run locally. No server-side floating-point detour,
// no reordering, no reformatting.
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

/// Spans named `name` the global recorder holds so far.
[[nodiscard]] std::size_t spans_named(const std::string& name) {
  const io::json::Value doc =
      io::json::parse(obs::SpanRecorder::global().chrome_trace_json());
  std::size_t n = 0;
  for (const io::json::Value& event : doc.at("traceEvents").items()) {
    if (event.at("ph").as_string() == "B" &&
        event.at("name").as_string() == name) {
      ++n;
    }
  }
  return n;
}

TEST(Server, RecordsNoSpansWithoutTracing) {
  const obs::SpanRecorder& spans = obs::SpanRecorder::global();
  ASSERT_FALSE(spans.is_enabled());
  const std::size_t lanes = spans.lane_count();
  const std::uint64_t events = spans.total_events();
  ServerOptions options;
  options.threads = 2;
  Server server(options);
  (void)server.handle(analyze_request(
      {fts_query(task_set_json(41)), fts_query(task_set_json(42))}));
  EXPECT_EQ(spans.total_events(), events);
  EXPECT_EQ(spans.lane_count(), lanes);
}

TEST(Server, TracingRecordsTheRequestSpans) {
  const std::vector<std::string> names = {"request", "parse", "lookup",
                                          "analyze", "respond"};
  std::map<std::string, std::size_t> before;
  for (const std::string& name : names) before[name] = spans_named(name);
  {
    Tracing tracing;
    Server server;
    (void)server.handle(analyze_request({fts_query(task_set_json(43))}));
  }
  for (const std::string& name : names) {
    EXPECT_EQ(spans_named(name) - before[name], 1u) << name;
  }
}

TEST(Server, TracedConcurrentAnalyzeRequestsRecordEverySpan) {
  // Four serving threads on cache misses, each request an analyze region
  // of two threads: every writer needs a lane of its own (the sanitizer
  // job runs this under TSan).
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRequests = 6;
  ServerOptions options;
  options.threads = 2;
  Server server(options);
  const std::size_t requests0 = spans_named("request");
  const std::size_t chunks0 = spans_named("serve");
  {
    Tracing tracing;
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&server, c] {
        for (std::size_t r = 0; r < kRequests; ++r) {
          const std::uint64_t seed = 100 + c * kRequests + r;
          const std::string response = server.handle(
              analyze_request({fts_query(task_set_json(seed)),
                               fts_query(task_set_json(seed + 1000))}));
          EXPECT_EQ(io::json::parse(response).at("cache_hits").as_uint64(),
                    0u);
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  EXPECT_EQ(spans_named("request") - requests0, kClients * kRequests);
  // One chunk span per computed query.
  EXPECT_EQ(spans_named("serve") - chunks0, 2 * kClients * kRequests);
}

TEST(Server, FtsAnswerIsBitIdenticalToLocalAnalysis) {
  const std::string ts_json = task_set_json(7);
  const core::FtTaskSet ts =
      io::task_set_from_json(io::json::parse(ts_json));
  core::FtsConfig config;
  config.test = campaign::make_fts_test(campaign::Scheduler::kEdfVdKilling);
  const std::string local =
      io::fts_result_to_json(core::ft_schedule(ts, config));

  Server server;
  const std::string response =
      server.handle(analyze_request({fts_query(ts_json)}));
  const std::string expected_item = io::json::Object{}
                                        .add_bool("ok", true)
                                        .add_string("query", "fts")
                                        .add_raw("answer", local)
                                        .str();
  const std::string expected = io::json::Object{}
                                   .add_string("type", "result")
                                   .add_string("trace_id", "t-0")
                                   .add_int("count", 1)
                                   .add_int("cache_hits", 0)
                                   .add_raw("results",
                                            io::json::array({expected_item}))
                                   .str();
  EXPECT_EQ(response, expected);
}

TEST(Server, ResultsAreIdenticalForEveryThreadCount) {
  std::vector<std::string> queries;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    queries.push_back(
        fts_query(task_set_json(seed, 0.3 + 0.05 * double(seed % 5))));
  }
  const std::string request = analyze_request(queries);

  ServerOptions serial;
  serial.threads = 1;
  Server server_serial(serial);
  ServerOptions wide;
  wide.threads = 4;
  Server server_wide(wide);
  // Fresh servers, empty caches: the full responses (cache_hits
  // included) must match byte for byte.
  EXPECT_EQ(server_serial.handle(request), server_wide.handle(request));
}

TEST(Server, WarmCacheChangesOnlyCacheHits) {
  std::vector<std::string> queries;
  for (std::uint64_t seed = 20; seed <= 25; ++seed) {
    queries.push_back(fts_query(task_set_json(seed)));
  }
  const std::string request = analyze_request(queries);
  Server server;
  const std::string cold = server.handle(request);
  const std::string warm = server.handle(request);
  EXPECT_EQ(io::json::parse(cold).at("cache_hits").as_uint64(), 0u);
  EXPECT_EQ(io::json::parse(warm).at("cache_hits").as_uint64(),
            queries.size());
  // The determinism contract: the results array is a pure function of
  // the request — cached answers are the same bytes as computed ones.
  EXPECT_EQ(results_slice(cold), results_slice(warm));
}

TEST(Server, BadQueryDoesNotPoisonItsNeighbors) {
  const std::string good = fts_query(task_set_json(3));
  const std::string bad =
      "{\"query\":\"fts\",\"scheduler\":\"round_robin\",\"task_set\":" +
      task_set_json(3) + "}";
  Server server;
  const auto doc =
      io::json::parse(server.handle(analyze_request({bad, good, bad})));
  ASSERT_EQ(doc.at("type").as_string(), "result");
  const auto& results = doc.at("results").items();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].at("ok").as_bool());
  EXPECT_TRUE(results[1].at("ok").as_bool());
  EXPECT_FALSE(results[2].at("ok").as_bool());
  EXPECT_NE(results[0].at("error").as_string().find("round_robin"),
            std::string::npos);
}

TEST(Server, UnknownQueryKeyIsRejectedPerQuery) {
  Server server;
  const std::string query =
      "{\"query\":\"fts\",\"bogus\":1,\"task_set\":" + task_set_json(3) +
      "}";
  const auto doc = io::json::parse(server.handle(analyze_request({query})));
  const auto& results = doc.at("results").items();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].at("ok").as_bool());
}

TEST(Server, SweepQueryAnswersProfilePoints) {
  Server server;
  const std::string query = io::json::Object{}
                                .add_string("query", "sweep")
                                .add_raw("task_set", task_set_json(5))
                                .str();
  const auto doc = io::json::parse(server.handle(analyze_request({query})));
  const auto& results = doc.at("results").items();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].at("ok").as_bool());
  const auto& answer = results[0].at("answer");
  EXPECT_GE(answer.at("n_hi").as_uint64(), 1u);
  EXPECT_GE(answer.at("points").items().size(), 1u);
}

TEST(Server, SensitivityQueryAnswersScaling) {
  Server server;
  const std::string query =
      io::json::Object{}
          .add_string("query", "sensitivity")
          .add_string("scheduler", "amc_rtb")
          .add_raw("task_set", task_set_json(5, 0.3))
          .str();
  const auto doc = io::json::parse(server.handle(analyze_request({query})));
  const auto& results = doc.at("results").items();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].at("ok").as_bool());
  const auto& answer = results[0].at("answer");
  (void)answer.at("fts");
  (void)answer.at("max_wcet_scaling").as_number();
  (void)answer.at("schedulable_as_given").as_bool();
}

TEST(Server, DegradationFactorIsValidated) {
  Server server;
  const std::string query = io::json::Object{}
                                .add_string("query", "fts")
                                .add_string("scheduler",
                                            "edf_vd_degradation")
                                .add_number("degradation_factor", 0.5)
                                .add_raw("task_set", task_set_json(5))
                                .str();
  const auto doc = io::json::parse(server.handle(analyze_request({query})));
  EXPECT_FALSE(doc.at("results").items()[0].at("ok").as_bool());
}

// The cache key canonicalizes result-irrelevant fields away: for a
// killing-family scheduler the degradation factor does not influence
// the analysis, so two queries differing only there must share a cache
// entry (second request = pure hits).
TEST(Server, CacheKeyNormalizesIrrelevantDegradationFactor) {
  const std::string ts = task_set_json(9);
  auto query_with_df = [&](double df) {
    return io::json::Object{}
        .add_string("query", "fts")
        .add_string("scheduler", "edf_vd_killing")
        .add_number("degradation_factor", df)
        .add_raw("task_set", ts)
        .str();
  };
  Server server;
  const auto first = io::json::parse(
      server.handle(analyze_request({query_with_df(2.0)})));
  const auto second = io::json::parse(
      server.handle(analyze_request({query_with_df(8.0)})));
  EXPECT_EQ(first.at("cache_hits").as_uint64(), 0u);
  EXPECT_EQ(second.at("cache_hits").as_uint64(), 1u);
}

TEST(Server, AdmitQueryReportsPerTaskVerdictsAndAuditTrail) {
  Server server;
  const std::string query = io::json::Object{}
                                .add_string("query", "admit")
                                .add_string("scheduler", "edf_vd_killing")
                                .add_int("n_hi", 2)
                                .add_int("n_lo", 2)
                                .add_int("n_adapt", 1)
                                .add_raw("task_set", task_set_json(5, 0.3))
                                .str();
  const auto doc = io::json::parse(server.handle(analyze_request({query})));
  const auto& results = doc.at("results").items();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].at("ok").as_bool()) << results[0].at("error")
                                                    .as_string();
  const auto& answer = results[0].at("answer");
  (void)answer.at("admitted").as_bool();
  (void)answer.at("vd_schedulable").as_bool();
  EXPECT_GT(answer.at("x").as_number(), 0.0);
  const auto& tasks = answer.at("tasks").items();
  ASSERT_GE(tasks.size(), 1u);
  // One admission verdict in the black-box audit trail per task, in
  // submission order, each either "admit" or "reject" — and a rejected
  // task must carry its reason.
  const auto& records = answer.at("blackbox").items();
  ASSERT_EQ(records.size(), tasks.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].at("seq").as_uint64(), i);
    const std::string kind = records[i].at("kind").as_string();
    EXPECT_TRUE(kind == "admit" || kind == "reject") << kind;
    EXPECT_EQ(kind == "admit", tasks[i].at("admitted").as_bool());
    if (kind == "reject") {
      EXPECT_FALSE(tasks[i].at("reason").as_string().empty());
    }
  }
}

TEST(Server, AdmitQueryValidatesItsProfile) {
  Server server;
  // n_adapt >= n_hi is not a valid re-execution profile.
  const std::string query = io::json::Object{}
                                .add_string("query", "admit")
                                .add_int("n_hi", 2)
                                .add_int("n_adapt", 2)
                                .add_raw("task_set", task_set_json(5))
                                .str();
  const auto doc = io::json::parse(server.handle(analyze_request({query})));
  EXPECT_FALSE(doc.at("results").items()[0].at("ok").as_bool());
}

TEST(Server, AdmitQueryNamesATaskOutsideTheTickRange) {
  Server server;
  // 1e300 ms is a finite positive period, so the task set parses, but it
  // lies far beyond the simulator's 2^63-tick range: converting it with a
  // bare cast would be undefined behaviour.
  const std::string task_set = R"({"hi_dal":"B","lo_dal":"D","tasks":[
      {"name":"ctl","period_ms":100,"wcet_ms":5,"dal":"B",
       "failure_prob":1e-5},
      {"name":"big","period_ms":1e300,"wcet_ms":1,"dal":"D",
       "failure_prob":1e-5}]})";
  const std::string query = io::json::Object{}
                                .add_string("query", "admit")
                                .add_int("n_hi", 2)
                                .add_int("n_lo", 1)
                                .add_int("n_adapt", 1)
                                .add_raw("task_set", task_set)
                                .str();
  const auto doc = io::json::parse(server.handle(analyze_request({query})));
  const auto& result = doc.at("results").items()[0];
  EXPECT_FALSE(result.at("ok").as_bool());
  const std::string error = result.at("error").as_string();
  EXPECT_NE(error.find("task 'big': period 1e+300 ms"), std::string::npos)
      << error;
}

TEST(Server, ExposeAnswersPrometheusText) {
  Server server;
  const auto doc = io::json::parse(server.handle("{\"type\":\"expose\"}"));
  EXPECT_EQ(doc.at("type").as_string(), "expose");
  EXPECT_EQ(doc.at("content_type").as_string(),
            "text/plain; version=0.0.4; charset=utf-8");
  const std::string body = doc.at("body").as_string();
  // The global registry may be disabled (empty body) or enabled via
  // FTMC_OBS; either way the body must never leak the JSON snapshot's
  // "inf" spellings and every TYPE line must name a known type.
  EXPECT_EQ(body.find("\"inf\""), std::string::npos) << body;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    const bool known = line.find(" counter") != std::string::npos ||
                       line.find(" gauge") != std::string::npos ||
                       line.find(" histogram") != std::string::npos;
    EXPECT_TRUE(known) << line;
  }
}

TEST(Server, SnapshotFromJsonRoundTripsTheRegistry) {
  obs::Registry reg(/*enabled=*/true);
  reg.counter("trip.count").inc(7);
  reg.gauge("trip.gauge").set(2.5);
  reg.gauge("trip.inf").set(std::numeric_limits<double>::infinity());
  obs::Histogram h = reg.histogram("trip.lat", {1.0, 10.0});
  h.observe(0.5);
  h.observe(100.0);

  const obs::Snapshot original = reg.snapshot();
  const obs::Snapshot rebuilt =
      snapshot_from_json(io::json::parse(reg.snapshot_json()));

  ASSERT_EQ(rebuilt.counters.size(), original.counters.size());
  EXPECT_EQ(rebuilt.counters, original.counters);
  ASSERT_EQ(rebuilt.gauges.size(), original.gauges.size());
  for (std::size_t i = 0; i < original.gauges.size(); ++i) {
    EXPECT_EQ(rebuilt.gauges[i].first, original.gauges[i].first);
    EXPECT_EQ(rebuilt.gauges[i].second, original.gauges[i].second);
  }
  ASSERT_EQ(rebuilt.histograms.size(), original.histograms.size());
  for (std::size_t i = 0; i < original.histograms.size(); ++i) {
    const obs::HistogramSnapshot& a = original.histograms[i];
    const obs::HistogramSnapshot& b = rebuilt.histograms[i];
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(b.bounds, a.bounds);
    EXPECT_EQ(b.counts, a.counts);
    EXPECT_EQ(b.count, a.count);
    EXPECT_DOUBLE_EQ(b.sum, a.sum);
  }
  // The rebuilt snapshot renders the same exposition text — this is the
  // --obs-export path (BENCH_*.json in, Prometheus text out).
  EXPECT_EQ(obs::to_prometheus(rebuilt), obs::to_prometheus(original));
}

TEST(Server, SnapshotFromJsonRejectsInconsistentHistograms) {
  // counts must have bounds.size()+1 entries and sum to count.
  EXPECT_THROW(
      (void)snapshot_from_json(io::json::parse(
          R"({"counters":{},"gauges":{},"histograms":{)"
          R"("h":{"count":2,"sum":1.0,"bounds":[1.0],"counts":[1]}}})")),
      std::exception);
  EXPECT_THROW(
      (void)snapshot_from_json(io::json::parse(
          R"({"counters":{},"gauges":{},"histograms":{)"
          R"("h":{"count":5,"sum":1.0,"bounds":[1.0],"counts":[1,1]}}})")),
      std::exception);
}

TEST(Server, BoundedCacheDeclinesButStaysCorrect) {
  ServerOptions options;
  options.cache_entries = 1;
  Server server(options);
  const std::string q1 = fts_query(task_set_json(31));
  const std::string q2 = fts_query(task_set_json(32));
  const std::string r1 = server.handle(analyze_request({q1}));
  (void)server.handle(analyze_request({q2}));  // declined by the cache
  // q2 is recomputed every time, q1 stays cached; answers never change.
  const std::string r1_again = server.handle(analyze_request({q1}));
  EXPECT_EQ(results_slice(r1), results_slice(r1_again));
  EXPECT_EQ(io::json::parse(r1_again).at("cache_hits").as_uint64(), 1u);
}

}  // namespace
}  // namespace ftmc::serve
