/// Golden responses: the exact bytes ftmc_serve answers, pinned.
///
/// server_test checks properties of answers (served equals local
/// analysis, threads and cache state never change results). This test
/// pins the answers themselves: a fixed corpus of requests runs through
/// one fresh Server, and each response is folded into a 64-bit FNV-1a
/// digest and compared with constants recorded before the JSON writer
/// moved from std::ostringstream to std::to_chars and before analyze
/// requests were parsed once instead of twice. The corpus covers every
/// query kind (fts, sweep, sensitivity, admit) under every scheduler
/// name, both adaptations, repeated batches answered from the cache,
/// queries that fail to parse or to analyze, names that need escaping,
/// and malformed requests.
///
/// The task sets come from taskgen, whose draws use libstdc++'s
/// std::mt19937_64 and its distributions; a different standard library
/// draws differently and needs new constants. A mismatch prints every
/// recorded {length, digest} pair so a deliberate change to an answer
/// can re-record them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ftmc/io/json.hpp"
#include "ftmc/serve/server.hpp"
#include "ftmc/taskgen/generator.hpp"

namespace ftmc::serve {
namespace {

[[nodiscard]] std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

[[nodiscard]] std::string task_set_json(std::uint64_t seed,
                                        double utilization) {
  taskgen::GeneratorParams params;
  params.target_utilization = utilization;
  taskgen::Rng rng(seed);
  return io::task_set_to_json(taskgen::generate_task_set(params, rng));
}

/// A hand-written set whose HI task name needs every kind of escape.
constexpr const char* kEscapedSet =
    R"({"hi_dal":"B","lo_dal":"D","tasks":[)"
    R"({"name":"q\"b\\s\n\t\u0001é😀","period_ms":60,)"
    R"("wcet_ms":5,"dal":"B","failure_prob":1e-5},)"
    R"({"name":"lo","period_ms":100,"wcet_ms":10,"failure_prob":3.3e-7}]})";

[[nodiscard]] std::string query(const std::string& kind,
                                const std::string& scheduler,
                                const std::string& task_set,
                                const std::string& extra = "") {
  return R"({"query":")" + kind + R"(","scheduler":")" + scheduler + "\"" +
         extra + R"(,"task_set":)" + task_set + "}";
}

[[nodiscard]] std::string analyze(const std::vector<std::string>& queries,
                                  const std::string& trace_id = "") {
  std::string out = R"({"type":"analyze",)";
  if (!trace_id.empty()) out += R"("trace_id":")" + trace_id + "\",";
  out += R"("queries":[)";
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (i > 0) out += ',';
    out += queries[i];
  }
  return out + "]}";
}

/// One query of every kind under every scheduler over a few generated
/// sets, the light and heavy ones both.
[[nodiscard]] std::vector<std::string> analysis_batch() {
  const std::string light = task_set_json(11, 0.35);
  const std::string medium = task_set_json(12, 0.55);
  const std::string heavy = task_set_json(13, 0.8);
  return {
      query("fts", "edf_vd_killing", light),
      query("fts", "edf_vd_killing", heavy),
      query("fts", "edf_vd_degradation", medium,
            R"(,"degradation_factor":4.5)"),
      query("fts", "amc_rtb", light),
      query("fts", "amc_rtb_opa", light),
      query("fts", "mc_dbf", light),
      query("fts", "mc_dbf", medium),
      query("fts", "edf_vd_killing", medium,
            R"(,"os_hours":10,"prefer_no_adaptation":false)"),
      query("sweep", "edf_vd_killing", light, R"(,"n_adapt_max":3)"),
      query("sweep", "edf_vd_degradation", medium),
      query("sensitivity", "edf_vd_killing", light),
      query("sensitivity", "mc_dbf", light),
      query("sensitivity", "edf_vd_degradation", heavy),
      query("admit", "edf_vd_killing", light),
      query("admit", "edf_vd_degradation", medium,
            R"(,"n_hi":3,"n_lo":2,"n_adapt":2)"),
      query("admit", "edf_vd_killing", heavy, R"(,"n_hi":2,"n_adapt":0)"),
      query("fts", "edf_vd_killing", kEscapedSet),
      query("admit", "edf_vd_degradation", kEscapedSet),
  };
}

/// The request corpus, in the order one server sees it.
[[nodiscard]] std::vector<std::string> corpus() {
  const std::vector<std::string> batch = analysis_batch();
  const std::string light = task_set_json(11, 0.35);
  const std::string fresh = task_set_json(14, 0.45);
  std::vector<std::string> out = {
      R"({"type":"ping"})",
      R"({"type":"ping","trace_id":"golden-1"})",
      analyze(batch, "batch-cold"),
      analyze(batch),  // every query a cache hit
      // Hits, misses and per-query errors side by side.
      analyze({query("fts", "edf_vd_killing", light),
               query("fts", "edf_vd_killing", fresh),
               query("launch", "edf_vd_killing", light),
               query("fts", "rate_monotonic", light),
               query("fts", "edf_vd_killing", light, R"(,"typo":1)"),
               query("admit", "edf_vd_killing", light, R"(,"n_adapt":2)"),
               query("fts", "edf_vd_degradation", light,
                     R"(,"degradation_factor":1)"),
               R"({"query":"fts","scheduler":"edf_vd_killing"})",
               query("fts", "edf_vd_killing",
                     R"({"hi_dal":"B","lo_dal":"D","tasks":[)"
                     R"({"name":"x","period_ms":10,"wcet_ms":1,"dal":"Z"}]})"),
               "17"}),
      analyze({}),
      // Malformed requests.
      R"({"type":)",
      R"({"type":"analyze"})",
      R"({"type":"analyze","queries":{}})",
      R"({"type":"launch","trace_id":"t\"q"})",
      R"({"type":5})",
      R"([1,2])",
      R"({"type":"analyze","queries":[]} x)",
      R"({"type":"analyze","queries":[],"queries":[]})",
      "",
      R"({"type":"shutdown"})",
  };
  return out;
}

struct Recorded {
  std::size_t length;
  std::uint64_t digest;
};

// Recorded on the std::ostringstream writer with the double-parse intake.
const Recorded kRecorded[] = {
    {32, 0xd408d5e821ad8729ULL},   {37, 0x7d6b230a3f720ae1ULL},
    {8240, 0x2af587d6e035ac84ULL}, {8234, 0xe2d4ad1d20ff6d7aULL},
    {1338, 0xbaebc1b48eb336dfULL}, {72, 0x9052229682a00a51ULL},
    {85, 0x1ef3a4943ead8e36ULL},   {73, 0x01a88e2813342851ULL},
    {76, 0x97c20f67363905afULL},   {76, 0xfa91dbd64964a80bULL},
    {77, 0x3732d8fb0c6b24caULL},   {76, 0x6808ded752e4e8abULL},
    {97, 0xfc4c463c035ca3faULL},   {89, 0xf50e6e8a1ee8fcd8ULL},
    {86, 0xce0e51e73c0f7b7cULL},   {32, 0xcf546866a1e7e89cULL},
};

void expect_corpus(int threads) {
  ServerOptions options;
  options.threads = threads;
  Server server(options);
  const std::vector<std::string> requests = corpus();
  std::vector<Recorded> got;
  for (const std::string& request : requests) {
    const std::string response = server.handle(request);
    got.push_back({response.size(), fnv1a(response)});
  }
  EXPECT_EQ(got.size(), std::size(kRecorded));
  bool all_match = got.size() == std::size(kRecorded);
  for (std::size_t i = 0; all_match && i < got.size(); ++i) {
    EXPECT_EQ(got[i].length, kRecorded[i].length) << "request " << i;
    EXPECT_EQ(got[i].digest, kRecorded[i].digest) << "request " << i;
    all_match = all_match && got[i].length == kRecorded[i].length &&
                got[i].digest == kRecorded[i].digest;
  }
  if (!all_match) {
    std::string table;
    for (const Recorded& r : got) {
      char line[64];
      std::snprintf(line, sizeof(line), "    {%zu, 0x%016llxULL},\n",
                    r.length, static_cast<unsigned long long>(r.digest));
      table += line;
    }
    ADD_FAILURE() << "recorded (threads " << threads << "):\n" << table;
  }
}

TEST(ServeGolden, ResponsesMatchRecordedDigestsSerial) { expect_corpus(1); }

TEST(ServeGolden, ResponsesMatchRecordedDigestsOnTwoThreads) {
  expect_corpus(2);
}

TEST(ServeGolden, ContractErrorsNameSourcesRelativeToTheRepository) {
  // EDF-VD takes implicit deadlines only, so line 8 of FT-S breaks its
  // contract on this set. The answer quotes the failed check's location;
  // it must read the same from every checkout.
  const std::string constrained =
      R"({"hi_dal":"B","lo_dal":"D","tasks":[)"
      R"({"name":"h","period_ms":100,"deadline_ms":90,"wcet_ms":25,)"
      R"("dal":"B","failure_prob":1e-5},)"
      R"({"name":"l","period_ms":100,"wcet_ms":40,"dal":"D",)"
      R"("failure_prob":1e-5}]})";
  Server server(ServerOptions{});
  const std::string response = server.handle(
      analyze({query("fts", "edf_vd_killing", constrained)}));
  EXPECT_NE(response.find("at src/mcs/src/edf_vd.cpp:"), std::string::npos)
      << response;
  EXPECT_EQ(response.find(FTMC_TEST_SOURCE_DIR), std::string::npos)
      << response;
}

}  // namespace
}  // namespace ftmc::serve
