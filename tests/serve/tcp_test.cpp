/// \file tcp_test.cpp
/// \brief Transport tests against a real loopback listener: round
///        trips, concurrent clients, protocol violations, shutdown.
///
/// Each fixture binds an ephemeral port (port 0) so parallel ctest
/// invocations never collide.
#include "ftmc/serve/tcp.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "ftmc/io/json.hpp"
#include "ftmc/net/socket.hpp"
#include "ftmc/serve/server.hpp"

namespace ftmc::serve {
namespace {

using net::FramedClient;

class TcpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.max_frame_bytes = 1u << 16;  // small cap: cheap to violate
    engine_ = std::make_unique<Server>(options);
    listener_ = std::make_unique<TcpServer>(*engine_, TcpOptions{});
    accept_thread_ = std::thread([this] { listener_->serve(); });
  }

  void TearDown() override {
    listener_->stop();
    accept_thread_.join();
  }

  [[nodiscard]] FramedClient connect() {
    return FramedClient("127.0.0.1", listener_->port());
  }

  std::unique_ptr<Server> engine_;
  std::unique_ptr<TcpServer> listener_;
  std::thread accept_thread_;
};

TEST_F(TcpTest, PingRoundTrip) {
  FramedClient client = connect();
  EXPECT_EQ(client.call("{\"type\":\"ping\",\"trace_id\":\"t\"}"),
            "{\"type\":\"pong\",\"trace_id\":\"t\"}");
}

TEST_F(TcpTest, MultipleRequestsOnOneConnection) {
  FramedClient client = connect();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(client.call("{\"type\":\"ping\",\"trace_id\":\"t\"}"),
              "{\"type\":\"pong\",\"trace_id\":\"t\"}");
  }
}

TEST_F(TcpTest, ConcurrentClientsAllGetAnswers) {
  constexpr int kClients = 8;
  constexpr int kCallsEach = 5;
  std::vector<std::thread> threads;
  std::vector<int> ok(kClients, 0);
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &ok] {
      FramedClient client = connect();
      for (int i = 0; i < kCallsEach; ++i) {
        if (client.call("{\"type\":\"ping\",\"trace_id\":\"t\"}") ==
            "{\"type\":\"pong\",\"trace_id\":\"t\"}") {
          ++ok[static_cast<std::size_t>(c)];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(ok[c], kCallsEach);
}

TEST_F(TcpTest, MalformedBodyKeepsConnectionAlive) {
  FramedClient client = connect();
  const auto doc = io::json::parse(client.call("this is not json"));
  EXPECT_EQ(doc.at("type").as_string(), "error");
  // Body-level errors are per-request; the connection stays usable.
  EXPECT_EQ(client.call("{\"type\":\"ping\",\"trace_id\":\"t\"}"),
            "{\"type\":\"pong\",\"trace_id\":\"t\"}");
}

TEST_F(TcpTest, OversizedFrameAnswersErrorAndCloses) {
  FramedClient client = connect();
  // Length claim above the server's 64 KiB cap, no body.
  std::string header;
  header += '\x00';
  header += '\x10';  // 0x00100000 = 1 MiB
  header += '\x00';
  header += '\x00';
  client.send_raw(header);
  const auto doc = io::json::parse(client.read_response());
  EXPECT_EQ(doc.at("type").as_string(), "error");
  // A framing violation is unrecoverable: the server hangs up.
  EXPECT_THROW((void)client.read_response(), std::runtime_error);
}

TEST_F(TcpTest, AnalyzeOverTcpMatchesInProcessEngine) {
  const std::string request =
      "{\"type\":\"analyze\",\"queries\":[{\"query\":\"fts\","
      "\"task_set\":{\"hi_dal\":\"A\",\"lo_dal\":\"C\",\"tasks\":["
      "{\"name\":\"t1\",\"period_ms\":100,\"wcet_ms\":10,\"dal\":\"A\","
      "\"failure_prob\":1e-6}]}}]}";
  // A fresh engine with the same options answers identically — the
  // transport adds framing, never content (cache_hits: both cold).
  ServerOptions options;
  options.max_frame_bytes = 1u << 16;
  Server local(options);
  FramedClient client = connect();
  EXPECT_EQ(client.call(request), local.handle(request));
}

TEST_F(TcpTest, ShutdownRequestStopsTheListener) {
  FramedClient client = connect();
  EXPECT_EQ(client.call("{\"type\":\"shutdown\",\"trace_id\":\"t\"}"),
            "{\"type\":\"bye\",\"trace_id\":\"t\"}");
  // serve() must return on its own now; TearDown's stop() is then a
  // no-op. Joining here (with a deadline enforced by ctest timeouts)
  // is the assertion.
  accept_thread_.join();
  EXPECT_TRUE(engine_->shutdown_requested());
  accept_thread_ = std::thread([] {});  // keep TearDown's join valid
}

TEST(TcpServer, BindsEphemeralPortAndReportsIt) {
  Server engine;
  TcpServer listener(engine, TcpOptions{});
  EXPECT_GT(listener.port(), 0);
}

TEST(TcpServer, RejectsBadBindAddress) {
  Server engine;
  TcpOptions options;
  options.bind_address = "not-an-address";
  EXPECT_THROW(TcpServer(engine, options), std::runtime_error);
}

TEST(TcpServer, TruncatedStreamIsCountedNotFatal) {
  Server engine;
  TcpServer listener(engine, TcpOptions{});
  std::thread accept_thread([&] { listener.serve(); });
  {
    FramedClient client("127.0.0.1", listener.port());
    std::string partial;
    partial += '\x00';
    partial += '\x00';
    partial += '\x00';
    partial += '\x08';
    partial += "ab";  // 2 of 8 promised bytes, then EOF
    client.send_raw(partial);
  }  // destructor closes the socket mid-frame
  // The server must survive the truncated stream and keep serving.
  FramedClient client("127.0.0.1", listener.port());
  EXPECT_EQ(client.call("{\"type\":\"ping\",\"trace_id\":\"t\"}"),
            "{\"type\":\"pong\",\"trace_id\":\"t\"}");
  listener.stop();
  accept_thread.join();
}

}  // namespace
}  // namespace ftmc::serve
