// Transport-level tests for the HTTP/1.1 front end: well-formed round trips
// through HttpClient, and the hostile-client cases (malformed bodies,
// oversized heads, slowloris trickle, bad framing) that must be answered
// with the right 4xx/5xx instead of a hang or a crash.

#include "server/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "engine_test_peer.h"
#include "server/api.h"
#include "server/client.h"
#include "server/registry.h"
#include "syntax/parser.h"
#include "util/json.h"

namespace owlqr {
namespace {

constexpr char kOntology[] = R"(
    Professor SUB EX teaches
    EX teaches- SUB Course
    lectures SUBR teaches
)";
constexpr char kData[] = "Professor(ann).\nlectures(bob, algebra).\n";
constexpr char kQuery[] = "q(x) :- teaches(x, y), Course(y)";

// A hand-driven connection for requests HttpClient refuses to produce.
class RawConn {
 public:
  explicit RawConn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ =
        fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  bool Send(const std::string& data) {
    return ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(data.size());
  }

  // Blocks until the status line arrives; returns its numeric code (0 on a
  // closed/failed read).
  int ReadStatus() {
    std::string buf;
    char chunk[512];
    while (buf.find("\r\n") == std::string::npos) {
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buf.append(chunk, static_cast<size_t>(n));
    }
    if (buf.rfind("HTTP/1.1 ", 0) != 0 || buf.size() < 12) return 0;
    return std::atoi(buf.c_str() + 9);
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

class HttpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_ = std::make_unique<server::EngineRegistry>();
    ASSERT_TRUE(registry_->RegisterParsed("uni", kOntology, kData).ok());
    service_ = std::make_unique<api::Service>(registry_.get());
    server::HttpServerOptions options;
    options.num_workers = 2;
    options.max_header_bytes = 1024;
    options.max_body_bytes = 2048;
    options.header_timeout_ms = 300;  // Fast slowloris verdicts.
    options.io_timeout_ms = 5000;
    options.watch_poll_ms = 20;
    server_ = std::make_unique<server::HttpServer>(service_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override { server_->Stop(); }

  std::string ExecutePath() const { return "/v1/t/uni/execute"; }

  std::unique_ptr<server::EngineRegistry> registry_;
  std::unique_ptr<api::Service> service_;
  std::unique_ptr<server::HttpServer> server_;
};

TEST_F(HttpServerTest, ExecuteRoundTripsThroughTheClient) {
  server::HttpClient client("127.0.0.1", server_->port());
  api::WireExecuteRequest request;
  request.query = kQuery;
  api::WireExecuteResult result;
  ASSERT_TRUE(client.Execute("uni", request, &result).ok());
  ASSERT_EQ(result.answers.size(), 2u);
  EXPECT_EQ(result.snapshot_version, 1u);
  EXPECT_GT(result.goal_tuples, 0);
}

// Admission sheds deterministically: with the tenant's only execution slot
// held, an execute that may not queue is answered 429 at once, and the body
// is still a full execute result with status REJECTED.
TEST_F(HttpServerTest, ShedsWhenTheSlotIsHeld) {
  server::RegistryOptions registry_options;
  registry_options.max_tenants = 1;
  registry_options.process_slots = 1;
  server::EngineRegistry registry(registry_options);
  std::shared_ptr<server::Tenant> tenant;
  ASSERT_TRUE(
      registry.RegisterParsed("uni", kOntology, kData, &tenant).ok());
  api::Service service(&registry);
  server::HttpServer http(&service, server::HttpServerOptions{});
  ASSERT_TRUE(http.Start().ok());
  server::HttpClient client("127.0.0.1", http.port());
  api::WireExecuteRequest request;
  request.query = kQuery;
  request.exec.queue_timeout_ms = 0;
  const std::string body_json = api::ExecuteRequestToJson(request);
  {
    QueryGovernor::Admission held =
        EngineTestPeer::HoldSlot(*tenant->engine());
    ASSERT_TRUE(held.admitted());
    int status = 0;
    std::string body;
    ASSERT_TRUE(client.Post(ExecutePath(), body_json, &status, &body).ok());
    EXPECT_EQ(status, 429);
    JsonValue parsed;
    ASSERT_TRUE(JsonValue::Parse(body, &parsed)) << body;
    api::WireExecuteResult result;
    ASSERT_TRUE(api::ExecuteResultFromJson(parsed, &result).ok()) << body;
    EXPECT_EQ(result.status.code(), StatusCode::kRejected);
    EXPECT_TRUE(result.answers.empty());
  }
  // The slot is free again: the same request is admitted and answered.
  int status = 0;
  std::string body;
  ASSERT_TRUE(client.Post(ExecutePath(), body_json, &status, &body).ok());
  EXPECT_EQ(status, 200) << body;
  EXPECT_EQ(tenant->engine()->governor_counters().rejected(), 1);
  http.Stop();
}

// A body larger than the loopback send buffer's 4 MB ceiling: the server
// sends it in pieces and the client reassembles it byte-identical to the
// in-process encoding of the same execution.
TEST_F(HttpServerTest, MultiMegabyteExecuteBodyRoundTripsByteIdentical) {
  constexpr int kMembers = 120'000;
  std::string data;
  for (int i = 0; i < kMembers; ++i) {
    data += "Member(individual_with_a_long_name_" + std::to_string(i) + ")\n";
  }
  std::shared_ptr<server::Tenant> tenant;
  ASSERT_TRUE(
      registry_->RegisterParsed("big", "Member SUB Person\n", data, &tenant)
          .ok());
  api::WireExecuteRequest request;
  request.query = "q(x) :- Person(x)";

  server::HttpClient client("127.0.0.1", server_->port());
  int http_status = 0;
  std::string body;
  ASSERT_TRUE(client
                  .Post("/v1/t/big/execute", api::ExecuteRequestToJson(request),
                        &http_status, &body)
                  .ok());
  EXPECT_EQ(http_status, 200);
  EXPECT_GE(body.size(), 4u << 20);
  // The keep-alive connection stays usable after the large response (sent
  // at once: the fixture closes idle connections after 300 ms).
  api::WireExecuteRequest small;
  small.query = kQuery;
  api::WireExecuteResult result;
  ASSERT_TRUE(client.Execute("uni", small, &result).ok());
  EXPECT_EQ(result.answers.size(), 2u);

  std::optional<ConjunctiveQuery> query =
      ParseQuery(request.query, tenant->vocabulary(), nullptr);
  ASSERT_TRUE(query.has_value());
  PrepareResult prepared = tenant->engine()->Prepare(*query);
  ASSERT_TRUE(prepared.ok()) << prepared.status.ToString();
  ExecuteResult in_process = tenant->engine()->Execute(*prepared.query);
  ASSERT_EQ(in_process.answers.size(), static_cast<size_t>(kMembers));
  const std::string expected =
      api::ExecuteResultToJson(in_process, *tenant->vocabulary());
  EXPECT_EQ(body.size(), expected.size());
  EXPECT_TRUE(body == expected);  // Not EXPECT_EQ: no 4 MB failure dump.

  // A reader that stalls past the server's send timeout: the first sendmsg
  // returns short once the socket buffers fill, and the server resumes from
  // where it stopped.  The stall (600 ms) sits between one and two send
  // timeouts (400 ms), so the resumed call sees the reader drain.
  server::HttpServerOptions options;
  options.num_workers = 1;
  options.io_timeout_ms = 400;
  server::HttpServer slow_server(service_.get(), options);
  ASSERT_TRUE(slow_server.Start().ok());
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 64 << 10;  // Small, so the body cannot all sit in buffers.
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(slow_server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request_body = api::ExecuteRequestToJson(request);
  const std::string raw = "POST /v1/t/big/execute HTTP/1.1\r\nHost: x\r\n"
                          "Content-Length: " +
                          std::to_string(request_body.size()) +
                          "\r\nConnection: close\r\n\r\n" + request_body;
  ASSERT_EQ(::send(fd, raw.data(), raw.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(raw.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  std::string response;
  char chunk[1 << 16];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  slow_server.Stop();
  const size_t head_end = response.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos);
  EXPECT_EQ(response.rfind("HTTP/1.1 200 ", 0), 0u);
  EXPECT_EQ(response.size() - head_end - 4, expected.size());
  EXPECT_TRUE(response.compare(head_end + 4, std::string::npos, expected) ==
              0);
}

TEST_F(HttpServerTest, PrepareApplyFactsStatsOverOneConnection) {
  server::HttpClient client("127.0.0.1", server_->port());
  api::WireExecuteRequest request;
  request.query = kQuery;
  std::string prepare_body;
  ASSERT_TRUE(client.Prepare("uni", request, &prepare_body).ok());
  JsonValue prepared;
  ASSERT_TRUE(JsonValue::Parse(prepare_body, &prepared));
  EXPECT_GT(prepared.Find("clauses")->AsLong(), 0);

  api::WireFactBatch batch;
  batch.roles.push_back({"lectures", "carol", "logic"});
  uint64_t version = 0;
  ASSERT_TRUE(client.ApplyFacts("uni", batch, &version).ok());
  EXPECT_EQ(version, 2u);

  QueryGovernor::Counters counters;
  ASSERT_TRUE(client.Stats("uni", &counters).ok());
  // Prepare/apply-facts do not pass the governor; only executes do.
  api::WireExecuteResult result;
  ASSERT_TRUE(client.Execute("uni", request, &result).ok());
  EXPECT_EQ(result.snapshot_version, 2u);
  ASSERT_TRUE(client.Stats("uni", &counters).ok());
  EXPECT_GE(counters.admitted, 1);
}

// The server closes a keep-alive connection that stays idle past
// header_timeout_ms.  The client's next send still succeeds and only the
// receive sees the close: an execute or a GET then goes out again on a
// fresh connection, while an apply-facts is never resent.
TEST_F(HttpServerTest, ClientSurvivesAnIdleClose) {
  server::HttpClient client("127.0.0.1", server_->port());
  api::WireExecuteRequest request;
  request.query = kQuery;
  api::WireExecuteResult result;
  ASSERT_TRUE(client.Execute("uni", request, &result).ok());
  ASSERT_EQ(result.answers.size(), 2u);

  // Past the fixture's 300 ms header timeout, on the same client.
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  Status status = client.Execute("uni", request, &result);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(result.answers.size(), 2u);

  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  QueryGovernor::Counters counters;
  status = client.Stats("uni", &counters);
  ASSERT_TRUE(status.ok()) << status.ToString();

  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  api::WireFactBatch batch;
  batch.roles.push_back({"lectures", "carol", "logic"});
  status = client.ApplyFacts("uni", batch);
  EXPECT_EQ(status.code(), StatusCode::kRejected) << status.ToString();
  // Not applied behind the caller's back: the version did not move.
  ASSERT_TRUE(client.Execute("uni", request, &result).ok());
  EXPECT_EQ(result.snapshot_version, 1u);
}

TEST_F(HttpServerTest, UnknownTenantAndPathAre404) {
  server::HttpClient client("127.0.0.1", server_->port());
  api::WireExecuteRequest request;
  request.query = kQuery;
  api::WireExecuteResult result;
  EXPECT_EQ(client.Execute("ghost", request, &result).code(),
            StatusCode::kNotFound);

  int http = 0;
  std::string body;
  ASSERT_TRUE(client.Get("/nope", &http, &body).ok());
  EXPECT_EQ(http, 404);
}

TEST_F(HttpServerTest, MalformedBodyIs400WithAnErrorEnvelope) {
  server::HttpClient client("127.0.0.1", server_->port());
  int http = 0;
  std::string body;
  ASSERT_TRUE(client.Post(ExecutePath(), "this is not json", &http, &body).ok());
  EXPECT_EQ(http, 400);
  JsonValue envelope;
  ASSERT_TRUE(JsonValue::Parse(body, &envelope));
  Status status;
  ASSERT_TRUE(api::ParseErrorBody(envelope, &status));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(HttpServerTest, WrongMethodIs405) {
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.Send("DELETE /v1/tenants HTTP/1.1\r\nHost: x\r\n\r\n"));
  EXPECT_EQ(conn.ReadStatus(), 405);
}

TEST_F(HttpServerTest, PostWithoutContentLengthIs411) {
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(
      conn.Send("POST /v1/t/uni/execute HTTP/1.1\r\nHost: x\r\n\r\n"));
  EXPECT_EQ(conn.ReadStatus(), 411);
}

TEST_F(HttpServerTest, ChunkedTransferIs501) {
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.Send(
      "POST /v1/t/uni/execute HTTP/1.1\r\nHost: x\r\n"
      "Transfer-Encoding: chunked\r\n\r\n"));
  EXPECT_EQ(conn.ReadStatus(), 501);
}

TEST_F(HttpServerTest, OversizedBodyIs413) {
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.Send(
      "POST /v1/t/uni/execute HTTP/1.1\r\nHost: x\r\n"
      "Content-Length: 1000000\r\n\r\n"));
  EXPECT_EQ(conn.ReadStatus(), 413);
}

TEST_F(HttpServerTest, OversizedHeaderIs431) {
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  std::string head = "GET /v1/tenants HTTP/1.1\r\nX-Filler: ";
  head.append(4096, 'a');  // Past the fixture's 1024-byte head cap.
  head += "\r\n\r\n";
  ASSERT_TRUE(conn.Send(head));
  EXPECT_EQ(conn.ReadStatus(), 431);
}

TEST_F(HttpServerTest, SlowlorisTrickleIs408) {
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  // Send a partial head and go silent; the server must give up after
  // header_timeout_ms, not hold the worker forever.
  ASSERT_TRUE(conn.Send("GET /v1/tenants HTTP/1.1\r\nX-Slow: d"));
  EXPECT_EQ(conn.ReadStatus(), 408);
}

TEST_F(HttpServerTest, BadHttpVersionIs505) {
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.Send("GET /v1/tenants HTTP/2.0\r\nHost: x\r\n\r\n"));
  EXPECT_EQ(conn.ReadStatus(), 505);
}

TEST_F(HttpServerTest, GarbageRequestLineIs400) {
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.Send("complete garbage\r\n\r\n"));
  EXPECT_EQ(conn.ReadStatus(), 400);
}

TEST_F(HttpServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  server::HttpClient client("127.0.0.1", server_->port());
  for (int i = 0; i < 5; ++i) {
    int http = 0;
    std::string body;
    ASSERT_TRUE(client.Get("/v1/tenants", &http, &body).ok()) << i;
    EXPECT_EQ(http, 200) << i;
  }
}

TEST_F(HttpServerTest, MetricsEndpointServesTraceJson) {
  server::HttpClient client("127.0.0.1", server_->port());
  int http = 0;
  std::string body;
  ASSERT_TRUE(client.Get("/metrics", &http, &body).ok());
  EXPECT_EQ(http, 200);
  JsonValue metrics;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(body, &metrics, &error)) << error;
  EXPECT_NE(metrics.Find("counters"), nullptr);
  EXPECT_NE(metrics.Find("spans"), nullptr);
}

TEST_F(HttpServerTest, HandoffOverflowShedsWith503) {
  // One worker, one handoff slot.  Park the worker on a keep-alive
  // connection, fill the handoff with a second, and the third must be shed
  // at the door with 503 instead of waiting.
  server::HttpServerOptions options;
  options.num_workers = 1;
  options.handoff_capacity = 1;
  options.header_timeout_ms = 400;  // Bound the parked connections' drain.
  server::HttpServer small(service_.get(), options);
  ASSERT_TRUE(small.Start().ok());
  server::HttpClient holder("127.0.0.1", small.port());
  int http = 0;
  std::string body;
  ASSERT_TRUE(holder.Get("/v1/tenants", &http, &body).ok());
  ASSERT_EQ(http, 200);  // The worker is now parked on this connection.
  RawConn parked(small.port());
  ASSERT_TRUE(parked.connected());
  // Give the acceptor time to enqueue `parked` before overflowing.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  RawConn shed(small.port());
  ASSERT_TRUE(shed.connected());
  EXPECT_EQ(shed.ReadStatus(), 503);
  small.Stop();
}

TEST_F(HttpServerTest, StopIsIdempotentAndClosesTheListener) {
  int port = server_->port();
  server_->Stop();
  // The listener is gone: a fresh connection must fail or be reset, and a
  // second Stop must be a no-op.
  server_->Stop();
  server::HttpClient client("127.0.0.1", port);
  int http = 0;
  std::string body;
  EXPECT_EQ(client.Get("/v1/tenants", &http, &body).code(),
            StatusCode::kRejected);
}

}  // namespace
}  // namespace owlqr
