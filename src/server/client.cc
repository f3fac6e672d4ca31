#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "util/json.h"

namespace owlqr {
namespace server {

namespace {

bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

HttpClient::HttpClient(std::string host, int port)
    : host_(std::move(host)), port_(port) {}

HttpClient::~HttpClient() { Disconnect(); }

void HttpClient::Disconnect() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

Status HttpClient::Connect() {
  if (fd_ >= 0) return Status::Ok();
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::Rejected(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  if (inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    Disconnect();
    return Status::Rejected("unparseable host address '" + host_ + "'");
  }
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status =
        Status::Rejected(std::string("connect: ") + std::strerror(errno));
    Disconnect();
    return status;
  }
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::Ok();
}

Status HttpClient::RoundTrip(const std::string& request, bool idempotent,
                             int* http_status, std::string* body) {
  // A connection already open when the call starts may have been closed by
  // the server while idle (its header timeout).  Then the send can still
  // succeed and only the receive sees the close, before any response byte.
  // Such a request almost surely never reached a handler, but the client
  // cannot tell that from a close after the handler ran, so only an
  // idempotent request is sent again, once, on a fresh connection.
  bool may_retry = fd_ >= 0 && idempotent;
  Status status = Connect();
  if (!status.ok()) return status;
  if (!SendAll(fd_, request)) {
    // A stale keep-alive connection the server already closed: reconnect
    // and retry once before reporting the failure.
    Disconnect();
    may_retry = false;
    status = Connect();
    if (!status.ok()) return status;
    if (!SendAll(fd_, request)) {
      Disconnect();
      return Status::Rejected(std::string("send: ") + std::strerror(errno));
    }
  }

  std::string buf;
  size_t head_end;
  while ((head_end = buf.find("\r\n\r\n")) == std::string::npos) {
    char chunk[8192];
    ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      Disconnect();
      if (may_retry && buf.empty()) {
        return RoundTrip(request, /*idempotent=*/false, http_status, body);
      }
      return Status::Rejected("connection closed before response head");
    }
    buf.append(chunk, static_cast<size_t>(n));
  }
  std::string head = buf.substr(0, head_end);
  buf.erase(0, head_end + 4);

  // Status line: "HTTP/1.1 200 OK".
  size_t sp = head.find(' ');
  if (sp == std::string::npos) {
    Disconnect();
    return Status::Rejected("malformed response status line");
  }
  *http_status = std::atoi(head.c_str() + sp + 1);

  // Content-Length is the only framing the server emits.
  size_t content_length = 0;
  bool close_after = false;
  size_t pos = head.find("\r\n");
  while (pos != std::string::npos) {
    size_t line_start = pos + 2;
    pos = head.find("\r\n", line_start);
    std::string line = head.substr(
        line_start,
        pos == std::string::npos ? std::string::npos : pos - line_start);
    for (char& c : line) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (line.rfind("content-length:", 0) == 0) {
      content_length = static_cast<size_t>(
          std::strtoull(line.c_str() + 15, nullptr, 10));
    } else if (line.rfind("connection:", 0) == 0 &&
               line.find("close") != std::string::npos) {
      close_after = true;
    }
  }
  // The body lands in place: the bytes that arrived with the head, then
  // the rest received straight into the sized string.
  body->resize(content_length);
  size_t got = std::min(buf.size(), content_length);
  std::memcpy(body->data(), buf.data(), got);
  while (got < content_length) {
    ssize_t n = recv(fd_, body->data() + got, content_length - got, 0);
    if (n <= 0) {
      Disconnect();
      return Status::Rejected("connection closed mid-body");
    }
    got += static_cast<size_t>(n);
  }
  if (close_after) Disconnect();
  return Status::Ok();
}

Status HttpClient::Get(const std::string& path, int* http_status,
                       std::string* body) {
  std::string request = "GET " + path + " HTTP/1.1\r\nHost: " + host_ +
                        "\r\nConnection: keep-alive\r\n\r\n";
  return RoundTrip(request, /*idempotent=*/true, http_status, body);
}

Status HttpClient::Post(const std::string& path,
                        const std::string& request_body, int* http_status,
                        std::string* body) {
  std::string request = "POST " + path + " HTTP/1.1\r\nHost: " + host_ +
                        "\r\nContent-Type: application/json\r\n"
                        "Content-Length: " +
                        std::to_string(request_body.size()) +
                        "\r\nConnection: keep-alive\r\n\r\n" + request_body;
  // Of the POST endpoints only execute is retried: it only reads, while
  // an apply-facts must never be applied twice.
  const std::string_view kExecute = "/execute";
  const bool idempotent =
      path.size() >= kExecute.size() &&
      path.compare(path.size() - kExecute.size(), kExecute.size(),
                   kExecute) == 0;
  return RoundTrip(request, idempotent, http_status, body);
}

Status HttpClient::StatusFromResponse(int http_status,
                                      const std::string& body) {
  if (http_status >= 200 && http_status < 300) return Status::Ok();
  JsonValue parsed;
  Status status;
  if (JsonValue::Parse(body, &parsed) &&
      api::ParseErrorBody(parsed, &status)) {
    return status;
  }
  return Status(api::StatusCodeForHttp(http_status),
                "HTTP " + std::to_string(http_status));
}

Status HttpClient::Prepare(const std::string& tenant,
                           const api::WireExecuteRequest& req,
                           std::string* response_body) {
  int http_status = 0;
  std::string body;
  Status status = Post("/v1/t/" + tenant + "/prepare",
                       api::ExecuteRequestToJson(req), &http_status, &body);
  if (!status.ok()) return status;
  if (response_body != nullptr) *response_body = body;
  return StatusFromResponse(http_status, body);
}

Status HttpClient::Execute(const std::string& tenant,
                           const api::WireExecuteRequest& req,
                           api::WireExecuteResult* result) {
  int http_status = 0;
  std::string body;
  Status status = Post("/v1/t/" + tenant + "/execute",
                       api::ExecuteRequestToJson(req), &http_status, &body);
  if (!status.ok()) return status;
  JsonValue parsed;
  if (JsonValue::Parse(body, &parsed)) {
    // Governed outcomes (429/503/504/499) still carry the full result body;
    // prefer its embedded status over the bare HTTP code.
    if (api::ExecuteResultFromJson(parsed, result).ok()) {
      return result->status;
    }
  }
  return StatusFromResponse(http_status, body);
}

Status HttpClient::ApplyFacts(const std::string& tenant,
                              const api::WireFactBatch& batch,
                              uint64_t* snapshot_version) {
  int http_status = 0;
  std::string body;
  Status status = Post("/v1/t/" + tenant + "/apply-facts",
                       api::FactBatchToJson(batch), &http_status, &body);
  if (!status.ok()) return status;
  status = StatusFromResponse(http_status, body);
  if (!status.ok()) return status;
  if (snapshot_version != nullptr) {
    JsonValue parsed;
    if (!JsonValue::Parse(body, &parsed)) {
      return Status::InvalidArgument("apply-facts response is not JSON");
    }
    const JsonValue* version = parsed.Find("snapshot_version");
    if (version == nullptr || !version->is_number()) {
      return Status::InvalidArgument(
          "apply-facts response lacks snapshot_version");
    }
    *snapshot_version = static_cast<uint64_t>(version->AsDouble());
  }
  return Status::Ok();
}

Status HttpClient::Stats(const std::string& tenant,
                         QueryGovernor::Counters* counters,
                         std::string* response_body) {
  int http_status = 0;
  std::string body;
  Status status = Get("/v1/t/" + tenant + "/stats", &http_status, &body);
  if (!status.ok()) return status;
  if (response_body != nullptr) *response_body = body;
  status = StatusFromResponse(http_status, body);
  if (!status.ok()) return status;
  if (counters != nullptr) {
    JsonValue parsed;
    if (!JsonValue::Parse(body, &parsed)) {
      return Status::InvalidArgument("stats response is not JSON");
    }
    const JsonValue* governor = parsed.Find("governor");
    if (governor == nullptr) {
      return Status::InvalidArgument("stats response lacks 'governor'");
    }
    return api::GovernorCountersFromJson(*governor, counters);
  }
  return Status::Ok();
}

}  // namespace server
}  // namespace owlqr
