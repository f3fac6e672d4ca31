#include "server/http_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "util/strings.h"

// glibc exposes POLLRDHUP (remote peer closed its write side) only under
// _GNU_SOURCE; the constant itself is ABI-stable on Linux.
#ifndef POLLRDHUP
#define POLLRDHUP 0x2000
#endif

namespace owlqr {
namespace server {

namespace {

using Clock = std::chrono::steady_clock;

void SetSocketTimeout(int fd, int option, long ms) {
  timeval tv;
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

// Sends `head` then `body` with one sendmsg per attempt, resuming after a
// short write (a send timeout or a signal can cut one off), ignoring
// SIGPIPE; false on any send failure.
bool SendAll(int fd, std::string_view head, std::string_view body) {
  iovec iov[2] = {{const_cast<char*>(head.data()), head.size()},
                  {const_cast<char*>(body.data()), body.size()}};
  iovec* next = iov;
  size_t count = 2;
  while (count > 0) {
    if (next->iov_len == 0) {
      ++next;
      --count;
      continue;
    }
    msghdr msg{};
    msg.msg_iov = next;
    msg.msg_iovlen = count;
    ssize_t n = sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n <= 0) return false;
    // Skip what was sent: whole buffers, then a prefix of the next one.
    size_t sent = static_cast<size_t>(n);
    while (count > 0 && sent >= next->iov_len) {
      sent -= next->iov_len;
      ++next;
      --count;
    }
    if (count > 0) {
      next->iov_base = static_cast<char*>(next->iov_base) + sent;
      next->iov_len -= sent;
    }
  }
  return true;
}

bool SendResponse(int fd, int http_status, std::string_view body,
                  bool keep_alive) {
  std::string head = "HTTP/1.1 " + std::to_string(http_status) + " " +
                     api::HttpReasonPhrase(http_status) +
                     "\r\nContent-Type: application/json\r\nContent-Length: " +
                     std::to_string(body.size()) +
                     (keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                                 : "\r\nConnection: close\r\n\r\n");
  return SendAll(fd, head, body);
}

// A transport-level error (no Status from the service): the same envelope
// shape the api layer emits, with the code name the HTTP status maps back
// to, so clients parse exactly one error schema.
bool SendError(int fd, int http_status, const std::string& message,
               bool keep_alive) {
  JsonWriter w;
  w.BeginObject();
  w.Key("error");
  w.BeginObject();
  w.KV("code", StatusCodeName(api::StatusCodeForHttp(http_status)));
  w.KV("http", http_status);
  w.KV("message", message);
  w.EndObject();
  w.EndObject();
  return SendResponse(fd, http_status, w.str(), keep_alive);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

struct ParsedHead {
  std::string method;
  std::string target;
  std::string version;
  // Header names lowercased; values whitespace-stripped.
  std::vector<std::pair<std::string, std::string>> headers;

  const std::string* Header(const std::string& lower_name) const {
    for (const auto& [name, value] : headers) {
      if (name == lower_name) return &value;
    }
    return nullptr;
  }
};

// Parses "METHOD SP TARGET SP VERSION\r\n(NAME: VALUE\r\n)*" from `head`
// (which excludes the blank line).  False on any malformation.
bool ParseHead(std::string_view head, ParsedHead* out) {
  size_t line_end = head.find("\r\n");
  std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  size_t sp1 = request_line.find(' ');
  size_t sp2 = request_line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) return false;
  out->method = std::string(request_line.substr(0, sp1));
  out->target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  out->version = std::string(request_line.substr(sp2 + 1));
  if (out->method.empty() || out->target.empty() || out->target[0] != '/') {
    return false;
  }
  while (line_end != std::string_view::npos) {
    size_t line_start = line_end + 2;
    line_end = head.find("\r\n", line_start);
    std::string_view line =
        line_end == std::string_view::npos
            ? head.substr(line_start)
            : head.substr(line_start, line_end - line_start);
    if (line.empty()) continue;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) return false;
    out->headers.emplace_back(
        ToLower(StripWhitespace(line.substr(0, colon))),
        std::string(StripWhitespace(line.substr(colon + 1))));
  }
  return true;
}

// Routing result: the verb plus the tenant path segment.
struct Route {
  bool matched = false;        // Path known.
  bool method_allowed = false;  // ... with this method.
  api::Verb verb = api::Verb::kTenants;
  std::string tenant;
};

Route RouteTarget(const std::string& method, const std::string& target) {
  Route route;
  // Strip any query string: the API carries everything in bodies.
  std::string path = target.substr(0, target.find('?'));
  auto match = [&](const char* expected_method, api::Verb verb) {
    route.matched = true;
    route.verb = verb;
    route.method_allowed = method == expected_method;
  };
  if (path == "/metrics") {
    match("GET", api::Verb::kMetrics);
    return route;
  }
  if (path == "/v1/tenants") {
    match("GET", api::Verb::kTenants);
    return route;
  }
  if (StartsWith(path, "/v1/t/")) {
    std::string rest = path.substr(6);
    size_t slash = rest.find('/');
    if (slash == std::string::npos || slash == 0) return route;
    route.tenant = rest.substr(0, slash);
    std::string leaf = rest.substr(slash + 1);
    if (leaf == "stats") {
      match("GET", api::Verb::kStats);
    } else if (leaf == "prepare") {
      match("POST", api::Verb::kPrepare);
    } else if (leaf == "execute") {
      match("POST", api::Verb::kExecute);
    } else if (leaf == "apply-facts") {
      match("POST", api::Verb::kApplyFacts);
    }
    return route;
  }
  return route;
}

}  // namespace

HttpServer::HttpServer(api::Service* service, const HttpServerOptions& options)
    : service_(service), options_(options) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::InvalidArgument(std::string("socket: ") +
                                   std::strerror(errno));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // Loopback only.
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      listen(listen_fd_, options_.listen_backlog) < 0) {
    Status status = Status::InvalidArgument(
        std::string("bind/listen: ") + std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread(&HttpServer::AcceptLoop, this);
  watcher_ = std::thread(&HttpServer::WatchLoop, this);
  int workers = std::max(options_.num_workers, 1);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back(&HttpServer::WorkerLoop, this);
  }
  return Status::Ok();
}

void HttpServer::Stop() {
  if (!running_.exchange(false)) return;
  // Unblock the acceptor, then every worker parked on a connection read.
  shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(active_mutex_);
    for (int fd : active_fds_) shutdown(fd, SHUT_RDWR);
  }
  handoff_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (watcher_.joinable()) watcher_.join();
  workers_.clear();
  for (int fd : handoff_) close(fd);  // Accepted but never served.
  handoff_.clear();
  close(listen_fd_);
  listen_fd_ = -1;
}

void HttpServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load(std::memory_order_acquire)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // Listener is gone; Stop() is responsible for shutdown.
    }
    {
      std::lock_guard<std::mutex> lock(handoff_mutex_);
      if (handoff_.size() < options_.handoff_capacity) {
        handoff_.push_back(fd);
        handoff_cv_.notify_one();
        continue;
      }
    }
    // Every worker busy and the queue full: shed at the door.
    handoff_shed_.fetch_add(1, std::memory_order_relaxed);
    SetSocketTimeout(fd, SO_SNDTIMEO, options_.io_timeout_ms);
    SendError(fd, 503, "server overloaded (handoff queue full)", false);
    close(fd);
  }
}

void HttpServer::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(handoff_mutex_);
      handoff_cv_.wait(lock, [&] {
        return !handoff_.empty() || !running_.load(std::memory_order_acquire);
      });
      if (handoff_.empty()) return;  // Stopping.
      fd = handoff_.front();
      handoff_.pop_front();
    }
    {
      std::lock_guard<std::mutex> lock(active_mutex_);
      active_fds_.push_back(fd);
    }
    ServeConnection(fd);
    {
      std::lock_guard<std::mutex> lock(active_mutex_);
      active_fds_.erase(
          std::remove(active_fds_.begin(), active_fds_.end(), fd),
          active_fds_.end());
    }
    close(fd);
  }
}

void HttpServer::ServeConnection(int fd) {
  SetSocketTimeout(fd, SO_RCVTIMEO, options_.io_timeout_ms);
  SetSocketTimeout(fd, SO_SNDTIMEO, options_.io_timeout_ms);
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::string buf;  // Carries pipelined leftovers across requests.
  for (int served = 0; served < options_.max_requests_per_connection;
       ++served) {
    // --- Read the request head (slowloris-bounded). -----------------------
    Clock::time_point head_deadline =
        Clock::now() + std::chrono::milliseconds(options_.header_timeout_ms);
    size_t head_end;
    while ((head_end = buf.find("\r\n\r\n")) == std::string::npos) {
      if (buf.size() > options_.max_header_bytes) {
        SendError(fd, 431, "request head exceeds " +
                               std::to_string(options_.max_header_bytes) +
                               " bytes", false);
        return;
      }
      long remaining_ms = static_cast<long>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              head_deadline - Clock::now())
              .count());
      if (remaining_ms <= 0) {
        // Only complain if the client actually started a request.
        if (!buf.empty()) {
          SendError(fd, 408, "request head not received in time", false);
        }
        return;
      }
      pollfd pfd{fd, POLLIN, 0};
      int ready = poll(&pfd, 1, static_cast<int>(remaining_ms));
      if (ready <= 0) continue;  // Timeout re-checked above; EINTR retried.
      char chunk[4096];
      ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return;  // Closed (or reset) between requests: quiet exit.
      buf.append(chunk, static_cast<size_t>(n));
    }
    if (head_end > options_.max_header_bytes) {
      SendError(fd, 431, "request head exceeds " +
                             std::to_string(options_.max_header_bytes) +
                             " bytes", false);
      return;
    }

    ParsedHead head;
    if (!ParseHead(std::string_view(buf).substr(0, head_end), &head)) {
      SendError(fd, 400, "malformed request head", false);
      return;
    }
    buf.erase(0, head_end + 4);

    if (head.version != "HTTP/1.1" && head.version != "HTTP/1.0") {
      SendError(fd, 505, "only HTTP/1.1 is supported", false);
      return;
    }
    const std::string* connection = head.Header("connection");
    bool keep_alive = head.version == "HTTP/1.1"
                          ? (connection == nullptr ||
                             ToLower(*connection) != "close")
                          : (connection != nullptr &&
                             ToLower(*connection) == "keep-alive");
    if (served + 1 == options_.max_requests_per_connection) keep_alive = false;

    // --- Read the body. ---------------------------------------------------
    if (head.Header("transfer-encoding") != nullptr) {
      SendError(fd, 501, "chunked transfer encoding is not implemented",
                false);
      return;
    }
    size_t content_length = 0;
    if (const std::string* cl = head.Header("content-length")) {
      char* end = nullptr;
      unsigned long long parsed = std::strtoull(cl->c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || cl->empty()) {
        SendError(fd, 400, "malformed Content-Length", false);
        return;
      }
      content_length = static_cast<size_t>(parsed);
    } else if (head.method == "POST") {
      SendError(fd, 411, "POST requires Content-Length", false);
      return;
    }
    if (content_length > options_.max_body_bytes) {
      SendError(fd, 413, "request body exceeds " +
                             std::to_string(options_.max_body_bytes) +
                             " bytes", false);
      return;
    }
    while (buf.size() < content_length) {
      char chunk[8192];
      ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return;  // SO_RCVTIMEO or disconnect mid-body.
      buf.append(chunk, static_cast<size_t>(n));
    }

    // --- Route and dispatch. ----------------------------------------------
    Route route = RouteTarget(head.method, head.target);
    if (!route.matched) {
      if (!SendError(fd, 404, "no such endpoint: " + head.target,
                     keep_alive)) {
        return;
      }
      buf.erase(0, content_length);
      if (!keep_alive) return;
      continue;
    }
    if (!route.method_allowed) {
      if (!SendError(fd, 405,
                     head.method + " is not allowed on " + head.target,
                     keep_alive)) {
        return;
      }
      buf.erase(0, content_length);
      if (!keep_alive) return;
      continue;
    }

    api::Request request;
    request.verb = route.verb;
    request.tenant = std::move(route.tenant);
    request.body = buf.substr(0, content_length);
    buf.erase(0, content_length);

    // Executions can run long: watch for the client hanging up so the
    // evaluation is cancelled instead of finishing for nobody.
    bool watched = route.verb == api::Verb::kExecute;
    if (watched) {
      request.cancel = std::make_shared<CancelToken>();
      WatchForDisconnect(fd, request.cancel);
    }
    api::Response response = service_->Handle(request);
    if (watched) UnwatchDisconnect(fd);

    if (!SendResponse(fd, api::HttpStatusFor(response.status.code()),
                      response.body, keep_alive)) {
      return;
    }
    if (!keep_alive) return;
  }
}

void HttpServer::WatchForDisconnect(int fd,
                                    std::shared_ptr<CancelToken> token) {
  std::lock_guard<std::mutex> lock(watch_mutex_);
  watches_.push_back({fd, std::move(token)});
}

void HttpServer::UnwatchDisconnect(int fd) {
  std::lock_guard<std::mutex> lock(watch_mutex_);
  watches_.erase(std::remove_if(watches_.begin(), watches_.end(),
                                [fd](const Watch& w) { return w.fd == fd; }),
                 watches_.end());
}

void HttpServer::WatchLoop() {
  while (running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.watch_poll_ms));
    std::vector<Watch> snapshot;
    {
      std::lock_guard<std::mutex> lock(watch_mutex_);
      snapshot = watches_;
    }
    for (const Watch& watch : snapshot) {
      pollfd pfd{watch.fd, POLLRDHUP, 0};
      if (poll(&pfd, 1, 0) > 0 &&
          (pfd.revents & (POLLRDHUP | POLLERR | POLLHUP | POLLNVAL)) != 0) {
        watch.token->Cancel();
      }
    }
  }
}

}  // namespace server
}  // namespace owlqr
