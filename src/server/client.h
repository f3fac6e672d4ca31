#ifndef OWLQR_SERVER_CLIENT_H_
#define OWLQR_SERVER_CLIENT_H_

// Minimal HTTP/1.1 client for the serving API — enough for the soak tests,
// the hygiene check and embedding callers that want typed access without
// shelling out to curl.
//
// One HttpClient owns one keep-alive connection and is NOT thread-safe;
// concurrent callers each construct their own (the soak test runs one per
// worker thread).  The connection is (re-)established lazily on the first
// call and after any transport error, so a server restart costs one failed
// call, not a dead client.  A GET or execute sent on a keep-alive
// connection the server has since closed as idle is retried once on a
// fresh one; other requests are not resent.
//
// Status discipline: transport failures (connect/send/recv) come back as
// kRejected — the retryable class — with a message naming the syscall.
// Application outcomes are reconstructed from the response: the error
// envelope's code when the body is one, else the Status->HTTP table's
// inverse on the bare HTTP status.  The typed Execute wrapper instead
// surfaces the full WireExecuteResult whenever the body parses as one,
// mirroring the server's "governed outcomes still carry answers" rule.

#include <cstdint>
#include <string>

#include "server/api.h"
#include "util/status.h"

namespace owlqr {
namespace server {

class HttpClient {
 public:
  HttpClient(std::string host, int port);
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  // Raw round trips: `*http_status` and `*body` receive whatever the server
  // answered; the returned Status covers the TRANSPORT only (kOk even for a
  // 4xx/5xx response, kRejected when no response came back).
  Status Get(const std::string& path, int* http_status, std::string* body);
  Status Post(const std::string& path, const std::string& request_body,
              int* http_status, std::string* body);

  // Typed wrappers over one tenant's endpoints.  Each returns the
  // application-level Status described in the header comment.
  Status Prepare(const std::string& tenant, const api::WireExecuteRequest& req,
                 std::string* response_body = nullptr);
  Status Execute(const std::string& tenant, const api::WireExecuteRequest& req,
                 api::WireExecuteResult* result);
  Status ApplyFacts(const std::string& tenant, const api::WireFactBatch& batch,
                    uint64_t* snapshot_version = nullptr);
  Status Stats(const std::string& tenant, QueryGovernor::Counters* counters,
               std::string* response_body = nullptr);

  // Closes the connection; the next call reconnects.
  void Disconnect();

 private:
  // `idempotent` requests (GET and execute) are retried once on a fresh
  // connection when the server closed a reused idle one before answering.
  Status RoundTrip(const std::string& request, bool idempotent,
                   int* http_status, std::string* body);
  Status Connect();
  // Reconstructs the application Status from a non-2xx response body.
  static Status StatusFromResponse(int http_status, const std::string& body);

  const std::string host_;
  const int port_;
  int fd_ = -1;
};

}  // namespace server
}  // namespace owlqr

#endif  // OWLQR_SERVER_CLIENT_H_
