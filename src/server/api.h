#ifndef OWLQR_SERVER_API_H_
#define OWLQR_SERVER_API_H_

// The versioned, transport-agnostic serving API (version 1).
//
// Everything a served request is — which verb, which tenant, what JSON body
// — lives in api::Request; everything an answer is lives in api::Response.
// api::Service::Handle maps one to the other against an EngineRegistry.
// The HTTP front end (server/http_server.h) is a thin parser/printer around
// this layer; an embedded caller can Handle() the same requests with no
// socket at all, and both see byte-identical bodies.  (The split follows
// MemoDB's protocol-agnostic Request/Server vs HTTP transport.)
//
// Verbs of API version 1 (HTTP routes in parentheses; {t} is a tenant
// alias or TBox-fingerprint hex):
//
//   kPrepare    (POST /v1/t/{t}/prepare)      compile a query into the plan
//                                             cache; returns plan shape
//   kExecute    (POST /v1/t/{t}/execute)      prepare + evaluate; returns
//                                             answers + stats
//   kApplyFacts (POST /v1/t/{t}/apply-facts)  install a COW snapshot
//                                             extended by the batch
//   kStats      (GET  /v1/t/{t}/stats)        governor / cache counters
//   kTenants    (GET  /v1/tenants)            registry listing
//   kMetrics    (GET  /metrics)               the process MetricsRegistry
//                                             as trace JSON (DESIGN.md §7)
//
// Versioning rule: breaking changes to a body schema or an endpoint path
// bump kApiVersion (and the /v{N}/ prefix); additive fields do not.
// Clients must ignore unknown response members.
//
// Error envelope: any request that fails to produce its verb's result body
// gets {"error": {"code": "<StatusCodeName>", "http": <code>,
// "message": "..."}} with the HTTP status from the Status→HTTP table
// below.  The execute verb is the exception by design: governed outcomes
// (shed, deadline, cancel, memory) still return the FULL execute result
// body — partial answers included — with the table's HTTP status, so a
// client can distinguish "throttled, retry" from "malformed, don't".

#include <memory>
#include <string>
#include <vector>

#include "engine/governor.h"
#include "ndl/evaluator.h"
#include "server/registry.h"
#include "util/budget.h"
#include "util/json.h"
#include "util/status.h"

namespace owlqr {
namespace api {

inline constexpr int kApiVersion = 1;
inline constexpr char kApiPrefix[] = "/v1";

enum class Verb {
  kPrepare,
  kExecute,
  kApplyFacts,
  kStats,
  kTenants,
  kMetrics,
};

const char* VerbName(Verb verb);

// ---------------------------------------------------------------------------
// The Status -> HTTP mapping, the single table both the server's response
// writer and the client's status reconstruction share.
//
//   kOk               -> 200  kInvalidArgument  -> 400
//   kNotFound         -> 404  kUnsupportedShape -> 422
//   kRejected         -> 429  (admission shed / queue timeout: back off)
//   kCancelled        -> 499  (client closed request, nginx convention)
//   kMemoryExceeded   -> 503  (resource pressure: retry against a less
//                              loaded process)
//   kDeadlineExceeded -> 504
// ---------------------------------------------------------------------------
int HttpStatusFor(StatusCode code);
// The inverse, for clients reconstructing a Status from a bare HTTP code.
// Statuses outside the table map conservatively: unknown 4xx ->
// kInvalidArgument (do not retry as-is), anything else -> kRejected
// (retryable with backoff).
StatusCode StatusCodeForHttp(int http_status);
const char* HttpReasonPhrase(int http_status);

// The error envelope body for `status` (see the header comment).
std::string ErrorBody(const Status& status);
// Parses an error envelope back into a Status; false when `body` is not an
// error envelope.
bool ParseErrorBody(const JsonValue& body, Status* out);

// ---------------------------------------------------------------------------
// Wire structs + JSON codecs.  Every codec is total in both directions:
// ToJson always emits the documented schema; FromJson validates hostile
// input and reports kInvalidArgument with a field-naming message.
// ---------------------------------------------------------------------------

// Body of kPrepare and kExecute (prepare ignores the execution members):
//   {"query": "q(x) :- R(x, y)", "rewriter": "auto",
//    "complete_instances": false, "num_threads": 1, "incremental": false,
//    "queue_timeout_ms": -1,
//    "limits": {"max_generated_tuples": 0, "max_work": 0, "deadline_ms": 0}}
// Only "query" is required; everything else defaults as shown.  Unknown
// keys are ignored, so requests naming a limit this version dropped
// ("morsel_rows", "batch_rows") still decode.  EvaluatorLimits::batch_rows
// is not on the wire: a served query runs the columnar executor at its
// default batch width.
struct WireExecuteRequest {
  std::string query;
  std::string rewriter = "auto";
  bool complete_instances = false;
  // limits / num_threads / queue_timeout_ms / incremental travel inside;
  // `cancel` never crosses the wire (the transport owns disconnects).
  ExecuteRequest exec;
};

Status ExecuteRequestFromJson(const JsonValue& body, WireExecuteRequest* out);
std::string ExecuteRequestToJson(const WireExecuteRequest& wire);

// The execute result body:
//   {"status": {"code": "OK", "message": ""}, "snapshot_version": 3,
//    "partial": false, "degraded": false, "incremental": false,
//    "cached": false, "coalesced": false,
//    "answers": [["ann"], ["bob"]],
//    "stats": {"goal_tuples": 2, "generated_tuples": 17,
//              "join_emissions": 30}}
// Answer tuples are individual names in the engine's sorted answer order —
// the byte-exact wire image of Engine::Execute's id tuples.
struct WireExecuteResult {
  Status status;
  std::vector<std::vector<std::string>> answers;
  uint64_t snapshot_version = 0;
  bool partial = false;
  bool degraded = false;
  bool incremental = false;
  bool cached = false;
  bool coalesced = false;
  long goal_tuples = 0;
  long generated_tuples = 0;
  long join_emissions = 0;
};

// Serialises `result` with ids resolved through `vocab`; the caller must
// hold the tenant's vocab_mutex (shared) — see Tenant::vocab_mutex.
std::string ExecuteResultToJson(const ExecuteResult& result,
                                const Vocabulary& vocab);
std::string ExecuteResultToJson(const WireExecuteResult& wire);
Status ExecuteResultFromJson(const JsonValue& body, WireExecuteResult* out);

// The apply-facts body:
//   {"concepts": [{"concept": "A", "individual": "ann"}, ...],
//    "roles": [{"role": "R", "subject": "ann", "object": "bob"}, ...]}
// Concept and role names must already exist in the tenant's vocabulary
// (a typo must not silently create an unanswerable relation); individuals
// may be fresh and are interned on apply.
struct WireFactBatch {
  struct ConceptFact {
    std::string concept_name;  // Wire key "concept" (a C++20 keyword).
    std::string individual;
  };
  struct RoleFact {
    std::string role;
    std::string subject;
    std::string object;
  };
  std::vector<ConceptFact> concepts;
  std::vector<RoleFact> roles;
};

Status FactBatchFromJson(const JsonValue& body, WireFactBatch* out);
std::string FactBatchToJson(const WireFactBatch& batch);

// Governor counters as a JSON object (one member per Counters field), used
// inside the stats body and round-tripped by the client.
std::string GovernorCountersToJson(const QueryGovernor::Counters& counters);
Status GovernorCountersFromJson(const JsonValue& body,
                                QueryGovernor::Counters* out);

// Emits one engine's operational stats — snapshot_version, governor,
// plan_cache, answer_cache, incremental_state_size — as members of the
// object currently open on `w`.  The one serialization of engine stats:
// Service::Stats wraps it with the tenant's identity, the CLI's
// --stats-json writes it bare.
void AppendEngineStats(JsonWriter* w, const Engine& engine);

// ---------------------------------------------------------------------------
// The protocol-agnostic request/response pair and the dispatcher.
// ---------------------------------------------------------------------------

struct Request {
  Verb verb = Verb::kTenants;
  // Tenant alias or fingerprint hex; ignored by kTenants / kMetrics.
  std::string tenant;
  // Raw JSON body ("" for the bodyless GET verbs).
  std::string body;
  // Fired by the transport when the client goes away mid-request; threaded
  // into Engine::Execute as its cancellation token.
  std::shared_ptr<CancelToken> cancel;
};

struct Response {
  // The dispatch outcome; HttpStatusFor(status.code()) is the HTTP status
  // a transport should put on the wire.
  Status status;
  // JSON: the verb's result body, or the error envelope (except execute's
  // governed outcomes, which carry the full result body — see above).
  std::string body;
};

class Service {
 public:
  explicit Service(server::EngineRegistry* registry);

  // Thread-safe: any number of requests (same or different tenants) may be
  // in flight concurrently.
  Response Handle(const Request& request);

  server::EngineRegistry* registry() const { return registry_; }

 private:
  Response Prepare(server::Tenant& tenant, const Request& request);
  Response Execute(server::Tenant& tenant, const Request& request);
  Response ApplyFacts(server::Tenant& tenant, const Request& request);
  Response Stats(server::Tenant& tenant);
  Response Tenants();
  Response Metrics();

  server::EngineRegistry* const registry_;
};

}  // namespace api
}  // namespace owlqr

#endif  // OWLQR_SERVER_API_H_
