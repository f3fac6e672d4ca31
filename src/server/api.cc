#include "server/api.h"

#include <limits>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "cq/cq.h"
#include "data/snapshot.h"
#include "syntax/parser.h"
#include "util/metrics.h"

namespace owlqr {
namespace api {

namespace {

// Reverse of StatusCodeName; false on an unknown spelling.
bool StatusCodeFromName(const std::string& name, StatusCode* out) {
  static constexpr StatusCode kAll[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kUnsupportedShape, StatusCode::kNotFound,
      StatusCode::kCancelled,    StatusCode::kDeadlineExceeded,
      StatusCode::kMemoryExceeded,   StatusCode::kRejected,
      StatusCode::kDataLoss,
  };
  for (StatusCode code : kAll) {
    if (name == StatusCodeName(code)) {
      *out = code;
      return true;
    }
  }
  return false;
}

// Typed member readers over hostile bodies.  A missing member leaves the
// default in place and returns OK; a member of the wrong JSON type is a
// kInvalidArgument naming the field.
Status ReadString(const JsonValue& obj, const char* key, std::string* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::Ok();
  if (!v->is_string()) {
    return Status::InvalidArgument(std::string("'") + key +
                                   "' must be a string");
  }
  *out = v->AsString();
  return Status::Ok();
}

Status ReadBool(const JsonValue& obj, const char* key, bool* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::Ok();
  if (!v->is_bool()) {
    return Status::InvalidArgument(std::string("'") + key +
                                   "' must be a boolean");
  }
  *out = v->AsBool();
  return Status::Ok();
}

Status ReadLong(const JsonValue& obj, const char* key, long* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::Ok();
  if (!v->ToLong(out)) {
    return Status::InvalidArgument(std::string("'") + key +
                                   "' must be an integer in range");
  }
  return Status::Ok();
}

Status ReadInt(const JsonValue& obj, const char* key, int* out) {
  long value = *out;
  Status s = ReadLong(obj, key, &value);
  if (!s.ok()) return s;
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(std::string("'") + key +
                                   "' must be an integer in range");
  }
  *out = static_cast<int>(value);
  return Status::Ok();
}

Status ReadUInt64(const JsonValue& obj, const char* key, uint64_t* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::Ok();
  long value = 0;
  if (!v->ToLong(&value) || value < 0) {
    return Status::InvalidArgument(std::string("'") + key +
                                   "' must be a non-negative integer");
  }
  *out = static_cast<uint64_t>(value);
  return Status::Ok();
}

// The string member `key` of `obj`, required and non-empty.
Status RequireString(const JsonValue& obj, const char* key, std::string* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || !v->is_string() || v->AsString().empty()) {
    return Status::InvalidArgument(std::string("'") + key +
                                   "' (non-empty string) is required");
  }
  *out = v->AsString();
  return Status::Ok();
}

Status RequireObjectBody(const std::string& body, JsonValue* out) {
  std::string error;
  if (!JsonValue::Parse(body, out, &error)) {
    return Status::InvalidArgument("request body is not JSON: " + error);
  }
  if (!out->is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  return Status::Ok();
}

void WriteStatusObject(JsonWriter* w, const Status& status) {
  w->Key("status");
  w->BeginObject();
  w->KV("code", StatusCodeName(status.code()));
  w->KV("message", status.message());
  w->EndObject();
}

Response ErrorResponse(Status status) {
  Response response;
  response.body = ErrorBody(status);
  response.status = std::move(status);
  return response;
}

}  // namespace

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kPrepare:
      return "prepare";
    case Verb::kExecute:
      return "execute";
    case Verb::kApplyFacts:
      return "apply-facts";
    case Verb::kStats:
      return "stats";
    case Verb::kTenants:
      return "tenants";
    case Verb::kMetrics:
      return "metrics";
  }
  return "?";
}

int HttpStatusFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kUnsupportedShape:
      return 422;
    case StatusCode::kRejected:
      return 429;
    case StatusCode::kCancelled:
      return 499;
    case StatusCode::kMemoryExceeded:
      return 503;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kDataLoss:
      return 500;  // Durable-state failure: not the client's fault.
  }
  return 500;
}

StatusCode StatusCodeForHttp(int http_status) {
  switch (http_status) {
    case 200:
      return StatusCode::kOk;
    case 400:
      return StatusCode::kInvalidArgument;
    case 404:
      return StatusCode::kNotFound;
    case 422:
      return StatusCode::kUnsupportedShape;
    case 429:
      return StatusCode::kRejected;
    case 499:
      return StatusCode::kCancelled;
    // 500 deliberately has no case: kDataLoss encodes to 500 but a bare 500
    // is any internal error, so it falls to the generic 5xx bucket below.
    // A real durable-state failure still decodes as kDataLoss through the
    // error envelope's status-code name (ParseErrorBody).
    case 503:
      return StatusCode::kMemoryExceeded;
    case 504:
      return StatusCode::kDeadlineExceeded;
    default:
      return (http_status >= 400 && http_status < 500)
                 ? StatusCode::kInvalidArgument
                 : StatusCode::kRejected;
  }
}

const char* HttpReasonPhrase(int http_status) {
  switch (http_status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 411:
      return "Length Required";
    case 413:
      return "Payload Too Large";
    case 422:
      return "Unprocessable Content";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 499:
      return "Client Closed Request";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    case 504:
      return "Gateway Timeout";
    case 505:
      return "HTTP Version Not Supported";
    default:
      return "Unknown";
  }
}

std::string ErrorBody(const Status& status) {
  JsonWriter w;
  w.BeginObject();
  w.Key("error");
  w.BeginObject();
  w.KV("code", StatusCodeName(status.code()));
  w.KV("http", HttpStatusFor(status.code()));
  w.KV("message", status.message());
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

bool ParseErrorBody(const JsonValue& body, Status* out) {
  const JsonValue* error = body.Find("error");
  if (error == nullptr || !error->is_object()) return false;
  const JsonValue* code = error->Find("code");
  if (code == nullptr || !code->is_string()) return false;
  StatusCode status_code;
  if (!StatusCodeFromName(code->AsString(), &status_code)) return false;
  const JsonValue* message = error->Find("message");
  *out = Status(status_code,
                message != nullptr && message->is_string() ? message->AsString()
                                                           : std::string());
  return true;
}

Status ExecuteRequestFromJson(const JsonValue& body, WireExecuteRequest* out) {
  *out = WireExecuteRequest();
  if (!body.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  Status s = RequireString(body, "query", &out->query);
  if (!s.ok()) return s;
  if (!(s = ReadString(body, "rewriter", &out->rewriter)).ok()) return s;
  if (!(s = ReadBool(body, "complete_instances", &out->complete_instances))
           .ok()) {
    return s;
  }
  if (!(s = ReadInt(body, "num_threads", &out->exec.num_threads)).ok()) {
    return s;
  }
  if (!(s = ReadBool(body, "incremental", &out->exec.incremental)).ok()) {
    return s;
  }
  if (!(s = ReadLong(body, "queue_timeout_ms", &out->exec.queue_timeout_ms))
           .ok()) {
    return s;
  }
  const JsonValue* limits = body.Find("limits");
  if (limits != nullptr) {
    if (!limits->is_object()) {
      return Status::InvalidArgument("'limits' must be an object");
    }
    EvaluatorLimits* l = &out->exec.limits;
    if (!(s = ReadLong(*limits, "max_generated_tuples",
                       &l->max_generated_tuples))
             .ok()) {
      return s;
    }
    if (!(s = ReadLong(*limits, "max_work", &l->max_work)).ok()) return s;
    if (!(s = ReadLong(*limits, "deadline_ms", &l->deadline_ms)).ok()) return s;
    if (!(s = ReadLong(*limits, "batch_rows", &l->batch_rows)).ok()) return s;
  }
  return Status::Ok();
}

std::string ExecuteRequestToJson(const WireExecuteRequest& wire) {
  JsonWriter w;
  w.BeginObject();
  w.KV("query", wire.query);
  w.KV("rewriter", wire.rewriter);
  w.KV("complete_instances", wire.complete_instances);
  w.KV("num_threads", wire.exec.num_threads);
  w.KV("incremental", wire.exec.incremental);
  w.KV("queue_timeout_ms", wire.exec.queue_timeout_ms);
  w.Key("limits");
  w.BeginObject();
  w.KV("max_generated_tuples", wire.exec.limits.max_generated_tuples);
  w.KV("max_work", wire.exec.limits.max_work);
  w.KV("deadline_ms", wire.exec.limits.deadline_ms);
  w.KV("batch_rows", wire.exec.limits.batch_rows);
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

namespace {

// The shared tail of both ExecuteResultToJson overloads: everything after
// the answers array.
template <typename AnswerEmitter>
std::string ExecuteResultJson(const Status& status, uint64_t snapshot_version,
                              bool partial, bool degraded, bool incremental,
                              bool cached, bool coalesced, long goal_tuples,
                              long generated_tuples, long join_emissions,
                              AnswerEmitter&& emit_answers) {
  JsonWriter w;
  w.BeginObject();
  WriteStatusObject(&w, status);
  w.KV("snapshot_version", snapshot_version);
  w.KV("partial", partial);
  w.KV("degraded", degraded);
  w.KV("incremental", incremental);
  w.KV("cached", cached);
  w.KV("coalesced", coalesced);
  w.Key("answers");
  w.BeginArray();
  emit_answers(&w);
  w.EndArray();
  w.Key("stats");
  w.BeginObject();
  w.KV("goal_tuples", goal_tuples);
  w.KV("generated_tuples", generated_tuples);
  w.KV("join_emissions", join_emissions);
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

}  // namespace

std::string ExecuteResultToJson(const ExecuteResult& result,
                                const Vocabulary& vocab) {
  return ExecuteResultJson(
      result.status, result.snapshot_version, result.partial, result.degraded,
      result.incremental, result.cached, result.coalesced,
      result.stats.goal_tuples, result.stats.generated_tuples,
      result.stats.join_emissions, [&](JsonWriter* w) {
        for (const std::vector<int>& tuple : result.answers) {
          w->BeginArray();
          for (int id : tuple) w->String(vocab.IndividualName(id));
          w->EndArray();
        }
      });
}

std::string ExecuteResultToJson(const WireExecuteResult& wire) {
  return ExecuteResultJson(
      wire.status, wire.snapshot_version, wire.partial, wire.degraded,
      wire.incremental, wire.cached, wire.coalesced, wire.goal_tuples,
      wire.generated_tuples, wire.join_emissions, [&](JsonWriter* w) {
        for (const std::vector<std::string>& tuple : wire.answers) {
          w->BeginArray();
          for (const std::string& name : tuple) w->String(name);
          w->EndArray();
        }
      });
}

Status ExecuteResultFromJson(const JsonValue& body, WireExecuteResult* out) {
  *out = WireExecuteResult();
  if (!body.is_object()) {
    return Status::InvalidArgument("result body must be a JSON object");
  }
  const JsonValue* status = body.Find("status");
  if (status == nullptr || !status->is_object()) {
    return Status::InvalidArgument("'status' (object) is required");
  }
  const JsonValue* code = status->Find("code");
  StatusCode status_code = StatusCode::kOk;
  if (code == nullptr || !code->is_string() ||
      !StatusCodeFromName(code->AsString(), &status_code)) {
    return Status::InvalidArgument("'status.code' is not a status name");
  }
  std::string message;
  Status s = ReadString(*status, "message", &message);
  if (!s.ok()) return s;
  out->status = Status(status_code, std::move(message));
  if (!(s = ReadUInt64(body, "snapshot_version", &out->snapshot_version))
           .ok()) {
    return s;
  }
  if (!(s = ReadBool(body, "partial", &out->partial)).ok()) return s;
  if (!(s = ReadBool(body, "degraded", &out->degraded)).ok()) return s;
  if (!(s = ReadBool(body, "incremental", &out->incremental)).ok()) return s;
  if (!(s = ReadBool(body, "cached", &out->cached)).ok()) return s;
  if (!(s = ReadBool(body, "coalesced", &out->coalesced)).ok()) return s;
  const JsonValue* answers = body.Find("answers");
  if (answers == nullptr || !answers->is_array()) {
    return Status::InvalidArgument("'answers' (array) is required");
  }
  out->answers.reserve(answers->items().size());
  for (const JsonValue& tuple : answers->items()) {
    if (!tuple.is_array()) {
      return Status::InvalidArgument("'answers' entries must be arrays");
    }
    std::vector<std::string> names;
    names.reserve(tuple.items().size());
    for (const JsonValue& name : tuple.items()) {
      if (!name.is_string()) {
        return Status::InvalidArgument("answer terms must be strings");
      }
      names.push_back(name.AsString());
    }
    out->answers.push_back(std::move(names));
  }
  const JsonValue* stats = body.Find("stats");
  if (stats != nullptr) {
    if (!stats->is_object()) {
      return Status::InvalidArgument("'stats' must be an object");
    }
    if (!(s = ReadLong(*stats, "goal_tuples", &out->goal_tuples)).ok()) {
      return s;
    }
    if (!(s = ReadLong(*stats, "generated_tuples", &out->generated_tuples))
             .ok()) {
      return s;
    }
    if (!(s = ReadLong(*stats, "join_emissions", &out->join_emissions)).ok()) {
      return s;
    }
  }
  return Status::Ok();
}

Status FactBatchFromJson(const JsonValue& body, WireFactBatch* out) {
  *out = WireFactBatch();
  if (!body.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  const JsonValue* concepts = body.Find("concepts");
  if (concepts != nullptr) {
    if (!concepts->is_array()) {
      return Status::InvalidArgument("'concepts' must be an array");
    }
    for (const JsonValue& fact : concepts->items()) {
      if (!fact.is_object()) {
        return Status::InvalidArgument("'concepts' entries must be objects");
      }
      WireFactBatch::ConceptFact parsed;
      Status s = RequireString(fact, "concept", &parsed.concept_name);
      if (!s.ok()) return s;
      if (!(s = RequireString(fact, "individual", &parsed.individual)).ok()) {
        return s;
      }
      out->concepts.push_back(std::move(parsed));
    }
  }
  const JsonValue* roles = body.Find("roles");
  if (roles != nullptr) {
    if (!roles->is_array()) {
      return Status::InvalidArgument("'roles' must be an array");
    }
    for (const JsonValue& fact : roles->items()) {
      if (!fact.is_object()) {
        return Status::InvalidArgument("'roles' entries must be objects");
      }
      WireFactBatch::RoleFact parsed;
      Status s = RequireString(fact, "role", &parsed.role);
      if (!s.ok()) return s;
      if (!(s = RequireString(fact, "subject", &parsed.subject)).ok()) return s;
      if (!(s = RequireString(fact, "object", &parsed.object)).ok()) return s;
      out->roles.push_back(std::move(parsed));
    }
  }
  return Status::Ok();
}

std::string FactBatchToJson(const WireFactBatch& batch) {
  JsonWriter w;
  w.BeginObject();
  w.Key("concepts");
  w.BeginArray();
  for (const auto& fact : batch.concepts) {
    w.BeginObject();
    w.KV("concept", fact.concept_name);
    w.KV("individual", fact.individual);
    w.EndObject();
  }
  w.EndArray();
  w.Key("roles");
  w.BeginArray();
  for (const auto& fact : batch.roles) {
    w.BeginObject();
    w.KV("role", fact.role);
    w.KV("subject", fact.subject);
    w.KV("object", fact.object);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

std::string GovernorCountersToJson(const QueryGovernor::Counters& counters) {
  JsonWriter w;
  w.BeginObject();
  w.KV("admitted", counters.admitted);
  w.KV("queued", counters.queued);
  w.KV("rejected_queue_full", counters.rejected_queue_full);
  w.KV("rejected_timeout", counters.rejected_timeout);
  w.KV("cancelled", counters.cancelled);
  w.KV("deadline_exceeded", counters.deadline_exceeded);
  w.KV("memory_exceeded", counters.memory_exceeded);
  w.KV("degraded_retries", counters.degraded_retries);
  w.KV("answer_cache_hits", counters.answer_cache_hits);
  w.KV("coalesced", counters.coalesced);
  w.KV("memory_used", counters.memory_used);
  w.KV("memory_high_water", counters.memory_high_water);
  w.EndObject();
  return w.TakeString();
}

Status GovernorCountersFromJson(const JsonValue& body,
                                QueryGovernor::Counters* out) {
  *out = QueryGovernor::Counters();
  if (!body.is_object()) {
    return Status::InvalidArgument("counters body must be a JSON object");
  }
  Status s;
  if (!(s = ReadLong(body, "admitted", &out->admitted)).ok()) return s;
  if (!(s = ReadLong(body, "queued", &out->queued)).ok()) return s;
  if (!(s = ReadLong(body, "rejected_queue_full", &out->rejected_queue_full))
           .ok()) {
    return s;
  }
  if (!(s = ReadLong(body, "rejected_timeout", &out->rejected_timeout)).ok()) {
    return s;
  }
  if (!(s = ReadLong(body, "cancelled", &out->cancelled)).ok()) return s;
  if (!(s = ReadLong(body, "deadline_exceeded", &out->deadline_exceeded))
           .ok()) {
    return s;
  }
  if (!(s = ReadLong(body, "memory_exceeded", &out->memory_exceeded)).ok()) {
    return s;
  }
  if (!(s = ReadLong(body, "degraded_retries", &out->degraded_retries)).ok()) {
    return s;
  }
  if (!(s = ReadLong(body, "answer_cache_hits", &out->answer_cache_hits))
           .ok()) {
    return s;
  }
  if (!(s = ReadLong(body, "coalesced", &out->coalesced)).ok()) return s;
  uint64_t memory = 0;
  if (!(s = ReadUInt64(body, "memory_used", &memory)).ok()) return s;
  out->memory_used = static_cast<size_t>(memory);
  memory = 0;
  if (!(s = ReadUInt64(body, "memory_high_water", &memory)).ok()) return s;
  out->memory_high_water = static_cast<size_t>(memory);
  return Status::Ok();
}

Service::Service(server::EngineRegistry* registry) : registry_(registry) {}

Response Service::Handle(const Request& request) {
  switch (request.verb) {
    case Verb::kTenants:
      return Tenants();
    case Verb::kMetrics:
      return Metrics();
    default:
      break;
  }
  std::shared_ptr<server::Tenant> tenant = registry_->Find(request.tenant);
  if (tenant == nullptr) {
    return ErrorResponse(
        Status::NotFound("unknown tenant '" + request.tenant + "'"));
  }
  switch (request.verb) {
    case Verb::kPrepare:
      return Prepare(*tenant, request);
    case Verb::kExecute:
      return Execute(*tenant, request);
    case Verb::kApplyFacts:
      return ApplyFacts(*tenant, request);
    case Verb::kStats:
      return Stats(*tenant);
    case Verb::kTenants:
    case Verb::kMetrics:
      break;  // Handled above.
  }
  return ErrorResponse(Status::InvalidArgument("unknown verb"));
}

namespace {

// Parses the prepare/execute body and resolves its rewriter name.  On
// success, `*prepared` holds the plan; parsing and Prepare (which may
// intern fresh IDB names on a cache miss) run under the tenant's exclusive
// vocabulary lock, released before the caller evaluates.
Status PrepareFromWire(server::Tenant& tenant, const std::string& body,
                       WireExecuteRequest* wire,
                       std::shared_ptr<const PreparedQuery>* prepared,
                       bool* cache_hit = nullptr) {
  JsonValue parsed_body;
  Status s = RequireObjectBody(body, &parsed_body);
  if (!s.ok()) return s;
  if (!(s = ExecuteRequestFromJson(parsed_body, wire)).ok()) return s;

  PrepareOptions options;
  if (!RewriterKindFromName(wire->rewriter, &options.auto_kind,
                            &options.kind)) {
    return Status::InvalidArgument(
        "unknown rewriter '" + wire->rewriter +
        "'; valid kinds: lin, log, tw, twstar, ucq, presto, auto");
  }
  options.rewrite.arbitrary_instances = !wire->complete_instances;

  std::unique_lock<std::shared_mutex> vocab_lock(tenant.vocab_mutex());
  std::string error;
  std::optional<ConjunctiveQuery> query =
      ParseQuery(wire->query, tenant.vocabulary(), &error);
  if (!query.has_value()) {
    return Status::InvalidArgument("query: " + error);
  }
  PrepareResult result = tenant.engine()->Prepare(*query, options);
  if (!result.ok()) return result.status;
  *prepared = std::move(result.query);
  if (cache_hit != nullptr) *cache_hit = result.cache_hit;
  return Status::Ok();
}

}  // namespace

Response Service::Prepare(server::Tenant& tenant, const Request& request) {
  WireExecuteRequest wire;
  std::shared_ptr<const PreparedQuery> prepared;
  bool cache_hit = false;
  Status s = PrepareFromWire(tenant, request.body, &wire, &prepared, &cache_hit);
  if (!s.ok()) return ErrorResponse(std::move(s));

  JsonWriter w;
  w.BeginObject();
  // The wire spelling, not the display name: a client can echo it straight
  // back as the next request's "rewriter" member.
  w.KV("rewriter", RewriterWireName(prepared->kind()));
  w.KV("clauses", prepared->program().num_clauses());
  w.KV("cache_hit", cache_hit);
  w.KV("truncated", prepared->diag().truncated);
  w.KV("components", prepared->diag().components);
  w.KV("star_transformed", prepared->diag().star_transformed);
  w.EndObject();
  Response response;
  response.body = w.TakeString();
  return response;
}

Response Service::Execute(server::Tenant& tenant, const Request& request) {
  WireExecuteRequest wire;
  std::shared_ptr<const PreparedQuery> prepared;
  Status s = PrepareFromWire(tenant, request.body, &wire, &prepared);
  if (!s.ok()) return ErrorResponse(std::move(s));

  wire.exec.cancel = request.cancel;
  // Evaluation never touches the vocabulary: no lock held.
  ExecuteResult result = tenant.engine()->Execute(*prepared, wire.exec);

  Response response;
  response.status = result.status;
  {
    // Serialising answers reads individual names: shared lock.
    std::shared_lock<std::shared_mutex> vocab_lock(tenant.vocab_mutex());
    response.body = ExecuteResultToJson(result, *tenant.vocabulary());
  }
  return response;
}

Response Service::ApplyFacts(server::Tenant& tenant, const Request& request) {
  JsonValue parsed_body;
  Status s = RequireObjectBody(request.body, &parsed_body);
  if (!s.ok()) return ErrorResponse(std::move(s));
  WireFactBatch wire;
  if (!(s = FactBatchFromJson(parsed_body, &wire)).ok()) {
    return ErrorResponse(std::move(s));
  }

  // Name resolution interns fresh individuals, and ApplyFactsOrError
  // validates ids against the vocabulary's current sizes, so both run
  // under the exclusive lock.  Execute never takes this lock, so serving
  // reads are unaffected; concurrent ApplyFacts calls serialise here
  // (they already serialise on the engine's snapshot update mutex).
  FactBatch batch;
  uint64_t version = 0;
  {
    std::unique_lock<std::shared_mutex> vocab_lock(tenant.vocab_mutex());
    Vocabulary* vocab = tenant.vocabulary();
    batch.concepts.reserve(wire.concepts.size());
    for (const auto& fact : wire.concepts) {
      int concept_id = vocab->FindConcept(fact.concept_name);
      if (concept_id < 0) {
        return ErrorResponse(Status::InvalidArgument(
            "unknown concept '" + fact.concept_name +
            "' (facts must use names the ontology declares)"));
      }
      batch.concepts.push_back(
          {concept_id, vocab->InternIndividual(fact.individual)});
    }
    batch.roles.reserve(wire.roles.size());
    for (const auto& fact : wire.roles) {
      int role_id = vocab->FindPredicate(fact.role);
      if (role_id < 0) {
        return ErrorResponse(Status::InvalidArgument(
            "unknown role '" + fact.role +
            "' (facts must use names the ontology declares)"));
      }
      batch.roles.push_back({role_id, vocab->InternIndividual(fact.subject),
                             vocab->InternIndividual(fact.object)});
    }
    s = tenant.engine()->ApplyFactsOrError(batch, &version);
  }
  if (!s.ok()) return ErrorResponse(std::move(s));

  JsonWriter w;
  w.BeginObject();
  w.KV("snapshot_version", version);
  w.Key("applied");
  w.BeginObject();
  w.KV("concepts", batch.concepts.size());
  w.KV("roles", batch.roles.size());
  w.EndObject();
  w.EndObject();
  Response response;
  response.body = w.TakeString();
  return response;
}

void AppendEngineStats(JsonWriter* w, const Engine& engine) {
  PlanCache::Stats plans = engine.cache_stats();
  AnswerCache::Stats answers = engine.answer_cache_stats();
  w->KV("snapshot_version", engine.snapshot_version());
  // GovernorCountersToJson is the one serialization of Counters; splice its
  // object here rather than emitting the fields a second way.
  w->Key("governor");
  w->Raw(GovernorCountersToJson(engine.governor_counters()));
  w->Key("plan_cache");
  w->BeginObject();
  w->KV("hits", plans.hits);
  w->KV("misses", plans.misses);
  w->KV("evictions", plans.evictions);
  w->KV("size", engine.cache_size());
  w->EndObject();
  w->Key("answer_cache");
  w->BeginObject();
  w->KV("hits", answers.hits);
  w->KV("misses", answers.misses);
  w->KV("insertions", answers.insertions);
  w->KV("evictions", answers.evictions);
  w->KV("invalidated", answers.invalidated);
  w->KV("size", engine.answer_cache_size());
  w->KV("bytes", engine.answer_cache_bytes());
  w->EndObject();
  w->KV("incremental_state_size", engine.incremental_state_size());
  if (engine.store() != nullptr) {
    const store::StoreCounters counters = engine.store()->counters();
    const std::shared_ptr<const DataSnapshot> snap = engine.snapshot();
    w->Key("store");
    w->BeginObject();
    w->KV("log_bytes", counters.log_bytes);
    w->KV("log_records", counters.log_records);
    w->KV("appended_batches", counters.appended_batches);
    w->KV("log_dropped_bytes", counters.log_dropped_bytes);
    w->KV("segments_written", counters.segments_written);
    w->KV("compactions_failed", counters.compactions_failed);
    w->KV("recovered_records", counters.recovered_records);
    w->KV("recovery_ms", engine.recovery_ms());
    w->KV("resident_columns", snap->ResidentColumns());
    w->KV("cold_columns", snap->ColdColumns());
    w->EndObject();
  }
}

Response Service::Stats(server::Tenant& tenant) {
  JsonWriter w;
  w.BeginObject();
  w.KV("tenant", tenant.name());
  w.KV("fingerprint", tenant.fingerprint());
  AppendEngineStats(&w, *tenant.engine());
  w.EndObject();
  Response response;
  response.body = w.TakeString();
  return response;
}

Response Service::Tenants() {
  JsonWriter w;
  w.BeginObject();
  w.KV("api_version", kApiVersion);
  w.Key("tenants");
  w.BeginArray();
  for (const auto& tenant : registry_->List()) {
    w.BeginObject();
    w.KV("name", tenant->name());
    w.KV("fingerprint", tenant->fingerprint());
    w.KV("snapshot_version", tenant->engine()->snapshot_version());
    w.KV("slots", registry_->tenant_slots());
    w.KV("memory_bytes", registry_->tenant_memory_bytes());
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  Response response;
  response.body = w.TakeString();
  return response;
}

Response Service::Metrics() {
  Response response;
  MetricsRegistry* metrics = MetricsRegistry::Global();
  if (metrics != nullptr) {
    response.body = metrics->ToJson();
  } else {
    response.body = "{\"counters\":{},\"timers\":{},\"spans\":[]}";
  }
  return response;
}

}  // namespace api
}  // namespace owlqr
