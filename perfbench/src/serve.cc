// Workload "serve": HTTP/1.1 over loopback against an in-process server.
//
// The tenant is the Example 11 ontology over Table 2 dataset 2 at scale 1.0
// (5000 individuals, average degree 10), with the answer cache and request
// coalescing on, as `owlqr_cli --serve --answer-cache-mb=64` runs it.  An
// HttpServer with 1 worker serves 1 client on one keep-alive connection in
// a closed loop, so at most one thread is busy at a time: with more, the
// wire path's latency measured how the host scheduled the threads.  The
// client runs a seeded script: requests draw from Zipf(1) over a frozen
// pool of unary tree queries, and 1 request in 100 is an 8-fact
// apply-facts over existing individuals, which bumps the snapshot version
// so that memoized answers miss and re-evaluate.  The script runs kPasses
// times, each pass against a fresh tenant and server.
//
// Only the raw HttpClient::Post round trip is timed; the client decodes
// and checks the body after the timed span.  Every execute response must
// equal an in-process Engine::Execute at the same snapshot_version: an
// oracle engine replays the acknowledged batches in version order and
// evaluates each (query, version) pair the responses name.  At the end,
// the governor's outcome counters must reconcile with the executes sent.
//
// Every request names the Tw rewriter.  On these branching tree queries
// "auto" picks Lin, whose rewriting joins the branches as cross products:
// most pool queries then generate millions of tuples and take seconds.

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "engine/engine.h"
#include "ndl/evaluator.h"
#include "server/api.h"
#include "server/client.h"
#include "server/http_server.h"
#include "server/registry.h"
#include "syntax/parser.h"
#include "util/json.h"
#include "workloads/paper_workloads.h"

namespace owlqr {
namespace perfbench {
namespace {

constexpr char kTenant[] = "paper";
constexpr int kWorkers = 1;
// One request in kWriteEvery is an apply-facts.
constexpr int kWriteEvery = 100;
// The script is cut into this many blocks with the same mix of reads.
constexpr int kScriptBlocks = 10;
constexpr int kRolesPerBatch = 6;
constexpr int kConceptsPerBatch = 2;
// Requests served per second on a 4-core x86-64 VM; the passes together
// hold seconds * rate requests.
constexpr double kNominalRequestsPerSecond = 200;
// Independent oracle engines checking the responses after the run.
constexpr size_t kOracleThreads = 4;

using Answers = std::vector<std::vector<int>>;

// Order-independent fingerprint of an answer set given as names.
uint64_t TupleHash(const std::vector<std::string>& tuple) {
  uint64_t h = 1469598103934665603ull;
  for (const std::string& name : tuple) {
    for (char c : name) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

struct AnswerDigest {
  uint64_t sum = 0;
  size_t count = 0;
  bool operator==(const AnswerDigest& o) const {
    return sum == o.sum && count == o.count;
  }
};

AnswerDigest DigestNames(const std::vector<std::vector<std::string>>& answers) {
  AnswerDigest d;
  for (const auto& tuple : answers) d.sum += TupleHash(tuple);
  d.count = answers.size();
  return d;
}

AnswerDigest DigestIds(const Answers& answers, const Vocabulary& vocab) {
  AnswerDigest d;
  std::vector<std::string> names;
  for (const auto& tuple : answers) {
    names.clear();
    for (int id : tuple) names.push_back(vocab.IndividualName(id));
    d.sum += TupleHash(names);
  }
  d.count = answers.size();
  return d;
}

// The frozen query pool, in Zipf rank order (rank 0 is the most requested),
// the same for every --seed: unary tree queries q(x0) over R and S with 2
// to 5 atoms.  Over dataset 2 at scale 1.0 the first five return all 5000
// individuals and the sixth 1045, so the median request is an answer-cache
// hit with a 20-60 KB body: the wire path and the JSON encoder set it, not
// a scheduling hiccup on a 100-byte reply.  The rest return 0 to 200
// answers.  Misses cost 8-40 ms of evaluation each.
const std::vector<std::string>& Pool() {
  static const auto* pool = new std::vector<std::string>{
    "q(x0) :- R(x0, x1), R(x1, x2)",
    "q(x0) :- R(x1, x0), R(x0, x2), R(x0, x3)",
    "q(x0) :- R(x0, x1), R(x0, x2), R(x1, x3), R(x2, x4)",
    "q(x0) :- R(x0, x1), R(x0, x2)",
    "q(x0) :- R(x1, x0), R(x0, x2)",
    "q(x0) :- R(x1, x0), R(x1, x2), R(x1, x3), R(x0, x4), S(x5, x2)",
    "q(x0) :- R(x0, x1), S(x2, x0)",
    "q(x0) :- R(x1, x0), R(x0, x2), S(x0, x3)",
    "q(x0) :- S(x0, x1), S(x0, x2), R(x3, x0), S(x4, x0)",
    "q(x0) :- R(x0, x1), R(x2, x0), S(x1, x3), S(x1, x4), S(x0, x5)",
    "q(x0) :- R(x0, x1), R(x2, x0), S(x3, x2), R(x2, x4)",
    "q(x0) :- S(x0, x1), R(x0, x2), R(x2, x3), R(x0, x4), S(x5, x0)",
    "q(x0) :- R(x1, x0), S(x2, x0), R(x1, x3)",
    "q(x0) :- S(x0, x1), R(x1, x2), S(x1, x3), S(x4, x1), S(x0, x5)",
    "q(x0) :- S(x1, x0), S(x2, x0)",
    "q(x0) :- S(x1, x0), R(x2, x0), R(x2, x3)",
    "q(x0) :- S(x0, x1), S(x2, x1), R(x1, x3), R(x2, x4)",
    "q(x0) :- S(x0, x1), R(x1, x2), S(x1, x3), R(x4, x3), R(x5, x0)",
    "q(x0) :- S(x1, x0), S(x1, x2)",
    "q(x0) :- S(x0, x1), S(x1, x2), S(x2, x3)",
    "q(x0) :- R(x1, x0), S(x0, x2), S(x3, x2), S(x4, x2)",
    "q(x0) :- R(x0, x1), S(x2, x0), S(x1, x3), R(x4, x1), S(x1, x5)",
    "q(x0) :- S(x1, x0), R(x2, x0)",
    "q(x0) :- R(x1, x0), R(x2, x0), S(x0, x3)",
    "q(x0) :- S(x0, x1), R(x2, x0), S(x3, x1), S(x1, x4)",
    "q(x0) :- S(x1, x0), S(x0, x2), R(x2, x3), R(x4, x1), S(x5, x4)",
    "q(x0) :- R(x1, x0), S(x2, x0)",
    "q(x0) :- S(x1, x0), R(x2, x1), R(x0, x3)",
    "q(x0) :- R(x0, x1), R(x2, x0), S(x2, x3), R(x1, x4)",
    "q(x0) :- S(x1, x0), R(x2, x0), R(x3, x0), S(x4, x3), R(x1, x5)",
    "q(x0) :- S(x0, x1), S(x0, x2), S(x3, x2)",
    "q(x0) :- S(x1, x0), R(x2, x0), S(x3, x1), R(x4, x2)",
    "q(x0) :- S(x1, x0), R(x0, x2)",
    "q(x0) :- R(x1, x0), R(x0, x2), S(x1, x3)",
    "q(x0) :- R(x0, x1), S(x2, x1), S(x3, x1), R(x2, x4)",
    "q(x0) :- R(x0, x1), R(x1, x2), S(x2, x3), S(x0, x4), S(x1, x5)",
    "q(x0) :- S(x1, x0), R(x1, x2)",
    "q(x0) :- S(x0, x1), R(x2, x0), S(x1, x3)",
    "q(x0) :- S(x1, x0), R(x0, x2), S(x3, x1), S(x4, x0)",
    "q(x0) :- S(x0, x1), R(x1, x2), S(x3, x1), S(x1, x4), S(x5, x0)",
    "q(x0) :- S(x1, x0), S(x0, x2), R(x3, x0)",
    "q(x0) :- S(x1, x0), R(x1, x2), R(x1, x3), S(x3, x4)",
    "q(x0) :- S(x1, x0), R(x1, x2), S(x2, x3), S(x3, x4), R(x5, x4)",
    "q(x0) :- S(x1, x0), S(x1, x2)",
    "q(x0) :- S(x0, x1), S(x0, x2), R(x3, x2)",
    "q(x0) :- R(x1, x0), S(x0, x2), S(x0, x3), S(x4, x2), R(x5, x0)",
  };
  return *pool;
}

struct Op {
  bool write = false;
  int index = 0;  // Pool query, or batch.
};

// The seeded script of `length` requests: an apply-facts at every
// kWriteEvery-th position, and reads whose per-query counts in each of the
// kScriptBlocks blocks follow Zipf(1) over the pool exactly (largest
// remainder), in a seeded order.  Every seed sends the same multiset of
// requests in every block; only the order differs.
std::vector<Op> MakeScript(uint64_t seed, long length, int* next_batch) {
  const int pool = static_cast<int>(Pool().size());
  auto is_write = [](long i) { return i % kWriteEvery == kWriteEvery - 1; };
  double total = 0;
  for (int r = 0; r < pool; ++r) total += 1.0 / (r + 1);
  std::mt19937_64 rng(seed * 7919);

  std::vector<Op> script;
  for (int b = 0; b < kScriptBlocks; ++b) {
    const long begin = length * b / kScriptBlocks;
    const long end = length * (b + 1) / kScriptBlocks;
    long reads = 0;
    for (long i = begin; i < end; ++i) reads += is_write(i) ? 0 : 1;
    std::vector<long> counts(pool);
    std::vector<std::pair<double, int>> remainders;
    long assigned = 0;
    for (int r = 0; r < pool; ++r) {
      const double exact = static_cast<double>(reads) / ((r + 1) * total);
      counts[r] = static_cast<long>(exact);
      assigned += counts[r];
      remainders.emplace_back(exact - static_cast<double>(counts[r]), r);
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto& x, const auto& y) {
                return x.first != y.first ? x.first > y.first
                                          : x.second < y.second;
              });
    for (long i = 0; i < reads - assigned; ++i) {
      ++counts[remainders[i].second];
    }
    std::vector<int> queries;
    for (int r = 0; r < pool; ++r) queries.insert(queries.end(), counts[r], r);
    std::shuffle(queries.begin(), queries.end(), rng);
    size_t next_read = 0;
    for (long i = begin; i < end; ++i) {
      Op op;
      op.write = is_write(i);
      op.index = op.write ? (*next_batch)++ : queries[next_read++];
      script.push_back(op);
    }
  }
  return script;
}

// 8 facts over existing individuals: R edges plus A[P] / A[P-] labels.
api::WireFactBatch MakeBatch(std::mt19937_64* rng, int vertices,
                             const std::string& prefix,
                             const std::string& a_p,
                             const std::string& a_p_inv) {
  api::WireFactBatch batch;
  auto vertex = [&] {
    return prefix + "_v" + std::to_string((*rng)() % vertices);
  };
  for (int i = 0; i < kRolesPerBatch; ++i) {
    batch.roles.push_back({"R", vertex(), vertex()});
  }
  for (int i = 0; i < kConceptsPerBatch; ++i) {
    batch.concepts.push_back({i % 2 == 0 ? a_p : a_p_inv, vertex()});
  }
  return batch;
}

struct ReadRecord {
  int query = 0;
  uint64_t version = 0;
  AnswerDigest digest;
};

struct ApplyRecord {
  uint64_t version = 0;
  int batch = 0;
};

// What the client measured and observed in one pass.
struct ClientLog {
  std::vector<OpSample> samples;  // Timed executes.
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  std::vector<ReadRecord> reads;
  std::vector<ApplyRecord> applies;
  long attempted = 0;
  long failed = 0;
  long executes = 0;  // Execute requests that reached the tenant engine.
  long cached = 0;
  long coalesced = 0;
  long rejected = 0;
  long degraded = 0;
  double body_bytes = 0;
  // Traced run: HTTP minus in-process Handle, over answer-cache hits.
  std::vector<double> wire_ms;
  std::vector<double> wire_share;
};

// The tenant, its server, and the pool the client sends.
struct ServeWorld {
  std::unique_ptr<server::EngineRegistry> registry;
  std::shared_ptr<server::Tenant> tenant;
  std::unique_ptr<api::Service> service;
  std::unique_ptr<server::HttpServer> http;
  std::vector<std::string> pool;
  std::vector<std::string> execute_bodies;
  std::vector<ConjunctiveQuery> tenant_queries;  // Parsed in tenant vocab.
  DatasetConfig config;
  std::string a_p, a_p_inv;
};

std::string TenantPath(const char* verb) {
  return std::string(api::kApiPrefix) + "/t/" + kTenant + "/" + verb;
}

// Builds the tenant and starts the server; false (with a note) on failure.
bool SetUp(ServeWorld* w, Report* report) {
  w->config = Table2Configs(1.0)[1];
  auto vocab = std::make_unique<Vocabulary>();
  std::unique_ptr<TBox> tbox = MakeExample11TBox(vocab.get());
  DataInstance data = GenerateDataset(vocab.get(), *tbox, w->config);
  const int p = vocab->FindPredicate("P");
  w->a_p = vocab->ConceptName(tbox->ExistsConcept(RoleOf(p)));
  w->a_p_inv = vocab->ConceptName(tbox->ExistsConcept(RoleOf(p, true)));

  server::RegistryOptions options;
  options.max_tenants = 1;
  options.engine.answer_cache_capacity = 256;
  options.engine.answer_cache_max_bytes = 64u << 20;
  options.engine.coalesce = true;
  w->registry = std::make_unique<server::EngineRegistry>(options);
  Status s = w->registry->Register(kTenant, std::move(vocab), *tbox, data,
                                   nullptr, &w->tenant);
  if (!s.ok()) {
    report->Fail("register: " + s.ToString());
    return false;
  }
  w->service = std::make_unique<api::Service>(w->registry.get());
  server::HttpServerOptions http_options;
  http_options.num_workers = kWorkers;
  w->http = std::make_unique<server::HttpServer>(w->service.get(),
                                                 http_options);
  if (!(s = w->http->Start()).ok()) {
    report->Fail("server start: " + s.ToString());
    return false;
  }

  w->pool = Pool();
  for (const std::string& text : w->pool) {
    api::WireExecuteRequest wire;
    wire.query = text;
    wire.rewriter = "tw";
    w->execute_bodies.push_back(api::ExecuteRequestToJson(wire));
    std::unique_lock<std::shared_mutex> lock(w->tenant->vocab_mutex());
    std::string error;
    std::optional<ConjunctiveQuery> q =
        ParseQuery(text, w->tenant->vocabulary(), &error);
    if (!q.has_value()) {
      report->Fail("pool query: " + error);
      return false;
    }
    w->tenant_queries.push_back(*q);
  }
  return true;
}

// Counts TCP connections this network namespace has actively opened
// (/proc/net/snmp Tcp ActiveOpens); -1 when unreadable.
long ActiveOpens() {
  std::ifstream snmp("/proc/net/snmp");
  std::string header, values;
  while (std::getline(snmp, header) && std::getline(snmp, values)) {
    if (header.rfind("Tcp:", 0) != 0) continue;
    std::istringstream hs(header), vs(values);
    std::string key, value;
    while (hs >> key && vs >> value) {
      if (key == "ActiveOpens") return std::atol(value.c_str());
    }
  }
  return -1;
}

// The traced replays of one execute, after its timed round trip: the
// in-process layers the HTTP request passed through, each on its own.
void ReplayExecute(ServeWorld* w, int query, const std::string& body,
                   double post_ms, bool was_cached, long rid, Tracer* tracer,
                   ClientLog* log) {
  server::Tenant& tenant = *w->tenant;
  {
    JsonValue parsed;
    JsonValue::Parse(body, &parsed);
    api::WireExecuteRequest wire;
    Tracer::Scope span(tracer, "api.decode", rid);
    api::ExecuteRequestFromJson(parsed, &wire);
  }
  api::Request request;
  request.verb = api::Verb::kExecute;
  request.tenant = kTenant;
  request.body = body;
  double handle_ms = 0;
  {
    Tracer::Scope span(tracer, "api.handle", rid);
    const Clock::time_point t0 = Clock::now();
    api::Response response = w->service->Handle(request);
    handle_ms = MsBetween(t0, Clock::now());
  }
  ++log->executes;
  if (was_cached) {
    log->wire_ms.push_back(post_ms - handle_ms);
    log->wire_share.push_back(post_ms > 0 ? (post_ms - handle_ms) / post_ms
                                          : 0);
  }
  std::shared_ptr<const PreparedQuery> plan;
  {
    std::unique_lock<std::shared_mutex> lock(tenant.vocab_mutex());
    Tracer::Scope span(tracer, "engine.prepare_warm", rid);
    PrepareResult prepared =
        tenant.engine()->Prepare(w->tenant_queries[query], TwOptions());
    span.Count("hit", prepared.cache_hit ? 1 : 0);
    plan = prepared.query;
  }
  if (plan == nullptr) return;
  ExecuteResult result;
  {
    Tracer::Scope span(tracer, "engine.execute", rid);
    result = tenant.engine()->Execute(*plan, ExecuteRequest());
    span.Count("cached", result.cached ? 1 : 0);
  }
  ++log->executes;
  {
    std::shared_lock<std::shared_mutex> lock(tenant.vocab_mutex());
    Tracer::Scope span(tracer, "api.encode", rid);
    std::string json = api::ExecuteResultToJson(result, *tenant.vocabulary());
    span.Count("answers", static_cast<double>(result.answers.size()));
  }
  if (!was_cached) {
    // The evaluation this request paid for, replayed on the evaluator.
    Evaluator eval(plan->program(), tenant.engine()->snapshot());
    eval.set_join_order_hints(plan->join_order_hints());
    Tracer::Scope span(tracer, "ndl.run", rid);
    ExecuteResult r = eval.Run(ExecuteRequest());
    span.Count("generated_tuples",
               static_cast<double>(r.stats.generated_tuples));
    span.Count("join_emissions", static_cast<double>(r.stats.join_emissions));
    span.Count("index_builds", static_cast<double>(r.stats.index_builds));
    span.Count("batch_probes", static_cast<double>(r.stats.batch_probes));
  }
}

void RunClient(ServeWorld* w, const std::vector<Op>& script,
               const std::vector<std::string>& batch_bodies, int pass,
               Tracer* tracer, ClientLog* log) {
  server::HttpClient http("127.0.0.1", w->http->port());
  const std::string execute_path = TenantPath("execute");
  const std::string apply_path = TenantPath("apply-facts");
  long rid = static_cast<long>(pass) << 32;
  for (size_t i = 0; i < script.size(); ++i) {
    const Op& op = script[i];
    ++rid;
    ++log->attempted;
    const std::string& body =
        op.write ? batch_bodies[op.index] : w->execute_bodies[op.index];
    int code = 0;
    std::string response;
    Status transport;
    double ms = 0;
    {
      Tracer::Scope root(tracer, "bench.op", rid);
      Tracer::Scope span(tracer, "server.post", rid);
      const Clock::time_point t0 = Clock::now();
      transport = http.Post(op.write ? apply_path : execute_path, body, &code,
                            &response);
      ms = MsBetween(t0, Clock::now());
      span.Count("body_bytes", static_cast<double>(response.size()));
    }
    // Decode and check, outside the timed span.
    JsonValue parsed;
    if (!transport.ok() || code != 200 || !JsonValue::Parse(response, &parsed)) {
      if (code == 429) ++log->rejected;
      if (!op.write && transport.ok()) ++log->executes;
      ++log->failed;
      continue;
    }
    if (op.write) {
      log->write_ms.push_back(ms);
      const JsonValue* v = parsed.Find("snapshot_version");
      if (v == nullptr) {
        ++log->failed;
        continue;
      }
      log->applies.push_back({static_cast<uint64_t>(v->AsLong()), op.index});
      if (tracer->enabled()) {
        api::WireFactBatch decoded;
        JsonValue request_json;
        JsonValue::Parse(body, &request_json);
        Tracer::Scope span(tracer, "api.apply_decode", rid);
        api::FactBatchFromJson(request_json, &decoded);
      }
      continue;
    }
    ++log->executes;
    log->read_ms.push_back(ms);
    log->samples.push_back({static_cast<long>(i), ms});
    log->body_bytes += static_cast<double>(response.size());
    api::WireExecuteResult result;
    if (!api::ExecuteResultFromJson(parsed, &result).ok() ||
        !result.status.ok() || result.partial || result.degraded) {
      if (result.degraded) ++log->degraded;
      ++log->failed;
      continue;
    }
    if (result.cached) ++log->cached;
    if (result.coalesced) ++log->coalesced;
    log->reads.push_back(
        {op.index, result.snapshot_version, DigestNames(result.answers)});
    if (tracer->enabled()) {
      ReplayExecute(w, op.index, body, ms, result.cached, rid, tracer, log);
    }
  }
}

using ReadsByVersion = std::map<uint64_t, std::vector<const ReadRecord*>>;

// One oracle's share of the check: an independent in-process engine that
// replays the acknowledged batches in version order and evaluates every
// (query, version) pair read at the versions in [first, last].
struct OracleShard {
  uint64_t first = 0;
  uint64_t last = 0;
  long failed = 0;
  long pairs = 0;
  std::string error;
};

void RunOracleShard(const ServeWorld& w,
                    const std::vector<api::WireFactBatch>& batches,
                    const std::map<uint64_t, int>& applies,
                    const ReadsByVersion& reads, OracleShard* shard) {
  Vocabulary vocab;
  std::unique_ptr<TBox> tbox = MakeExample11TBox(&vocab);
  DataInstance data = GenerateDataset(&vocab, *tbox, w.config);
  Engine oracle(*tbox, data);
  std::vector<std::shared_ptr<const PreparedQuery>> plans;
  for (const std::string& text : w.pool) {
    std::string error;
    std::optional<ConjunctiveQuery> q = ParseQuery(text, &vocab, &error);
    PrepareResult prepared = oracle.Prepare(*q, TwOptions());
    if (!prepared.ok()) {
      shard->error = "oracle prepare: " + prepared.status.ToString();
      return;
    }
    plans.push_back(prepared.query);
  }
  for (auto at = reads.lower_bound(shard->first);
       at != reads.end() && at->first <= shard->last; ++at) {
    while (oracle.snapshot_version() < at->first) {
      const uint64_t next = oracle.snapshot_version() + 1;
      auto it = applies.find(next);
      if (it == applies.end()) break;
      const api::WireFactBatch& wire = batches[it->second];
      FactBatch batch;
      for (const auto& f : wire.concepts) {
        batch.concepts.push_back({vocab.FindConcept(f.concept_name),
                                  vocab.FindIndividual(f.individual)});
      }
      for (const auto& f : wire.roles) {
        batch.roles.push_back({vocab.FindPredicate(f.role),
                               vocab.FindIndividual(f.subject),
                               vocab.FindIndividual(f.object)});
      }
      uint64_t got = 0;
      if (!oracle.ApplyFactsOrError(batch, &got).ok() || got != next) break;
    }
    if (oracle.snapshot_version() != at->first) {
      shard->error = "oracle cannot reach snapshot version " +
                     std::to_string(at->first);
      shard->failed += static_cast<long>(at->second.size());
      return;
    }
    std::map<int, AnswerDigest> expected;
    for (const ReadRecord* r : at->second) {
      auto it = expected.find(r->query);
      if (it == expected.end()) {
        ExecuteResult result = oracle.Execute(*plans[r->query]);
        it = expected.emplace(r->query, DigestIds(result.answers, vocab))
                 .first;
        ++shard->pairs;
      }
      if (!(it->second == r->digest)) ++shard->failed;
    }
  }
}

// Checks every read of every pass against the oracle, split by version
// range across kOracleThreads independent oracle engines.  The passes send
// the same script to fresh tenants, so they must agree on which batch made
// each version; each (query, version) pair is evaluated once for all of
// them.  Returns the failed reads.
long VerifyAgainstOracle(const ServeWorld& w,
                         const std::vector<api::WireFactBatch>& batches,
                         const std::vector<ClientLog>& logs, Report* report) {
  std::map<uint64_t, int> applies;  // version -> batch
  ReadsByVersion reads;
  size_t total = 0;
  for (const ClientLog& log : logs) {
    for (const ApplyRecord& a : log.applies) {
      auto [it, inserted] = applies.emplace(a.version, a.batch);
      if (!inserted && it->second != a.batch) {
        report->Fail("passes applied different batches at version " +
                     std::to_string(a.version));
      }
    }
    for (const ReadRecord& r : log.reads) reads[r.version].push_back(&r);
    total += log.reads.size();
  }
  // Contiguous version ranges holding about equal numbers of reads.
  std::vector<OracleShard> shards;
  size_t seen = 0;
  for (const auto& [version, at_version] : reads) {
    const size_t bucket = seen * kOracleThreads / std::max<size_t>(1, total);
    if (shards.size() <= bucket) {
      shards.emplace_back();
      shards.back().first = version;
    }
    shards.back().last = version;
    seen += at_version.size();
  }
  std::vector<std::thread> threads;
  for (OracleShard& shard : shards) {
    threads.emplace_back(RunOracleShard, std::cref(w), std::cref(batches),
                         std::cref(applies), std::cref(reads), &shard);
  }
  for (std::thread& t : threads) t.join();
  long failed = 0, pairs = 0;
  for (const OracleShard& shard : shards) {
    failed += shard.failed;
    pairs += shard.pairs;
    if (!shard.error.empty()) report->Fail(shard.error);
  }
  report->Note("oracle evaluated " + std::to_string(pairs) +
               " (query, version) pairs over " +
               std::to_string(applies.size()) + " applied batches");
  return failed;
}

// Builds a fresh tenant and server and warms them up (untimed: every pool
// query once over HTTP); null (with a note) on failure.
std::unique_ptr<ServeWorld> SetUpAndWarm(Report* report) {
  auto w = std::make_unique<ServeWorld>();
  if (!SetUp(w.get(), report)) return nullptr;
  server::HttpClient warm("127.0.0.1", w->http->port());
  for (const std::string& body : w->execute_bodies) {
    int code = 0;
    std::string response;
    if (!warm.Post(TenantPath("execute"), body, &code, &response).ok() ||
        code != 200) {
      report->Fail("warm-up request failed with HTTP " + std::to_string(code));
    }
  }
  return w;
}

// Asserts that the governor's outcome counters reconcile with the execute
// requests the tenant saw, and notes them with the cache stats.
void ReconcileGovernor(const ServeWorld& w, long executes, Report* report) {
  Engine& engine = *w.tenant->engine();
  const QueryGovernor::Counters g = engine.governor_counters();
  const long resolved = g.admitted + g.rejected() + g.answer_cache_hits +
                        g.coalesced;
  const PlanCache::Stats plan_stats = engine.cache_stats();
  const AnswerCache::Stats answer_stats = engine.answer_cache_stats();
  std::ostringstream recon;
  recon << "governor: admitted " << g.admitted << " + rejected "
        << g.rejected() << " + answer_cache_hits " << g.answer_cache_hits
        << " + coalesced " << g.coalesced << " = " << resolved
        << " vs execute requests " << executes << "; plan cache hits "
        << plan_stats.hits << " misses " << plan_stats.misses
        << "; answer cache hits " << answer_stats.hits << " misses "
        << answer_stats.misses << " insertions " << answer_stats.insertions
        << " evictions " << answer_stats.evictions << " invalidated "
        << answer_stats.invalidated;
  report->Note(recon.str());
  if (resolved != executes) report->Fail("governor counters do not reconcile");
}

}  // namespace

Report RunServe(const Args& args, bool trace) {
  Report report;
  const Clock::time_point epoch = Clock::now();
  Tracer tracer(trace, epoch);

  // The script and the batches it writes: seconds * rate requests in all,
  // split over kPasses passes that each send the whole script.
  const long length = std::max<long>(
      kWriteEvery,
      static_cast<long>(args.seconds * kNominalRequestsPerSecond / kPasses));
  int next_batch = 0;
  const std::vector<Op> script = MakeScript(args.seed, length, &next_batch);
  std::vector<api::WireFactBatch> batches;
  std::vector<std::string> batch_bodies;

  std::vector<double> setup_s;
  std::vector<ClientLog> logs(kPasses);
  std::unique_ptr<ServeWorld> world;
  long opens = 0;
  double peak_rss_mb = 0;
  Clock::time_point start, end;
  for (int pass = 0; pass < kPasses; ++pass) {
    world.reset();
    const Clock::time_point t0 = Clock::now();
    world = SetUpAndWarm(&report);
    if (world == nullptr) {
      report.attempted = 1;
      report.failed = 1;
      AddCommonMetrics({0}, PeakRssMb(), &report);
      return report;
    }
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    ServeWorld& w = *world;
    if (pass == 0) {
      // The batches name the tenant's individuals and concepts.
      std::mt19937_64 batch_rng(args.seed ^ 0x62617463ull);
      for (int b = 0; b < next_batch; ++b) {
        batches.push_back(MakeBatch(&batch_rng, w.config.num_vertices,
                                    w.config.name, w.a_p, w.a_p_inv));
        batch_bodies.push_back(api::FactBatchToJson(batches.back()));
      }
    }

    const long opens_before = ActiveOpens();
    if (pass == 0) start = Clock::now();
    RunClient(&w, script, batch_bodies, pass, &tracer, &logs[pass]);
    end = Clock::now();
    opens += ActiveOpens() - opens_before;
    w.http->Stop();
    ReconcileGovernor(
        w, static_cast<long>(w.execute_bodies.size()) + logs[pass].executes,
        &report);
    // Each pass starts new server threads, and the allocator's per-thread
    // arenas keep what earlier passes freed: the peak after five passes
    // moved by 35% from seed to seed.  The set-up and first pass are one
    // serving run.
    if (pass == 0) peak_rss_mb = PeakRssMb();
  }
  ServeWorld& w = *world;

  std::vector<OpSample> samples;
  std::vector<double> read_ms, write_ms;
  long cached = 0, coalesced = 0, rejected = 0, degraded = 0, reads = 0;
  double body_bytes = 0;
  std::vector<double> wire_ms, wire_share;
  for (const ClientLog& log : logs) {
    samples.insert(samples.end(), log.samples.begin(), log.samples.end());
    read_ms.insert(read_ms.end(), log.read_ms.begin(), log.read_ms.end());
    write_ms.insert(write_ms.end(), log.write_ms.begin(), log.write_ms.end());
    wire_ms.insert(wire_ms.end(), log.wire_ms.begin(), log.wire_ms.end());
    wire_share.insert(wire_share.end(), log.wire_share.begin(),
                      log.wire_share.end());
    report.attempted += log.attempted;
    report.failed += log.failed;
    cached += log.cached;
    coalesced += log.coalesced;
    rejected += log.rejected;
    degraded += log.degraded;
    body_bytes += log.body_bytes;
    reads += static_cast<long>(log.read_ms.size());
  }
  report.failed += VerifyAgainstOracle(w, batches, logs, &report);

  AddLatencyMetrics(samples, &report);
  AddCommonMetrics(setup_s, peak_rss_mb, &report);
  report.Note("serve: " + std::to_string(kPasses) + " passes of " +
              std::to_string(length) + " requests, " + std::to_string(reads) +
              " executes and " + std::to_string(write_ms.size()) +
              " apply-facts in all; query_p99_ms " +
              std::to_string(Quantile(read_ms, 0.99)) + ", update_p50_ms " +
              std::to_string(Quantile(write_ms, 0.5)) + ", answer-cache hit " +
              std::to_string(reads > 0 ? static_cast<double>(cached) / reads
                                       : 0));

  if (trace) {
    SpanLog log;
    log.Add(tracer);
    const double n = std::max<double>(1, static_cast<double>(reads));
    report.AddLayer("server.wire_ms", Mean(wire_ms), "ms");
    report.AddLayer("server.wire_share", Mean(wire_share), "share");
    report.AddLayer("server.body_bytes", body_bytes / n, "bytes");
    report.AddLayer("server.connects_per_1k",
                    opens >= 0 ? 1000.0 * opens / report.attempted : 0,
                    "count");
    report.AddLayer("api.handle_ms", Mean(log.Durations("api.handle")), "ms");
    report.AddLayer("api.decode_ms", Mean(log.Durations("api.decode")), "ms");
    const std::vector<double> encode = log.Durations("api.encode");
    report.AddLayer("api.encode_ms", Mean(encode), "ms");
    const double answers = log.SumCount("api.encode", "answers");
    double encode_total = 0;
    for (double ms : encode) encode_total += ms;
    report.AddLayer("api.encode_ns_per_answer",
                    answers > 0 ? 1e6 * encode_total / answers : 0, "ns");
    report.AddLayer("api.apply_decode_ms",
                    Mean(log.Durations("api.apply_decode")), "ms");
    report.AddLayer("engine.prepare_warm_us",
                    1000.0 * Mean(log.Durations("engine.prepare_warm")), "us");
    report.AddLayer("engine.plan_hit_rate",
                    Mean(log.Counts("engine.prepare_warm", "hit")), "share");
    std::vector<double> hit_ms;
    {
      const std::vector<double> exec = log.Durations("engine.execute");
      const std::vector<double> hits = log.Counts("engine.execute", "cached");
      for (size_t i = 0; i < exec.size() && i < hits.size(); ++i) {
        if (hits[i] > 0) hit_ms.push_back(exec[i]);
      }
    }
    report.AddLayer("engine.hit_ms", Mean(hit_ms), "ms");
    report.AddLayer("engine.answer_hit_rate", cached / n, "share");
    report.AddLayer("engine.coalesce_rate", coalesced / n, "share");
    report.AddLayer("engine.reject_rate", rejected / n, "share");
    report.AddLayer("engine.degraded_rate", degraded / n, "share");
    const std::vector<double> run = log.Durations("ndl.run");
    report.AddLayer("ndl.run_ms", Mean(run), "ms");
    report.AddLayer("ndl.run_p90_ms", Quantile(run, 0.9), "ms");
    const double runs = std::max<double>(1, static_cast<double>(run.size()));
    const double generated = log.SumCount("ndl.run", "generated_tuples");
    const double emissions = log.SumCount("ndl.run", "join_emissions");
    report.AddLayer("ndl.generated_tuples", generated / runs, "count");
    report.AddLayer("ndl.join_emissions", emissions / runs, "count");
    report.AddLayer("ndl.dedup_yield",
                    emissions > 0 ? generated / emissions : 0, "share");
    report.AddLayer("ndl.index_builds",
                    log.SumCount("ndl.run", "index_builds") / runs, "count");
    report.AddLayer("ndl.batch_probes",
                    log.SumCount("ndl.run", "batch_probes") / runs, "count");
    AddSelfTimes(log, epoch, start, end, report.attempted, &report);
    if (!args.trace_out.empty()) log.WriteJson(args.trace_out);
  }
  return report;
}

}  // namespace perfbench
}  // namespace owlqr
