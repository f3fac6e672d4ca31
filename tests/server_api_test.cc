#include "server/api.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "server/registry.h"
#include "store/fs.h"
#include "syntax/parser.h"
#include "util/metrics.h"
#include "util/json.h"
#include "util/status.h"

namespace owlqr {
namespace {

// The quickstart ontology/data pair every serving test reuses.
constexpr char kOntology[] = R"(
    Professor SUB EX teaches
    EX teaches- SUB Course
    lectures SUBR teaches
    Dean SUB Professor
)";
constexpr char kData[] = R"(
    Professor(ann).
    Dean(dana).
    lectures(bob, algebra).
)";
constexpr char kQuery[] = "q(x) :- teaches(x, y), Course(y)";

JsonValue MustParse(const std::string& text) {
  JsonValue value;
  std::string error;
  EXPECT_TRUE(JsonValue::Parse(text, &value, &error))
      << error << " in: " << text;
  return value;
}

// ---------------------------------------------------------------------------
// The Status <-> HTTP table.
// ---------------------------------------------------------------------------

TEST(StatusHttpMappingTest, TableDrivenForward) {
  const struct {
    StatusCode code;
    int http;
  } kTable[] = {
      {StatusCode::kOk, 200},
      {StatusCode::kInvalidArgument, 400},
      {StatusCode::kNotFound, 404},
      {StatusCode::kUnsupportedShape, 422},
      {StatusCode::kRejected, 429},
      {StatusCode::kCancelled, 499},
      {StatusCode::kMemoryExceeded, 503},
      {StatusCode::kDeadlineExceeded, 504},
  };
  for (const auto& row : kTable) {
    EXPECT_EQ(api::HttpStatusFor(row.code), row.http)
        << StatusCodeName(row.code);
    // The inverse of every row in the table is exact.
    EXPECT_EQ(api::StatusCodeForHttp(row.http), row.code) << row.http;
    EXPECT_STRNE(api::HttpReasonPhrase(row.http), "") << row.http;
  }
  // kDataLoss encodes to 500, but the inverse is deliberately NOT exact: a
  // bare 500 is any internal server error, and decoding it as durable-state
  // data loss would mislead callers that branch on the code.  A real
  // kDataLoss still round-trips through the error envelope's code name.
  EXPECT_EQ(api::HttpStatusFor(StatusCode::kDataLoss), 500);
  EXPECT_STRNE(api::HttpReasonPhrase(500), "");
  EXPECT_EQ(api::StatusCodeForHttp(500), StatusCode::kRejected);
  JsonValue body = MustParse(api::ErrorBody(Status::DataLoss("log torn")));
  Status parsed;
  ASSERT_TRUE(api::ParseErrorBody(body, &parsed));
  EXPECT_EQ(parsed.code(), StatusCode::kDataLoss);
  EXPECT_EQ(body.Find("error")->Find("http")->AsLong(), 500);
}

TEST(StatusHttpMappingTest, UnknownCodesMapConservatively) {
  // Unknown 4xx: the request was wrong, retrying as-is cannot help.
  EXPECT_EQ(api::StatusCodeForHttp(405), StatusCode::kInvalidArgument);
  EXPECT_EQ(api::StatusCodeForHttp(431), StatusCode::kInvalidArgument);
  // Anything else: treat as retryable-with-backoff.
  EXPECT_EQ(api::StatusCodeForHttp(502), StatusCode::kRejected);
}

TEST(StatusHttpMappingTest, ErrorBodyRoundTrips) {
  Status original = Status::Rejected("queue full; back off");
  JsonValue body = MustParse(api::ErrorBody(original));
  Status parsed;
  ASSERT_TRUE(api::ParseErrorBody(body, &parsed));
  EXPECT_EQ(parsed.code(), StatusCode::kRejected);
  EXPECT_EQ(parsed.message(), "queue full; back off");
  EXPECT_EQ(body.Find("error")->Find("http")->AsLong(), 429);

  // A non-envelope body is recognised as such, not misparsed.
  Status ignored;
  EXPECT_FALSE(api::ParseErrorBody(MustParse("{\"answers\": []}"), &ignored));
}

// ---------------------------------------------------------------------------
// Codec round trips, one per verb body.
// ---------------------------------------------------------------------------

TEST(WireCodecTest, ExecuteRequestRoundTripsEveryField) {
  api::WireExecuteRequest original;
  original.query = kQuery;
  original.rewriter = "twstar";
  original.complete_instances = true;
  original.exec.num_threads = 4;
  original.exec.incremental = true;
  original.exec.queue_timeout_ms = 250;
  original.exec.limits.max_generated_tuples = 1000;
  original.exec.limits.max_work = 50000;
  original.exec.limits.deadline_ms = 750;
  original.exec.limits.batch_rows = 256;  // In-process only: not encoded.

  api::WireExecuteRequest decoded;
  ASSERT_TRUE(api::ExecuteRequestFromJson(
                  MustParse(api::ExecuteRequestToJson(original)), &decoded)
                  .ok());
  EXPECT_EQ(decoded.query, original.query);
  EXPECT_EQ(decoded.rewriter, original.rewriter);
  EXPECT_EQ(decoded.complete_instances, original.complete_instances);
  EXPECT_EQ(decoded.exec.num_threads, 4);
  EXPECT_TRUE(decoded.exec.incremental);
  EXPECT_EQ(decoded.exec.queue_timeout_ms, 250);
  EXPECT_EQ(decoded.exec.limits.max_generated_tuples, 1000);
  EXPECT_EQ(decoded.exec.limits.max_work, 50000);
  EXPECT_EQ(decoded.exec.limits.deadline_ms, 750);
  EXPECT_EQ(decoded.exec.limits.batch_rows, EvaluatorLimits().batch_rows);
  EXPECT_EQ(api::ExecuteRequestToJson(original).find("batch_rows"),
            std::string::npos);
}

TEST(WireCodecTest, ExecuteRequestDefaultsEverythingButQuery) {
  api::WireExecuteRequest decoded;
  ASSERT_TRUE(api::ExecuteRequestFromJson(
                  MustParse("{\"query\": \"q(x) :- A(x)\"}"), &decoded)
                  .ok());
  EXPECT_EQ(decoded.rewriter, "auto");
  EXPECT_FALSE(decoded.complete_instances);
  EXPECT_EQ(decoded.exec.num_threads, 1);
  EXPECT_EQ(decoded.exec.queue_timeout_ms, -1);
}

// "morsel_rows" and "batch_rows" were limits in earlier versions of the
// wire API.  Requests from clients that still send them must decode like
// any request carrying an unknown key: status OK, the key ignored (the
// in-process default kept), every other limit honoured.
TEST(WireCodecTest, ExecuteRequestIgnoresRetiredMorselRowsLimit) {
  api::WireExecuteRequest decoded;
  ASSERT_TRUE(api::ExecuteRequestFromJson(
                  MustParse("{\"query\": \"q(x) :- A(x)\", \"limits\": "
                            "{\"max_work\": 9, \"morsel_rows\": 64, "
                            "\"batch_rows\": 32}}"),
                  &decoded)
                  .ok());
  EXPECT_EQ(decoded.exec.limits.max_work, 9);
  EXPECT_EQ(decoded.exec.limits.batch_rows, EvaluatorLimits().batch_rows);
  const std::string encoded = api::ExecuteRequestToJson(decoded);
  EXPECT_EQ(encoded.find("morsel_rows"), std::string::npos);
  EXPECT_EQ(encoded.find("batch_rows"), std::string::npos);
}

TEST(WireCodecTest, ExecuteRequestRejectsMissingOrMistypedFields) {
  api::WireExecuteRequest decoded;
  Status s = api::ExecuteRequestFromJson(MustParse("{}"), &decoded);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("query"), std::string::npos);

  s = api::ExecuteRequestFromJson(
      MustParse("{\"query\": \"q(x) :- A(x)\", \"num_threads\": \"four\"}"),
      &decoded);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("num_threads"), std::string::npos);
}

TEST(WireCodecTest, ExecuteResultRoundTrips) {
  api::WireExecuteResult original;
  original.status = Status::DeadlineExceeded("out of time");
  original.answers = {{"ann"}, {"bob", "algebra"}};
  original.snapshot_version = 7;
  original.partial = true;
  original.degraded = true;
  original.incremental = false;
  original.cached = true;
  original.coalesced = true;
  original.goal_tuples = 2;
  original.generated_tuples = 17;
  original.join_emissions = 30;

  api::WireExecuteResult decoded;
  ASSERT_TRUE(api::ExecuteResultFromJson(
                  MustParse(api::ExecuteResultToJson(original)), &decoded)
                  .ok());
  EXPECT_EQ(decoded.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(decoded.status.message(), "out of time");
  EXPECT_EQ(decoded.answers, original.answers);
  EXPECT_EQ(decoded.snapshot_version, 7u);
  EXPECT_TRUE(decoded.partial);
  EXPECT_TRUE(decoded.degraded);
  EXPECT_FALSE(decoded.incremental);
  EXPECT_TRUE(decoded.cached);
  EXPECT_TRUE(decoded.coalesced);
  EXPECT_EQ(decoded.goal_tuples, 2);
  EXPECT_EQ(decoded.generated_tuples, 17);
  EXPECT_EQ(decoded.join_emissions, 30);
}

TEST(WireCodecTest, FactBatchRoundTrips) {
  api::WireFactBatch original;
  original.concepts.push_back({"Professor", "carol"});
  original.concepts.push_back({"Dean", "drew"});
  original.roles.push_back({"lectures", "carol", "logic"});

  api::WireFactBatch decoded;
  ASSERT_TRUE(
      api::FactBatchFromJson(MustParse(api::FactBatchToJson(original)),
                             &decoded)
          .ok());
  ASSERT_EQ(decoded.concepts.size(), 2u);
  EXPECT_EQ(decoded.concepts[0].concept_name, "Professor");
  EXPECT_EQ(decoded.concepts[0].individual, "carol");
  EXPECT_EQ(decoded.concepts[1].concept_name, "Dean");
  ASSERT_EQ(decoded.roles.size(), 1u);
  EXPECT_EQ(decoded.roles[0].role, "lectures");
  EXPECT_EQ(decoded.roles[0].subject, "carol");
  EXPECT_EQ(decoded.roles[0].object, "logic");
}

TEST(WireCodecTest, FactBatchRejectsMistypedMembers) {
  api::WireFactBatch decoded;
  Status s = api::FactBatchFromJson(
      MustParse("{\"concepts\": [{\"concept\": 3, \"individual\": \"a\"}]}"),
      &decoded);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  s = api::FactBatchFromJson(MustParse("{\"roles\": \"nope\"}"), &decoded);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(WireCodecTest, GovernorCountersRoundTrip) {
  QueryGovernor::Counters original;
  original.admitted = 10;
  original.queued = 3;
  original.rejected_queue_full = 2;
  original.rejected_timeout = 1;
  original.cancelled = 4;
  original.deadline_exceeded = 5;
  original.memory_exceeded = 6;
  original.degraded_retries = 7;
  original.answer_cache_hits = 8;
  original.coalesced = 9;
  original.memory_used = 1234;
  original.memory_high_water = 5678;

  QueryGovernor::Counters decoded;
  ASSERT_TRUE(api::GovernorCountersFromJson(
                  MustParse(api::GovernorCountersToJson(original)), &decoded)
                  .ok());
  EXPECT_EQ(decoded.admitted, 10);
  EXPECT_EQ(decoded.queued, 3);
  EXPECT_EQ(decoded.rejected_queue_full, 2);
  EXPECT_EQ(decoded.rejected_timeout, 1);
  EXPECT_EQ(decoded.cancelled, 4);
  EXPECT_EQ(decoded.deadline_exceeded, 5);
  EXPECT_EQ(decoded.memory_exceeded, 6);
  EXPECT_EQ(decoded.degraded_retries, 7);
  EXPECT_EQ(decoded.answer_cache_hits, 8);
  EXPECT_EQ(decoded.coalesced, 9);
  EXPECT_EQ(decoded.memory_used, 1234u);
  EXPECT_EQ(decoded.memory_high_water, 5678u);
}

// ---------------------------------------------------------------------------
// Service dispatch against a real registry (no socket).
// ---------------------------------------------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_ = std::make_unique<server::EngineRegistry>();
    ASSERT_TRUE(registry_->RegisterParsed("uni", kOntology, kData).ok());
    service_ = std::make_unique<api::Service>(registry_.get());
  }

  api::Response Call(api::Verb verb, const std::string& tenant,
                     const std::string& body) {
    api::Request request;
    request.verb = verb;
    request.tenant = tenant;
    request.body = body;
    return service_->Handle(request);
  }

  std::unique_ptr<server::EngineRegistry> registry_;
  std::unique_ptr<api::Service> service_;
};

TEST_F(ServiceTest, ExecuteReturnsAnswersMatchingTheEngine) {
  api::WireExecuteRequest wire;
  wire.query = kQuery;
  api::Response response =
      Call(api::Verb::kExecute, "uni", api::ExecuteRequestToJson(wire));
  ASSERT_TRUE(response.status.ok()) << response.body;
  api::WireExecuteResult result;
  ASSERT_TRUE(
      api::ExecuteResultFromJson(MustParse(response.body), &result).ok());
  std::sort(result.answers.begin(), result.answers.end());
  std::vector<std::vector<std::string>> expected = {
      {"ann"}, {"bob"}, {"dana"}};
  EXPECT_EQ(result.answers, expected);
  EXPECT_EQ(result.snapshot_version, 1u);
}

TEST_F(ServiceTest, PrepareReportsPlanShapeAndCacheHits) {
  api::WireExecuteRequest wire;
  wire.query = kQuery;
  wire.rewriter = "tw";
  api::Response first =
      Call(api::Verb::kPrepare, "uni", api::ExecuteRequestToJson(wire));
  ASSERT_TRUE(first.status.ok()) << first.body;
  JsonValue body = MustParse(first.body);
  EXPECT_EQ(body.Find("rewriter")->AsString(), "tw");
  EXPECT_GT(body.Find("clauses")->AsLong(), 0);
  EXPECT_FALSE(body.Find("cache_hit")->AsBool(true));

  api::Response second =
      Call(api::Verb::kPrepare, "uni", api::ExecuteRequestToJson(wire));
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(MustParse(second.body).Find("cache_hit")->AsBool(false));
}

TEST_F(ServiceTest, ApplyFactsInstallsAVersionAndExecuteSeesIt) {
  api::WireFactBatch batch;
  batch.roles.push_back({"lectures", "carol", "logic"});
  api::Response applied =
      Call(api::Verb::kApplyFacts, "uni", api::FactBatchToJson(batch));
  ASSERT_TRUE(applied.status.ok()) << applied.body;
  EXPECT_EQ(MustParse(applied.body).Find("snapshot_version")->AsLong(), 2);

  api::WireExecuteRequest wire;
  wire.query = kQuery;
  api::Response response =
      Call(api::Verb::kExecute, "uni", api::ExecuteRequestToJson(wire));
  ASSERT_TRUE(response.status.ok());
  api::WireExecuteResult result;
  ASSERT_TRUE(
      api::ExecuteResultFromJson(MustParse(response.body), &result).ok());
  EXPECT_EQ(result.snapshot_version, 2u);
  std::sort(result.answers.begin(), result.answers.end());
  std::vector<std::vector<std::string>> expected = {
      {"ann"}, {"bob"}, {"carol"}, {"dana"}};
  EXPECT_EQ(result.answers, expected);
}

TEST_F(ServiceTest, ApplyFactsRejectsUndeclaredNames) {
  api::WireFactBatch batch;
  batch.concepts.push_back({"NoSuchConcept", "x"});
  api::Response response =
      Call(api::Verb::kApplyFacts, "uni", api::FactBatchToJson(batch));
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  Status parsed;
  ASSERT_TRUE(api::ParseErrorBody(MustParse(response.body), &parsed));
  EXPECT_NE(parsed.message().find("NoSuchConcept"), std::string::npos);
}

TEST_F(ServiceTest, UnknownTenantIsNotFound) {
  api::Response response = Call(api::Verb::kStats, "nope", "");
  EXPECT_EQ(response.status.code(), StatusCode::kNotFound);
  JsonValue body = MustParse(response.body);
  EXPECT_EQ(body.Find("error")->Find("http")->AsLong(), 404);
}

TEST_F(ServiceTest, MalformedBodiesAreInvalidArgument) {
  for (const char* body : {"", "not json", "[1,2,3]", "{\"query\": 5}"}) {
    api::Response response = Call(api::Verb::kExecute, "uni", body);
    EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument) << body;
  }
}

// Numbers that do not fit the field they feed (beyond long, beyond int, or
// fractional) are rejected as the client's error, never truncated: 1e30 as
// a long is undefined behaviour, and 2^32 + 1 threads would read as 1.
TEST_F(ServiceTest, OutOfRangeNumbersAreRejectedWith400) {
  const std::string query = std::string("\"query\": \"") + kQuery + "\"";
  const struct {
    const char* field;
    std::string body;
  } kCases[] = {
      {"deadline_ms", "{" + query + ", \"limits\": {\"deadline_ms\": 1e30}}"},
      {"deadline_ms", "{" + query + ", \"limits\": {\"deadline_ms\": 2.5}}"},
      {"num_threads", "{" + query + ", \"num_threads\": 4294967297}"},
  };
  for (const auto& c : kCases) {
    api::Response response = Call(api::Verb::kExecute, "uni", c.body);
    EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument) << c.body;
    EXPECT_EQ(api::HttpStatusFor(response.status.code()), 400) << c.body;
    EXPECT_NE(response.status.message().find(c.field), std::string::npos)
        << response.status.message();
    EXPECT_EQ(MustParse(response.body).Find("error")->Find("http")->AsLong(),
              400);
  }
}

TEST_F(ServiceTest, UnknownRewriterNamesTheField) {
  api::Response response = Call(api::Verb::kExecute, "uni",
                                "{\"query\": \"q(x) :- Professor(x)\", "
                                "\"rewriter\": \"fancy\"}");
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response.status.message().find("fancy"), std::string::npos);
}

TEST_F(ServiceTest, StatsCountsTheTrafficWeSent) {
  api::WireExecuteRequest wire;
  wire.query = kQuery;
  ASSERT_TRUE(
      Call(api::Verb::kExecute, "uni", api::ExecuteRequestToJson(wire))
          .status.ok());
  api::Response stats = Call(api::Verb::kStats, "uni", "");
  ASSERT_TRUE(stats.status.ok());
  JsonValue body = MustParse(stats.body);
  EXPECT_EQ(body.Find("tenant")->AsString(), "uni");
  QueryGovernor::Counters counters;
  ASSERT_NE(body.Find("governor"), nullptr);
  ASSERT_TRUE(
      api::GovernorCountersFromJson(*body.Find("governor"), &counters).ok());
  EXPECT_GE(counters.admitted, 1);
}

TEST_F(ServiceTest, TenantsListsEveryRegistration) {
  api::Response response = Call(api::Verb::kTenants, "", "");
  ASSERT_TRUE(response.status.ok());
  JsonValue body = MustParse(response.body);
  EXPECT_EQ(body.Find("api_version")->AsLong(), api::kApiVersion);
  ASSERT_EQ(body.Find("tenants")->items().size(), 1u);
  const JsonValue& tenant = body.Find("tenants")->items()[0];
  EXPECT_EQ(tenant.Find("name")->AsString(), "uni");
  EXPECT_FALSE(tenant.Find("fingerprint")->AsString().empty());
}

TEST_F(ServiceTest, MetricsAlwaysReturnsTheTraceSkeleton) {
  api::Response response = Call(api::Verb::kMetrics, "", "");
  ASSERT_TRUE(response.status.ok());
  JsonValue body = MustParse(response.body);
  EXPECT_NE(body.Find("counters"), nullptr);
  EXPECT_NE(body.Find("timers"), nullptr);
  EXPECT_NE(body.Find("spans"), nullptr);
}

// With the answer cache on, a hit's body is the miss's body with only
// "cached" flipped, and the answers array behind both is encoded once.
TEST_F(ServiceTest, HitBodyIsTheMissBodyEncodedOnce) {
  server::RegistryOptions options;
  options.engine.answer_cache_capacity = 16;
  registry_ = std::make_unique<server::EngineRegistry>(options);
  ASSERT_TRUE(registry_->RegisterParsed("uni", kOntology, kData).ok());
  service_ = std::make_unique<api::Service>(registry_.get());
  MetricsRegistry metrics;
  MetricsRegistry::SetGlobal(&metrics);

  api::WireExecuteRequest wire;
  wire.query = kQuery;
  const std::string request = api::ExecuteRequestToJson(wire);
  api::Response miss = Call(api::Verb::kExecute, "uni", request);
  api::Response hit = Call(api::Verb::kExecute, "uni", request);
  api::Response again = Call(api::Verb::kExecute, "uni", request);
  MetricsRegistry::SetGlobal(nullptr);
  ASSERT_TRUE(miss.status.ok()) << miss.body;
  ASSERT_TRUE(hit.status.ok()) << hit.body;

  const std::string uncached = "\"cached\":false";
  const std::string cached = "\"cached\":true";
  ASSERT_NE(miss.body.find(uncached), std::string::npos) << miss.body;
  std::string expected = miss.body;
  expected.replace(expected.find(uncached), uncached.size(), cached);
  EXPECT_EQ(hit.body, expected);
  EXPECT_EQ(again.body, expected);
  EXPECT_EQ(metrics.counter("engine/answer_cache_hit"), 2);
  EXPECT_EQ(metrics.counter("api/answers_encoded"), 1);
  // The body the copying path produces for the same hit is the same bytes.
  std::shared_ptr<server::Tenant> tenant = registry_->Find("uni");
  std::optional<ConjunctiveQuery> query =
      ParseQuery(kQuery, tenant->vocabulary(), nullptr);
  ASSERT_TRUE(query.has_value());
  PrepareResult prepared = tenant->engine()->Prepare(*query);
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(api::ExecuteResultToJson(tenant->engine()->Execute(*prepared.query),
                                     *tenant->vocabulary()),
            expected);
}

TEST(RegistryTest, DuplicateTBoxIsRejectedByFingerprint) {
  server::EngineRegistry registry;
  ASSERT_TRUE(registry.RegisterParsed("a", kOntology, kData).ok());
  Status dup = registry.RegisterParsed("b", kOntology, "");
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
  // But the same alias plus a different TBox is also a duplicate.
  Status alias = registry.RegisterParsed("a", "X SUB Y", "");
  EXPECT_EQ(alias.code(), StatusCode::kInvalidArgument);
}

TEST(RegistryTest, CarveSplitsTheProcessBudget) {
  server::RegistryOptions options;
  options.max_tenants = 2;
  options.process_memory_bytes = 4096;
  options.process_slots = 4;
  server::EngineRegistry registry(options);
  EXPECT_EQ(registry.tenant_memory_bytes(), 2048u);
  EXPECT_EQ(registry.tenant_slots(), 2);
  ASSERT_TRUE(registry.RegisterParsed("a", kOntology, kData).ok());
  // A third registration in a 2-tenant registry is shed.
  ASSERT_TRUE(registry.RegisterParsed("b", "A SUB B", "").ok());
  EXPECT_EQ(registry.RegisterParsed("c", "C SUB D", "").code(),
            StatusCode::kRejected);
}

TEST(RegistryTest, StoreDirNamesAreInjectiveAndPathSafe) {
  // Names that used to collapse onto one '_'-mangled directory — colliding
  // store dirs mean two tenants interleaving appends into one LOG.
  const std::vector<std::string> names = {
      "a/b",  "a:b",  "a_b",  "a%2Fb", "a%b",  "a.b", "a-b",
      "a b",  "a..b", ".",    "..",    "%2E",  "a",   "A",
  };
  std::set<std::string> dirs;
  for (const std::string& name : names) {
    const std::string dir = server::StoreDirNameForTenant(name);
    EXPECT_TRUE(dirs.insert(dir).second)
        << "'" << name << "' collides onto '" << dir << "'";
    // No path separators or relative components may survive encoding.
    EXPECT_EQ(dir.find('/'), std::string::npos) << dir;
    EXPECT_NE(dir, ".");
    EXPECT_NE(dir, "..");
  }
  // Portable names pass through unchanged (existing store dirs stay valid).
  EXPECT_EQ(server::StoreDirNameForTenant("default"), "default");
  EXPECT_EQ(server::StoreDirNameForTenant("Tenant-1.prod"), "Tenant-1.prod");
}

TEST(RegistryTest, HostileTenantNamesGetDistinctStoreDirs) {
  std::string templ = ::testing::TempDir() + "registry_store.XXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  ASSERT_NE(mkdtemp(buf.data()), nullptr);
  const std::string root(buf.data());

  server::RegistryOptions options;
  options.store.dir = root;
  server::EngineRegistry registry(options);
  // Distinct TBoxes (the fingerprint check would otherwise reject the
  // second), names that the old '_'-mangling collapsed together.
  ASSERT_TRUE(registry.RegisterParsed("a/b", kOntology, kData).ok());
  ASSERT_TRUE(registry.RegisterParsed("a_b", "X SUB Y", "").ok());
  EXPECT_TRUE(store::PathExists(root + "/a%2Fb/CURRENT"));
  EXPECT_TRUE(store::PathExists(root + "/a_b/CURRENT"));
  for (const char* tenant : {"a%2Fb", "a_b"}) {
    store::RemoveDirRecursive(root + "/" + tenant + "/seg-1");
    store::RemoveDirRecursive(root + "/" + tenant);
  }
  store::RemoveDirRecursive(root);
}

}  // namespace
}  // namespace owlqr
