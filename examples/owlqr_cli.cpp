// A command-line OBDA tool built on the prepared-OMQ engine: rewrite an
// ontology-mediated query to nonrecursive datalog and (optionally) evaluate
// it over data.
//
//   $ ./example_owlqr_cli ONTOLOGY QUERY [DATA] [flags]
//   $ ./example_owlqr_cli ONTOLOGY --repl [DATA] [flags]
//
//   ONTOLOGY  file in the ParseTBox syntax (see src/syntax/parser.h)
//   QUERY     file with one query:  q(x) :- R(x, y), A(y)
//   DATA      optional file with facts:  A(a). R(a, b).
//
// Flags:
//   --rewriter=KIND    lin | log | tw | twstar | ucq | presto | auto
//                      (default auto: the Section 6 cost model picks the
//                      cheapest rewriter the OMQ's Figure 1 class admits,
//                      estimated over the data; UCQ when none applies)
//   --threads=N        evaluate with N worker threads (default 1)
//   --incremental      maintain answers incrementally across '+' fact
//                      lines in --repl: a repeated query re-uses its
//                      retained result and only evaluates the delta
//                      (falls back to a full run when no state is
//                      retained; answers are identical either way)
//   --max-memory-mb=N  engine-wide memory budget for execution arenas;
//                      an execution that pushes usage past it aborts with
//                      MEMORY_EXCEEDED (default 0 = track only)
//   --max-concurrent=N execution slots; requests beyond N wait in a FIFO
//                      queue (default 0 = unlimited)
//   --queue-timeout-ms=N  how long a request may wait for a slot before
//                      it is shed with REJECTED (default 100)
//   --answer-cache-mb=N  memoize complete answers across requests: a
//                      repeated (query, snapshot version, limits) serves
//                      the cached result without re-evaluating, up to N MB
//                      of retained copies charged against the memory
//                      budget (default 0 = disabled)
//   --no-coalesce      evaluate identical concurrent requests separately
//                      instead of coalescing them onto one execution
//   --store-dir=PATH   durable store (DESIGN.md §14): facts applied via
//                      '+' lines / POST /facts are logged to PATH and
//                      survive restarts; on startup the store's state is
//                      recovered and DATA is only used to seed a fresh
//                      store.  Under --serve each tenant gets its own
//                      store under PATH/<tenant>.
//   --store-fsync=P    always | never: fsync the fact log on every append
//                      (default always; never trades the unsynced suffix
//                      for throughput, recovery stays torn-proof)
//   --store-compact-mb=N  checkpoint into a fresh columnar segment once
//                      the log exceeds N MB (default 64; 0 = never by
//                      size)
//   --print-rewriting  print the NDL program even when DATA is given
//   --sql              print the rewriting as SQL views instead
//   --complete-instances  rewrite for complete instances (no * transform)
//   --trace-json=PATH  write a structured trace of the run to PATH as JSON
//                      (per-stage spans, counters, timers; DESIGN.md §7)
//   --stats-json=PATH  write the engine's end-of-run stats (governor
//                      counters, plan/answer cache) to PATH, in the same
//                      schema the HTTP stats endpoint serves (DESIGN.md
//                      §13)
//   --repl             batch mode: read queries from stdin, one per line,
//                      against one engine (plans are cached across lines);
//                      lines starting with '+' add facts, e.g.  + A(a).
//   --serve=PORT       serve ONTOLOGY [DATA] over HTTP on 127.0.0.1:PORT
//                      (0 picks an ephemeral port) as tenant 'default';
//                      the governor flags above set the process budgets.
//                      Endpoints and schemas: DESIGN.md §13.
//   --help             print this usage and exit
//
// Unsupported query shapes are reported as errors (exit 1), never aborts.
//
// Example:
//   ./example_owlqr_cli onto.txt query.txt data.txt --rewriter=lin

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/omq.h"
#include "core/rewriters.h"
#include "engine/engine.h"
#include "server/api.h"
#include "server/http_server.h"
#include "server/registry.h"
#include "store/store.h"
#include "syntax/parser.h"
#include "syntax/sql_export.h"
#include "util/json.h"
#include "util/metrics.h"

namespace {

using namespace owlqr;

constexpr char kUsage[] =
    "usage: %s ONTOLOGY (QUERY | --repl) [DATA] [flags]\n"
    "flags:\n"
    "  --rewriter=KIND       lin | log | tw | twstar | ucq | presto | auto\n"
    "  --threads=N           evaluate with N worker threads\n"
    "  --incremental         maintain answers incrementally across '+' "
    "lines\n"
    "  --max-memory-mb=N     engine memory budget (0 = track only)\n"
    "  --max-concurrent=N    execution slots (0 = unlimited)\n"
    "  --queue-timeout-ms=N  max wait for a slot before REJECTED\n"
    "  --answer-cache-mb=N   memoize complete answers (0 = disabled)\n"
    "  --no-coalesce         do not coalesce identical concurrent requests\n"
    "  --store-dir=PATH      durable fact log + snapshot store at PATH\n"
    "  --store-fsync=P       always | never (default always)\n"
    "  --store-compact-mb=N  compact once the log exceeds N MB (default "
    "64)\n"
    "  --print-rewriting     print the NDL program even when DATA is given\n"
    "  --sql                 print the rewriting as SQL views\n"
    "  --complete-instances  rewrite for complete data instances\n"
    "  --trace-json=PATH     write a JSON trace of the run to PATH\n"
    "  --stats-json=PATH     write end-of-run engine stats to PATH\n"
    "  --repl                read queries (and '+ fact.' lines) from stdin\n"
    "  --serve=PORT          serve over HTTP on 127.0.0.1:PORT (0 = any)\n"
    "  --help                print this message\n";

bool ReadFile(const char* path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// Parses --rewriter=KIND through the core name registry (the same one the
// wire's "rewriter" member uses).  Returns false, with a message listing
// the valid kinds, on an unknown KIND.
bool ParseRewriterKind(const std::string& name, bool* auto_kind,
                       RewriterKind* kind) {
  if (RewriterKindFromName(name, auto_kind, kind)) return true;
  std::fprintf(stderr,
               "unknown rewriter '%s'; valid kinds: lin, log, tw, twstar, "
               "ucq, presto, auto\n",
               name.c_str());
  return false;
}

// Converts a parsed DataInstance into an engine FactBatch (for '+' lines).
FactBatch ToFactBatch(const DataInstance& delta) {
  FactBatch batch;
  for (int concept_id : delta.ActiveConcepts()) {
    for (int a : delta.ConceptMembers(concept_id)) {
      batch.concepts.push_back({concept_id, a});
    }
  }
  for (int role_id : delta.ActivePredicates()) {
    for (auto [a, b] : delta.RolePairs(role_id)) {
      batch.roles.push_back({role_id, a, b});
    }
  }
  return batch;
}

void PrintAnswers(const ConjunctiveQuery& query, const ExecuteResult& result,
                  const Vocabulary& vocab) {
  for (const auto& tuple : result.answers) {
    for (size_t i = 0; i < tuple.size(); ++i) {
      std::printf("%s%s", i > 0 ? "\t" : "",
                  vocab.IndividualName(tuple[i]).c_str());
    }
    std::printf("\n");
  }
  if (query.IsBoolean()) {
    std::printf("%s\n", result.answers.empty() ? "false" : "true");
  }
  std::fprintf(stderr,
               "%ld answers, %ld tuples materialised (snapshot v%llu)%s%s\n",
               result.stats.goal_tuples, result.stats.generated_tuples,
               static_cast<unsigned long long>(result.snapshot_version),
               result.incremental ? " [incremental]" : "",
               result.cached ? " [answer-cached]" : "");
}

// One prepare+execute round against the engine; returns false on a prepare
// error (already printed).
bool ServeQuery(Engine* engine, const ConjunctiveQuery& query,
                const PrepareOptions& prepare_options,
                const ExecuteRequest& request, bool print_rewriting,
                bool print_sql, bool evaluate) {
  PrepareResult prepared = engine->Prepare(query, prepare_options);
  if (!prepared.ok()) {
    std::fprintf(stderr, "error: %s\n", prepared.status.ToString().c_str());
    return false;
  }
  const NdlProgram& program = prepared.query->program();
  std::fprintf(stderr, "rewriter: %s (%d clauses, depth %d, width %d)%s\n",
               RewriterName(prepared.query->kind()), program.num_clauses(),
               program.Depth(), program.Width(),
               prepared.cache_hit ? " [cached]" : "");
  if (print_sql) {
    SqlExport sql = ExportSql(program);
    std::printf("%s\n%s\n-- answers: SELECT * FROM %s;\n",
                sql.create_tables.c_str(), sql.create_views.c_str(),
                sql.goal_view.c_str());
  } else if (print_rewriting || !evaluate) {
    std::printf("%s", program.ToString().c_str());
  }
  if (evaluate) {
    ExecuteResult result = engine->Execute(*prepared.query, request);
    if (!result.status.ok()) {
      // Governed abort (rejected / cancelled / deadline / memory): report
      // it and whatever partial answers survived.
      std::fprintf(stderr, "error: %s%s\n",
                   result.status.ToString().c_str(),
                   result.partial ? " (partial answers)" : "");
      if (result.status.code() == StatusCode::kRejected) return false;
    }
    PrintAnswers(query, result, *engine->vocabulary());
  }
  return true;
}

// --repl: serve queries from stdin line by line.  Lines starting with '+'
// are fact additions in the ParseData syntax; '#' and blank lines are
// skipped.  Errors are printed and do not end the session.
int RunRepl(Engine* engine, const PrepareOptions& prepare_options,
            const ExecuteRequest& request, bool print_rewriting,
            bool print_sql) {
  std::string line, error;
  while (std::getline(std::cin, line)) {
    size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    if (line[start] == '+') {
      DataInstance delta(engine->vocabulary());
      if (!ParseData(line.substr(start + 1), &delta, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        continue;
      }
      uint64_t version = 0;
      Status apply_status =
          engine->ApplyFactsOrError(ToFactBatch(delta), &version);
      if (!apply_status.ok()) {
        std::fprintf(stderr, "error: %s\n", apply_status.message().c_str());
        continue;
      }
      std::fprintf(stderr, "snapshot v%llu\n",
                   static_cast<unsigned long long>(version));
      continue;
    }
    auto query = ParseQuery(line, engine->vocabulary(), &error);
    if (!query.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      continue;
    }
    ServeQuery(engine, *query, prepare_options, request, print_rewriting,
               print_sql, /*evaluate=*/true);
  }
  PlanCache::Stats stats = engine->cache_stats();
  std::fprintf(stderr, "plan cache: %ld hits, %ld misses, %ld evictions\n",
               stats.hits, stats.misses, stats.evictions);
  AnswerCache::Stats answers = engine->answer_cache_stats();
  if (answers.hits + answers.misses > 0) {
    std::fprintf(stderr, "answer cache: %ld hits, %ld misses, %ld evictions\n",
                 answers.hits, answers.misses, answers.evictions);
  }
  return 0;
}

// --stats-json: the engine's end-of-run stats through the wire's stats
// serialization (api::AppendEngineStats), so this file and the HTTP stats
// endpoint cannot drift apart.
bool WriteStatsJson(const Engine& engine, const std::string& path) {
  JsonWriter w;
  w.BeginObject();
  api::AppendEngineStats(&w, engine);
  w.EndObject();
  std::string json = w.TakeString();
  json.push_back('\n');
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int rc = std::fclose(f);
  return written == json.size() && rc == 0;
}

// Flipped by SIGINT/SIGTERM, polled by the --serve loop.
std::atomic<int> g_stop{0};

void HandleStopSignal(int) { g_stop.store(1); }

// --serve=PORT: serve ONTOLOGY [DATA] as the single tenant 'default' over
// HTTP until SIGINT/SIGTERM.  The governor flags are process budgets; with
// one tenant the registry's carve hands them over whole.
int RunServe(const char* ontology_path, const char* data_path, int port,
             int threads, long max_memory_mb, int max_concurrent,
             const EngineOptions& engine_template,
             const store::StoreOptions& store_template) {
  std::string ontology_text, data_text;
  if (!ReadFile(ontology_path, &ontology_text)) {
    std::fprintf(stderr, "cannot read %s\n", ontology_path);
    return 1;
  }
  if (data_path != nullptr && !ReadFile(data_path, &data_text)) {
    std::fprintf(stderr, "cannot read %s\n", data_path);
    return 1;
  }

  server::RegistryOptions reg_options;
  reg_options.max_tenants = 1;
  reg_options.process_memory_bytes =
      static_cast<size_t>(max_memory_mb) * 1024 * 1024;
  reg_options.process_slots = max_concurrent;
  reg_options.engine = engine_template;
  reg_options.store = store_template;  // Empty dir = in-memory tenants.
  server::EngineRegistry registry(reg_options);
  std::shared_ptr<server::Tenant> tenant;
  Status registered =
      registry.RegisterParsed("default", ontology_text, data_text, &tenant);
  if (!registered.ok()) {
    std::fprintf(stderr, "error: %s\n", registered.ToString().c_str());
    return 1;
  }

  api::Service service(&registry);
  server::HttpServerOptions http_options;
  http_options.port = port;
  if (threads > 1) http_options.num_workers = threads;
  server::HttpServer http(&service, http_options);
  Status started = http.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "serving tenant 'default' (fingerprint %s) on "
               "http://127.0.0.1:%d%s/ -- Ctrl-C stops\n",
               tenant->fingerprint().c_str(), http.port(), api::kApiPrefix);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (g_stop.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "stopping\n");
  http.Stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* ontology_path = nullptr;
  const char* query_path = nullptr;
  const char* data_path = nullptr;
  std::vector<const char*> positionals;
  std::string rewriter = "auto";
  std::string trace_json_path;
  std::string stats_json_path;
  int serve_port = -1;
  bool print_rewriting = false;
  bool print_sql = false;
  bool complete_instances = false;
  bool repl = false;
  bool incremental = false;
  int threads = 1;
  long max_memory_mb = 0;
  int max_concurrent = 0;
  long queue_timeout_ms = -1;
  long answer_cache_mb = 0;
  bool coalesce = true;
  std::string store_dir;
  bool store_fsync = true;
  long store_compact_mb = 64;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(kUsage, argv[0]);
      return 0;
    } else if (std::strncmp(argv[i], "--rewriter=", 11) == 0) {
      rewriter = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
      if (threads < 1) {
        std::fprintf(stderr, "--threads needs a positive count, got '%s'\n",
                     argv[i] + 10);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--max-memory-mb=", 16) == 0) {
      max_memory_mb = std::atol(argv[i] + 16);
      if (max_memory_mb < 0) {
        std::fprintf(stderr, "--max-memory-mb needs >= 0, got '%s'\n",
                     argv[i] + 16);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--max-concurrent=", 17) == 0) {
      max_concurrent = std::atoi(argv[i] + 17);
      if (max_concurrent < 0) {
        std::fprintf(stderr, "--max-concurrent needs >= 0, got '%s'\n",
                     argv[i] + 17);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--queue-timeout-ms=", 19) == 0) {
      queue_timeout_ms = std::atol(argv[i] + 19);
      if (queue_timeout_ms < 0) {
        std::fprintf(stderr, "--queue-timeout-ms needs >= 0, got '%s'\n",
                     argv[i] + 19);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--answer-cache-mb=", 18) == 0) {
      answer_cache_mb = std::atol(argv[i] + 18);
      if (answer_cache_mb < 0) {
        std::fprintf(stderr, "--answer-cache-mb needs >= 0, got '%s'\n",
                     argv[i] + 18);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--no-coalesce") == 0) {
      coalesce = false;
    } else if (std::strncmp(argv[i], "--store-dir=", 12) == 0) {
      store_dir = argv[i] + 12;
      if (store_dir.empty()) {
        std::fprintf(stderr, "--store-dir needs a path\n");
        return 2;
      }
    } else if (std::strncmp(argv[i], "--store-fsync=", 14) == 0) {
      const char* policy = argv[i] + 14;
      if (std::strcmp(policy, "always") == 0) {
        store_fsync = true;
      } else if (std::strcmp(policy, "never") == 0) {
        store_fsync = false;
      } else {
        std::fprintf(stderr,
                     "--store-fsync needs 'always' or 'never', got '%s'\n",
                     policy);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--store-compact-mb=", 19) == 0) {
      store_compact_mb = std::atol(argv[i] + 19);
      if (store_compact_mb < 0) {
        std::fprintf(stderr, "--store-compact-mb needs >= 0, got '%s'\n",
                     argv[i] + 19);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--trace-json=", 13) == 0) {
      trace_json_path = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--stats-json=", 13) == 0) {
      stats_json_path = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--serve=", 8) == 0) {
      serve_port = std::atoi(argv[i] + 8);
      if (serve_port < 0 || serve_port > 65535) {
        std::fprintf(stderr, "--serve needs a port in [0, 65535], got '%s'\n",
                     argv[i] + 8);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--print-rewriting") == 0) {
      print_rewriting = true;
    } else if (std::strcmp(argv[i], "--sql") == 0) {
      print_sql = true;
    } else if (std::strcmp(argv[i], "--complete-instances") == 0) {
      complete_instances = true;
    } else if (std::strcmp(argv[i], "--repl") == 0) {
      repl = true;
    } else if (std::strcmp(argv[i], "--incremental") == 0) {
      incremental = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::fprintf(stderr, kUsage, argv[0]);
      return 2;
    } else if (positionals.size() < 3) {
      positionals.push_back(argv[i]);
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return 2;
    }
  }
  // Assign the positionals only after every flag is parsed: --repl and
  // --serve take ONTOLOGY [DATA] (no query file), and must mean the same
  // thing whether they appear before or after the file arguments.
  bool has_query_positional = !repl && serve_port < 0;
  size_t want = has_query_positional ? 2u : 1u;
  if (positionals.size() < want ||
      positionals.size() > (has_query_positional ? 3u : 2u)) {
    std::fprintf(stderr, kUsage, argv[0]);
    return 2;
  }
  ontology_path = positionals[0];
  if (has_query_positional) {
    query_path = positionals[1];
    if (positionals.size() > 2) data_path = positionals[2];
  } else if (positionals.size() > 1) {
    data_path = positionals[1];
  }

  // The engine configuration depends only on flags; the --serve path hands
  // it to the registry as the per-tenant template.
  EngineOptions engine_options;
  engine_options.governor.max_memory_bytes =
      static_cast<size_t>(max_memory_mb) * 1024 * 1024;
  engine_options.governor.max_concurrent = max_concurrent;
  if (queue_timeout_ms >= 0) {
    engine_options.governor.queue_timeout_ms = queue_timeout_ms;
  }
  if (answer_cache_mb > 0) {
    engine_options.answer_cache_capacity = 256;
    engine_options.answer_cache_max_bytes =
        static_cast<size_t>(answer_cache_mb) * 1024 * 1024;
  }
  engine_options.coalesce = coalesce;

  store::StoreOptions store_options;
  store_options.dir = store_dir;  // Possibly empty (no durability).
  store_options.fsync = store_fsync;
  store_options.compact_log_bytes =
      static_cast<uint64_t>(store_compact_mb) * 1024 * 1024;

  if (serve_port >= 0) {
    return RunServe(ontology_path, data_path, serve_port, threads,
                    max_memory_mb, max_concurrent, engine_options,
                    store_options);
  }

  PrepareOptions prepare_options;
  prepare_options.rewrite.arbitrary_instances = !complete_instances;
  if (!ParseRewriterKind(rewriter, &prepare_options.auto_kind,
                         &prepare_options.kind)) {
    return 2;
  }

  // Install the trace collector before any pipeline stage runs so the
  // parse/rewrite/snapshot/evaluate spans all land in one registry.
  MetricsRegistry metrics;
  if (!trace_json_path.empty()) MetricsRegistry::SetGlobal(&metrics);

  std::string text, error;
  Vocabulary vocab;
  TBox tbox(&vocab);
  size_t parse_span = trace_json_path.empty() ? 0 : metrics.BeginSpan("parse");
  if (!ReadFile(ontology_path, &text)) {
    std::fprintf(stderr, "cannot read %s\n", ontology_path);
    return 1;
  }
  if (!ParseTBox(text, &tbox, &error)) {
    std::fprintf(stderr, "%s: %s\n", ontology_path, error.c_str());
    return 1;
  }
  tbox.Normalize();

  std::optional<ConjunctiveQuery> query;
  if (query_path != nullptr) {
    if (!ReadFile(query_path, &text)) {
      std::fprintf(stderr, "cannot read %s\n", query_path);
      return 1;
    }
    query = ParseQuery(text, &vocab, &error);
    if (!query.has_value()) {
      std::fprintf(stderr, "%s: %s\n", query_path, error.c_str());
      return 1;
    }
  }

  DataInstance data(&vocab);
  const bool have_data = data_path != nullptr;
  if (have_data) {
    if (!ReadFile(data_path, &text)) {
      std::fprintf(stderr, "cannot read %s\n", data_path);
      return 1;
    }
    if (!ParseData(text, &data, &error)) {
      std::fprintf(stderr, "%s: %s\n", data_path, error.c_str());
      return 1;
    }
  }

  if (!trace_json_path.empty()) metrics.EndSpan(parse_span);

  // One engine serves every query of this invocation: ontology frozen and
  // fingerprinted, data snapshotted, plans cached, executions governed.
  // With --store-dir, Engine::Open first recovers durable state (DATA then
  // only seeds a fresh store) and '+' facts survive restarts.
  if (!store_dir.empty()) {
    std::shared_ptr<store::DurableStore> durable;
    Status store_status = store::DurableStore::Open(store_options, &durable);
    if (!store_status.ok()) {
      std::fprintf(stderr, "error: %s\n", store_status.ToString().c_str());
      return 1;
    }
    engine_options.store = std::move(durable);
  }
  Status open_status;
  std::unique_ptr<Engine> engine_owner =
      Engine::Open(tbox, data, nullptr, engine_options, &open_status);
  if (engine_owner == nullptr) {
    std::fprintf(stderr, "error: %s\n", open_status.ToString().c_str());
    return 1;
  }
  Engine& engine = *engine_owner;

  ExecuteRequest request;
  request.num_threads = threads;
  request.incremental = incremental;

  int status = 0;
  if (repl) {
    status = RunRepl(&engine, prepare_options, request, print_rewriting,
                     print_sql);
  } else {
    std::fprintf(stderr, "profile: %s\n",
                 ProfileOmq(engine.context(), *query).ToString().c_str());
    if (!ServeQuery(&engine, *query, prepare_options, request,
                    print_rewriting, print_sql, /*evaluate=*/have_data)) {
      status = 1;
    }
  }

  if (!stats_json_path.empty() && !WriteStatsJson(engine, stats_json_path)) {
    std::fprintf(stderr, "cannot write stats to %s\n",
                 stats_json_path.c_str());
    return 1;
  }
  if (!trace_json_path.empty()) {
    MetricsRegistry::SetGlobal(nullptr);
    if (!metrics.WriteJsonFile(trace_json_path)) {
      std::fprintf(stderr, "cannot write trace to %s\n",
                   trace_json_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace written to %s\n", trace_json_path.c_str());
  }
  return status;
}
