// Rename predicates are evaluated as views of their roots, never copied.
// Every program below is compared against its copy twin: the same program
// with an extra TOP(v) atom on every rename clause, which makes the clause
// a plain join the evaluator copies row by row while it emits exactly the
// same tuples.  Answers and counters must agree clean and under tuple/work
// limits that cut a rename's copy at every crossing point, at 1 and 4
// threads, and on the incremental path after new facts.  Part of the
// `sanitize` ctest label.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/rewriters.h"
#include "engine/engine.h"
#include "ndl/evaluator.h"
#include "ontology/role.h"
#include "syntax/parser.h"
#include "util/metrics.h"
#include "workloads/paper_workloads.h"

namespace owlqr {
namespace {

// The `serve` workload's query pool: unary tree queries over R and S.
const char* const kServePool[] = {
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

// Prefixes of the paper's three query sequences (Tables 3-5) and their
// lengths.  Sequence 2 stops at 7 atoms: its longer Lin rewritings generate
// millions of tuples.
const std::pair<const char*, int> kWords[] = {
    {kSequence1, 3},  {kSequence1, 7}, {kSequence1, 11},
    {kSequence1, 15}, {kSequence2, 3}, {kSequence2, 7},
    {kSequence3, 7},  {kSequence3, 11}, {kSequence3, 15},
};

// Installs a fresh global metrics registry for one scope.
class ScopedRegistry {
 public:
  ScopedRegistry() { MetricsRegistry::SetGlobal(&registry_); }
  ~ScopedRegistry() { MetricsRegistry::SetGlobal(nullptr); }
  MetricsRegistry* operator->() { return &registry_; }

 private:
  MetricsRegistry registry_;
};

// `program` with every rename clause given an extra TOP(v) atom: no longer
// a rename (so the evaluator copies it), yet every row of its source joins
// TOP exactly once, so it emits the same tuples in the same order.
NdlProgram CopyTwin(const NdlProgram& program) {
  NdlProgram twin = program;
  const std::vector<int>& root = program.Renames().root;
  const int top = twin.AdomPredicate();
  std::vector<NdlClause> clauses = program.clauses();
  for (NdlClause& clause : clauses) {
    if (root[clause.head.predicate] >= 0) {
      clause.body.push_back({top, {clause.head.args[0]}});
    }
  }
  twin.ReplaceClauses(std::move(clauses));
  return twin;
}

int CountRenames(const NdlProgram& program) {
  const std::vector<int>& root = program.Renames().root;
  return static_cast<int>(
      std::count_if(root.begin(), root.end(), [](int r) { return r >= 0; }));
}

// Where rename `predicate`'s copy starts in the twin's sequential run: the
// join emissions and new tuples of every clause before it, and its size.
struct CrossingPoint {
  int predicate = -1;
  long work_before = 0;
  long tuples_before = 0;
  long rows = 0;
};

ExecuteResult RunOnce(const NdlProgram& program,
                      const std::shared_ptr<const DataSnapshot>& snapshot,
                      const ExecuteRequest& request) {
  Evaluator eval(program, snapshot);
  return eval.Run(request);
}

// Answers, status and the counters a rename must keep exact.
void ExpectSameRun(const ExecuteResult& view, const ExecuteResult& copy,
                   const std::string& what) {
  EXPECT_EQ(view.status.code(), copy.status.code()) << what;
  EXPECT_EQ(view.partial, copy.partial) << what;
  EXPECT_EQ(view.answers, copy.answers) << what;
  EXPECT_EQ(view.stats.generated_tuples, copy.stats.generated_tuples) << what;
  EXPECT_EQ(view.stats.join_emissions, copy.stats.join_emissions) << what;
  EXPECT_EQ(view.stats.predicates_evaluated, copy.stats.predicates_evaluated)
      << what;
  // The twin may have one more predicate (TOP), which no clause heads.
  std::vector<long> twin_counts = copy.stats.predicate_tuples;
  twin_counts.resize(view.stats.predicate_tuples.size());
  EXPECT_EQ(view.stats.predicate_tuples, twin_counts) << what;
}

struct Entry {
  std::string name;
  std::shared_ptr<const PreparedQuery> plan;
};

class RenameViewTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    vocab_ = new Vocabulary();
    tbox_ = MakeExample11TBox(vocab_).release();
    data_ = new DataInstance(
        GenerateDataset(vocab_, *tbox_, Table2Configs(0.05)[1]));
    engine_ = new Engine(*tbox_, *data_);
    corpus_ = new std::vector<Entry>();
    PrepareOptions options;
    options.auto_kind = false;
    options.kind = RewriterKind::kTw;
    for (const char* text : kServePool) {
      std::string error;
      std::optional<ConjunctiveQuery> query =
          ParseQuery(text, vocab_, &error);
      ASSERT_TRUE(query.has_value()) << error;
      PrepareResult prepared = engine_->Prepare(*query, options);
      ASSERT_TRUE(prepared.ok()) << prepared.status.ToString();
      corpus_->push_back({std::string("Tw ") + text, prepared.query});
    }
    for (const auto& [sequence, length] : kWords) {
      const std::string word(sequence, 0, static_cast<size_t>(length));
      for (RewriterKind kind :
           {RewriterKind::kLin, RewriterKind::kLog, RewriterKind::kTw}) {
        options.kind = kind;
        PrepareResult prepared =
            engine_->Prepare(SequenceQuery(vocab_, word), options);
        ASSERT_TRUE(prepared.ok()) << prepared.status.ToString();
        corpus_->push_back(
            {std::string(RewriterName(kind)) + " " + word, prepared.query});
      }
    }
  }

  static void TearDownTestSuite() {
    delete corpus_;
    delete engine_;
    delete data_;
    delete tbox_;
    delete vocab_;
  }

  // Each rename's crossing point, in the order the sequential run reaches
  // them, read off the twin's join spans.
  static std::vector<CrossingPoint> CrossingPoints(
      const NdlProgram& program, const NdlProgram& twin,
      const std::shared_ptr<const DataSnapshot>& snapshot) {
    ScopedRegistry registry;
    RunOnce(twin, snapshot, ExecuteRequest{});
    const std::vector<int>& root = program.Renames().root;
    std::vector<CrossingPoint> points;
    long work = 0;
    long tuples = 0;
    for (const MetricsRegistry::Span& span : registry->spans()) {
      if (span.name != "evaluate/join") continue;
      long head = -1, emissions = 0, fresh = 0;
      for (const auto& [key, value] : span.attrs) {
        if (key == "head") head = value;
        if (key == "emissions") emissions = value;
        if (key == "new_tuples") fresh = value;
      }
      if (head >= 0 && head < static_cast<long>(root.size()) &&
          root[head] >= 0) {
        points.push_back({static_cast<int>(head), work, tuples, emissions});
      }
      work += emissions;
      tuples += fresh;
    }
    return points;
  }

  static Vocabulary* vocab_;
  static TBox* tbox_;
  static DataInstance* data_;
  static Engine* engine_;
  static std::vector<Entry>* corpus_;
};

Vocabulary* RenameViewTest::vocab_ = nullptr;
TBox* RenameViewTest::tbox_ = nullptr;
DataInstance* RenameViewTest::data_ = nullptr;
Engine* RenameViewTest::engine_ = nullptr;
std::vector<Entry>* RenameViewTest::corpus_ = nullptr;

TEST_F(RenameViewTest, TwinsHaveNoRenamesAndTheCorpusHasMany) {
  int renames = 0;
  for (const Entry& entry : *corpus_) {
    const NdlProgram& program = entry.plan->program();
    renames += CountRenames(program);
    EXPECT_EQ(CountRenames(CopyTwin(program)), 0) << entry.name;
  }
  // Every Tw rewriting of the pool has a few (2 to 5 per query).
  EXPECT_GT(renames, 2 * static_cast<int>(std::size(kServePool)));
}

TEST_F(RenameViewTest, CleanRunsCountLikeCopiesAtOneAndFourThreads) {
  const std::shared_ptr<const DataSnapshot> snapshot = engine_->snapshot();
  for (const Entry& entry : *corpus_) {
    const NdlProgram& program = entry.plan->program();
    const NdlProgram twin = CopyTwin(program);
    for (int threads : {1, 4}) {
      ExecuteRequest request;
      request.num_threads = threads;
      const ExecuteResult view = RunOnce(program, snapshot, request);
      const ExecuteResult copy = RunOnce(twin, snapshot, request);
      ASSERT_FALSE(copy.partial) << entry.name;
      ExpectSameRun(view, copy,
                    entry.name + " t" + std::to_string(threads));
    }
  }
}

// Sequential runs abort on the same emission: a limit at, inside and at
// the end of every rename's copy cuts both programs at the same point.
TEST_F(RenameViewTest, LimitsCutARenameWhereTheCopyWouldStop) {
  const std::shared_ptr<const DataSnapshot> snapshot = engine_->snapshot();
  long cut = 0;
  for (const Entry& entry : *corpus_) {
    const NdlProgram& program = entry.plan->program();
    const NdlProgram twin = CopyTwin(program);
    for (const CrossingPoint& point :
         CrossingPoints(program, twin, snapshot)) {
      for (long offset : {0L, point.rows / 2, point.rows}) {
        for (bool work_limit : {false, true}) {
          ExecuteRequest request;
          const long limit =
              (work_limit ? point.work_before : point.tuples_before) + offset;
          if (limit <= 0) continue;  // <= 0 means unlimited.
          (work_limit ? request.limits.max_work
                      : request.limits.max_generated_tuples) = limit;
          const ExecuteResult view = RunOnce(program, snapshot, request);
          const ExecuteResult copy = RunOnce(twin, snapshot, request);
          ExpectSameRun(view, copy,
                        entry.name + " predicate " +
                            std::to_string(point.predicate) +
                            (work_limit ? " max_work " : " max_tuples ") +
                            std::to_string(limit));
          if (offset < point.rows) {
            EXPECT_TRUE(view.partial) << entry.name;
            ++cut;
          }
        }
      }
    }
  }
  EXPECT_GT(cut, 0);
}

// In parallel, which predicates run before a limit trips depends on the
// schedule, so the truncated counters are not comparable run to run.  What
// is fixed: a run is cut iff its clean total exceeds the limit, and what it
// returns is a subset of the clean answers.
TEST_F(RenameViewTest, ParallelLimitsTruncateLikeCopies) {
  const std::shared_ptr<const DataSnapshot> snapshot = engine_->snapshot();
  for (const Entry& entry : *corpus_) {
    const NdlProgram& program = entry.plan->program();
    const NdlProgram twin = CopyTwin(program);
    const ExecuteResult clean = RunOnce(program, snapshot, ExecuteRequest{});
    for (const CrossingPoint& point :
         CrossingPoints(program, twin, snapshot)) {
      ExecuteRequest request;
      request.num_threads = 4;
      request.limits.max_generated_tuples =
          point.tuples_before + point.rows / 2 + 1;
      for (const NdlProgram* p : {&program, &twin}) {
        const ExecuteResult result = RunOnce(*p, snapshot, request);
        EXPECT_TRUE(result.status.ok()) << entry.name;
        EXPECT_EQ(result.partial, clean.stats.generated_tuples >
                                      request.limits.max_generated_tuples)
            << entry.name;
        for (const std::vector<int>& tuple : result.answers) {
          EXPECT_TRUE(std::binary_search(clean.answers.begin(),
                                         clean.answers.end(), tuple))
              << entry.name;
        }
      }
    }
  }
}

// The delta path credits each rename with its root's delta: after new
// facts, both programs' incremental runs agree with each other and with a
// full run at the new version.
TEST_F(RenameViewTest, IncrementalRunsCountLikeCopies) {
  const std::shared_ptr<const DataSnapshot> before = engine_->snapshot();
  // Facts over existing individuals only: a new individual would give the
  // twin's TOP atoms a delta of their own.
  const std::vector<int>& adom = before->active_domain();
  ASSERT_GT(adom.size(), 40u);
  const int r = vocab_->FindPredicate("R");
  const int s = vocab_->FindPredicate("S");
  const int p = vocab_->FindPredicate("P");
  FactBatch batch;
  for (int i = 0; i < 6; ++i) {
    batch.roles.push_back({i % 2 == 0 ? r : s, adom[3 * i], adom[5 * i + 1]});
  }
  batch.concepts.push_back({tbox_->ExistsConcept(RoleOf(p)), adom[7]});
  batch.concepts.push_back({tbox_->ExistsConcept(RoleOf(p, true)), adom[11]});
  const std::shared_ptr<const DataSnapshot> after = before->WithFacts(batch);
  ASSERT_EQ(after->active_domain().size(), adom.size());

  int grown = 0;
  for (const Entry& entry : *corpus_) {
    const NdlProgram& program = entry.plan->program();
    const NdlProgram twin = CopyTwin(program);
    std::vector<ExecuteResult> deltas;
    for (const NdlProgram* prog : {&program, &twin}) {
      RetainedIdbState state;
      Evaluator seed(*prog, before);
      seed.Run(ExecuteRequest{});
      seed.ExtractRetainedState(&state);
      Evaluator delta(*prog, after);
      deltas.push_back(delta.RunDelta(ExecuteRequest{}, &state));
      ASSERT_TRUE(deltas.back().incremental) << entry.name;
      ASSERT_TRUE(state.valid()) << entry.name;
      const ExecuteResult full = RunOnce(*prog, after, ExecuteRequest{});
      EXPECT_EQ(deltas.back().answers, full.answers) << entry.name;
      EXPECT_EQ(deltas.back().stats.predicate_tuples,
                full.stats.predicate_tuples)
          << entry.name;
      EXPECT_EQ(deltas.back().stats.generated_tuples,
                full.stats.generated_tuples)
          << entry.name;
    }
    ExpectSameRun(deltas[0], deltas[1], entry.name + " incremental");
    if (deltas[0].stats.join_emissions > 0) ++grown;
  }
  EXPECT_GT(grown, 0);
}

// Through the engine: an incremental Execute after ApplyFacts answers and
// counts like a full one.
TEST_F(RenameViewTest, EngineIncrementalMatchesFullAfterApplyFacts) {
  Engine engine(*tbox_, *data_);
  PrepareOptions options;
  options.auto_kind = false;
  options.kind = RewriterKind::kTw;
  std::vector<std::shared_ptr<const PreparedQuery>> plans;
  for (const char* text : kServePool) {
    std::string error;
    std::optional<ConjunctiveQuery> query = ParseQuery(text, vocab_, &error);
    ASSERT_TRUE(query.has_value()) << error;
    PrepareResult prepared = engine.Prepare(*query, options);
    ASSERT_TRUE(prepared.ok()) << prepared.status.ToString();
    plans.push_back(prepared.query);
  }
  ExecuteRequest incremental;
  incremental.incremental = true;
  const std::vector<int> adom = engine.snapshot()->active_domain();
  const int r = vocab_->FindPredicate("R");
  const int s = vocab_->FindPredicate("S");
  int served = 0;
  for (size_t i = 0; i < plans.size(); ++i) {
    const PreparedQuery& plan = *plans[i];
    // Retains this plan's state at the current version.
    engine.Execute(plan, incremental);
    FactBatch batch;
    for (size_t j = 0; j < 8; ++j) {
      batch.roles.push_back({j % 2 == 0 ? r : s, adom[(i + j) % adom.size()],
                             adom[(7 * i + 3 * j + 1) % adom.size()]});
    }
    uint64_t version = 0;
    ASSERT_TRUE(engine.ApplyFactsOrError(batch, &version).ok());
    const ExecuteResult delta = engine.Execute(plan, incremental);
    const ExecuteResult full = engine.Execute(plan, ExecuteRequest{});
    served += delta.incremental ? 1 : 0;
    EXPECT_EQ(delta.snapshot_version, version) << kServePool[i];
    EXPECT_EQ(delta.answers, full.answers) << kServePool[i];
    EXPECT_EQ(delta.stats.generated_tuples, full.stats.generated_tuples)
        << kServePool[i];
    EXPECT_EQ(delta.stats.predicate_tuples, full.stats.predicate_tuples)
        << kServePool[i];
  }
  EXPECT_EQ(served, static_cast<int>(plans.size()));
}

}  // namespace
}  // namespace owlqr
