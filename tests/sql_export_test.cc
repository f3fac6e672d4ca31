// End-to-end validation of the SQL/view export (the Section 6 "views in
// standard DBMSs" question): the generated DDL + views are executed on an
// in-memory SQLite database loaded with the same data the NDL evaluator
// sees, and the goal view must return exactly the same answers.

#include <gtest/gtest.h>
#include <sqlite3.h>

#include <set>

#include "core/rewriters.h"
#include "ndl/evaluator.h"
#include "syntax/sql_export.h"
#include "workloads/paper_workloads.h"
#include "util/logging.h"
#include <utility>

namespace owlqr {
namespace {

class SqliteDb {
 public:
  SqliteDb() { EXPECT_EQ(sqlite3_open(":memory:", &db_), SQLITE_OK); }
  ~SqliteDb() { sqlite3_close(db_); }

  void Exec(const std::string& sql) {
    char* message = nullptr;
    int rc = sqlite3_exec(db_, sql.c_str(), nullptr, nullptr, &message);
    ASSERT_EQ(rc, SQLITE_OK) << (message ? message : "") << "\n" << sql;
  }

  std::set<std::vector<std::string>> Query(const std::string& sql) {
    std::set<std::vector<std::string>> rows;
    char* message = nullptr;
    auto callback = [](void* out, int argc, char** argv, char**) -> int {
      std::vector<std::string> row;
      for (int i = 0; i < argc; ++i) row.push_back(argv[i] ? argv[i] : "");
      static_cast<std::set<std::vector<std::string>>*>(out)->insert(row);
      return 0;
    };
    int rc = sqlite3_exec(db_, sql.c_str(), callback, &rows, &message);
    EXPECT_EQ(rc, SQLITE_OK) << (message ? message : "") << "\n" << sql;
    return rows;
  }

 private:
  sqlite3* db_ = nullptr;
};

// Loads the instance into the base tables the export declared.
void LoadData(SqliteDb* db, const SqlExport& sql, const NdlProgram& program,
              const DataInstance& data) {
  const Vocabulary& vocab = *program.vocabulary();
  // Recover table names from the DDL by re-deriving them per predicate: the
  // exporter emits tables in predicate order, so parse CREATE TABLE lines.
  std::vector<std::string> table_names;
  size_t pos = 0;
  while ((pos = sql.create_tables.find("CREATE TABLE ", pos)) !=
         std::string::npos) {
    pos += 13;
    size_t paren = sql.create_tables.find('(', pos);
    table_names.push_back(sql.create_tables.substr(pos, paren - pos));
  }
  size_t next = 0;
  for (int p = 0; p < program.num_predicates(); ++p) {
    const PredicateInfo& info = program.predicate(p);
    if (info.kind == PredicateKind::kConceptEdb) {
      const std::string& table = table_names[next++];
      for (int a : data.ConceptMembers(info.external_id)) {
        db->Exec("INSERT INTO " + table + " VALUES('" +
                 vocab.IndividualName(a) + "');");
      }
    } else if (info.kind == PredicateKind::kRoleEdb) {
      const std::string& table = table_names[next++];
      for (auto [s, o] : data.RolePairs(info.external_id)) {
        db->Exec("INSERT INTO " + table + " VALUES('" +
                 vocab.IndividualName(s) + "', '" + vocab.IndividualName(o) +
                 "');");
      }
    }
  }
}

class SqlExportRewriters : public ::testing::TestWithParam<RewriterKind> {};

TEST_P(SqlExportRewriters, SqliteAgreesWithEvaluator) {
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  RewritingContext ctx(*tbox);
  ConjunctiveQuery q = SequenceQuery(&vocab, "RSRR");
  RewriteOptions options;
  options.arbitrary_instances = true;
  RewriteResult program_rw = RewriteOmqOrError(&ctx, q, GetParam(), options);
  OWLQR_CHECK_MSG(program_rw.ok(), program_rw.status.message().c_str());
  NdlProgram program = std::move(program_rw.program);

  DataInstance data(&vocab);
  data.Assert("R", "a", "b");
  data.Assert("P", "b", "w");
  data.Assert("R", "b", "c");
  data.Assert("S", "c", "d");
  data.Assert("R", "d", "e");

  Evaluator eval(program, DataSnapshot::FromInstance(data));
  std::set<std::vector<std::string>> expected;
  for (const auto& tuple : eval.Run({}).answers) {
    std::vector<std::string> row;
    for (int ind : tuple) row.push_back(vocab.IndividualName(ind));
    expected.insert(row);
  }

  SqlExport sql = ExportSql(program);
  SqliteDb db;
  db.Exec(sql.create_tables);
  LoadData(&db, sql, program, data);
  db.Exec(sql.create_views);
  auto actual = db.Query("SELECT * FROM " + sql.goal_view + ";");
  EXPECT_EQ(actual, expected) << RewriterName(GetParam());
  EXPECT_FALSE(expected.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllRewriters, SqlExportRewriters,
    ::testing::Values(RewriterKind::kLin, RewriterKind::kLog,
                      RewriterKind::kTw, RewriterKind::kTwStar,
                      RewriterKind::kUcq, RewriterKind::kPrestoLike),
    [](const ::testing::TestParamInfo<RewriterKind>& info) {
      std::string name = RewriterName(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(SqlExportTest, BooleanQuery) {
  Vocabulary vocab;
  auto tbox = MakeExample11TBox(&vocab);
  RewritingContext ctx(*tbox);
  ConjunctiveQuery q(&vocab);
  q.AddBinary("S", "x", "y");  // Boolean: exists an S-edge (or a P witness).
  RewriteOptions options;
  options.arbitrary_instances = true;
  RewriteResult program_rw = RewriteOmqOrError(&ctx, q, RewriterKind::kTw, options);
  OWLQR_CHECK_MSG(program_rw.ok(), program_rw.status.message().c_str());
  NdlProgram program = std::move(program_rw.program);
  SqlExport sql = ExportSql(program);

  SqliteDb db;
  db.Exec(sql.create_tables);
  db.Exec(sql.create_views);
  EXPECT_TRUE(db.Query("SELECT * FROM " + sql.goal_view + ";").empty());

  SqliteDb db2;
  SqlExport sql2 = ExportSql(program);
  db2.Exec(sql2.create_tables);
  LoadData(&db2, sql2, program, [&] {
    DataInstance d(&vocab);
    d.Assert("P", "a", "b");
    return d;
  }());
  db2.Exec(sql2.create_views);
  EXPECT_FALSE(db2.Query("SELECT * FROM " + sql2.goal_view + ";").empty());
}

}  // namespace
}  // namespace owlqr
