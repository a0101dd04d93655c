#include "engine/database.h"

#include <gtest/gtest.h>

#include "testing/db_fixtures.h"

namespace qopt {
namespace {

TEST(DatabaseTest, SqlDdlAndInsertAndQuery) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INT PRIMARY KEY, v DOUBLE, "
                         "s STRING)")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE INDEX idx_v ON t(id)").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO t VALUES (1, 1.5, 'a'), (2, 2.5, 'b'), "
                 "(3, NULL, 'c')")
          .ok());
  auto r = db.Query("SELECT s FROM t WHERE id >= 2 ORDER BY id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][0].AsString(), "b");
  EXPECT_EQ(r->column_names, (std::vector<std::string>{"s"}));
}

TEST(DatabaseTest, InsertValidatesTypes) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INT PRIMARY KEY)").ok());
  EXPECT_FALSE(db.Execute("INSERT INTO t VALUES ('oops')").ok());
  EXPECT_FALSE(db.Execute("INSERT INTO nosuch VALUES (1)").ok());
}

TEST(DatabaseTest, InsertMaintainsBuiltIndexes) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INT PRIMARY KEY, k INT, "
                         "v DOUBLE, s STRING)")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE INDEX ik ON t(k)").ok());
  ASSERT_TRUE(db.Execute("CREATE INDEX iv ON t(v)").ok());
  ASSERT_TRUE(db.Execute("CREATE INDEX istr ON t(s)").ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 600; ++i) {
    rows.push_back({Value::Int(i), Value::Int(i % 7),
                    i % 5 == 0 ? Value::Null() : Value::Double(i * 0.25),
                    Value::String("s" + std::to_string(i % 11))});
  }
  ASSERT_TRUE(db.BulkLoad("t", std::move(rows)).ok());
  const TableDef* def = db.catalog().GetTable("t");
  ASSERT_EQ(def->index_ids.size(), 3u);
  std::vector<const SortedIndex*> built;
  for (int id : def->index_ids) {
    built.push_back(db.storage().GetSortedIndex(id));
    ASSERT_NE(built.back(), nullptr);
  }
  // Duplicate keys, NULL keys, and an INT cell equal to a DOUBLE key.
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1000, 3, NULL, 's3'), "
                         "(1001, 3, 2.0, NULL), (1002, NULL, 0.25, 'zz')")
                  .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1003, 99, 2, 's1')").ok());
  const Table& table = *db.storage().GetTable(def->id);
  for (size_t i = 0; i < def->index_ids.size(); ++i) {
    const int id = def->index_ids[i];
    const SortedIndex* index = db.storage().GetSortedIndex(id);
    EXPECT_EQ(index, built[i]) << "index " << id << " was rebuilt";
    const SortedIndex fresh(db.catalog().GetIndex(id), &table);
    EXPECT_EQ(index->FullScan(), fresh.FullScan()) << "index " << id;
    EXPECT_EQ(index->tree_height(), fresh.tree_height());
    EXPECT_EQ(index->leaf_pages(), fresh.leaf_pages());
  }
  std::vector<uint32_t> hits = built[0]->Lookup(Value::Int(3));
  ASSERT_GE(hits.size(), 2u);
  EXPECT_EQ(hits[hits.size() - 2], 600u);
  EXPECT_EQ(hits.back(), 601u);
  EXPECT_EQ(built[1]->Lookup(Value::Double(2.0)),
            (std::vector<uint32_t>{8, 601, 603}));
  auto r = db.Query("SELECT id FROM t WHERE k = 99");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 1003);
}

TEST(DatabaseTest, SelectViaExecuteRejected) {
  Database db;
  EXPECT_FALSE(db.Execute("SELECT 1 FROM t").ok());
}

TEST(DatabaseTest, QueryErrorsSurface) {
  Database db;
  EXPECT_EQ(db.Query("SELECT * FROM missing").status().code(),
            StatusCode::kBindError);
  EXPECT_EQ(db.Query("SELEC oops").status().code(), StatusCode::kParseError);
}

TEST(DatabaseTest, ExplainShowsPhysicalPlan) {
  Database db;
  testing::LoadEmpDept(&db, 100, 5);
  auto text = db.Explain(
      "SELECT Emp.eid FROM Emp, Dept WHERE Emp.did = Dept.did AND "
      "Dept.loc = 'Denver'");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("Join"), std::string::npos);
  EXPECT_NE(text->find("rows="), std::string::npos);
}

TEST(DatabaseTest, ViewsQueryable) {
  Database db;
  testing::LoadEmpDept(&db, 100, 5);
  ASSERT_TRUE(db.Execute("CREATE VIEW rich AS SELECT eid, sal FROM Emp "
                         "WHERE sal > 60000")
                  .ok());
  auto all = db.Query("SELECT eid FROM Emp WHERE sal > 60000");
  auto via_view = db.Query("SELECT eid FROM rich");
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(via_view.ok());
  EXPECT_EQ(all->rows.size(), via_view->rows.size());
}

TEST(DatabaseTest, AnalyzeAttachesStats) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1), (2), (2)").ok());
  ASSERT_TRUE(db.Analyze("t").ok());
  const TableDef* def = db.catalog().GetTable("t");
  ASSERT_NE(def->stats, nullptr);
  EXPECT_DOUBLE_EQ(def->stats->row_count, 3);
  EXPECT_DOUBLE_EQ(def->stats->columns[0].num_distinct, 2);
}

TEST(DatabaseTest, ResultToStringRendersTable) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, b STRING)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 'x')").ok());
  auto r = db.Query("SELECT a, b FROM t");
  ASSERT_TRUE(r.ok());
  std::string s = r->ToString();
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("'x'"), std::string::npos);
  EXPECT_NE(s.find("(1 rows)"), std::string::npos);
}

TEST(DatabaseTest, OptimizerInfoPopulated) {
  Database db;
  testing::LoadJoinTables(&db, 3, 200, 20);
  auto r = db.Query(workload::JoinQuery(workload::Topology::kChain, 3));
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->optimize_info.chosen_cost, 0);
  EXPECT_GT(r->optimize_info.selinger_counters.join_plans_costed, 0u);
}

TEST(DatabaseTest, CascadesEnumeratorEndToEnd) {
  Database db;
  testing::LoadJoinTables(&db, 3, 200, 20);
  QueryOptions opts;
  opts.optimizer.enumerator = opt::EnumeratorKind::kCascades;
  auto r = db.Query(workload::JoinQuery(workload::Topology::kChain, 3), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->optimize_info.cascades_counters.groups, 0u);
}

}  // namespace
}  // namespace qopt
