#include <gtest/gtest.h>

#include <cmath>

#include "parser/parser.h"
#include "workload/query_gen.h"
#include "workload/star_schema.h"

namespace qopt::workload {
namespace {

TEST(ZipfGenTest, Theta0IsUniform) {
  ZipfGen gen(100, 0.0, 7);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) counts[gen.Next()]++;
  for (int c : counts) {
    EXPECT_NEAR(c, 1000, 250);
  }
}

TEST(ZipfGenTest, HighThetaSkews) {
  ZipfGen gen(1000, 1.5, 7);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) counts[gen.Next()]++;
  // Rank-0 dominates and frequencies decay.
  EXPECT_GT(counts[0], counts[10] * 5);
  EXPECT_GT(counts[0], 20000);
}

TEST(DataGenTest, DeterministicUnderSeed) {
  std::vector<ColumnSpec> spec = {
      {.name = "a", .kind = ColumnSpec::Kind::kUniform, .ndv = 50},
      {.name = "b", .kind = ColumnSpec::Kind::kZipf, .ndv = 100},
  };
  std::vector<Row> r1 = GenerateRows(spec, 500, 42);
  std::vector<Row> r2 = GenerateRows(spec, 500, 42);
  std::vector<Row> r3 = GenerateRows(spec, 500, 43);
  ASSERT_EQ(r1.size(), 500u);
  EXPECT_TRUE(RowEq()(r1[17], r2[17]));
  bool any_diff = false;
  for (size_t i = 0; i < r1.size(); ++i) {
    if (!RowEq()(r1[i], r3[i])) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(DataGenTest, ChunkedGenerationMatchesOneShot) {
  std::vector<ColumnSpec> spec = {
      {.name = "seq", .kind = ColumnSpec::Kind::kSequential},
      {.name = "z", .kind = ColumnSpec::Kind::kZipf, .ndv = 100},
      {.name = "r", .kind = ColumnSpec::Kind::kUniformReal},
      {.name = "n", .kind = ColumnSpec::Kind::kUniform, .ndv = 10,
       .null_fraction = 0.3},
  };
  const std::vector<Row> whole = GenerateRows(spec, 1000, 5);
  RowGenerator gen(spec, 5);
  std::vector<Row> chunked;
  for (int64_t n : {1, 300, 0, 699}) {
    for (Row& r : gen.Next(n)) chunked.push_back(std::move(r));
  }
  ASSERT_EQ(chunked.size(), whole.size());
  for (size_t i = 0; i < whole.size(); ++i) {
    EXPECT_TRUE(RowEq()(chunked[i], whole[i])) << i;
    EXPECT_EQ(chunked[i][2].AsDouble(), whole[i][2].AsDouble()) << i;
  }
}

TEST(DataGenTest, ColumnKindsProduceDeclaredShapes) {
  std::vector<ColumnSpec> spec = {
      {.name = "seq", .kind = ColumnSpec::Kind::kSequential},
      {.name = "u", .kind = ColumnSpec::Kind::kUniform, .ndv = 10},
      {.name = "r", .kind = ColumnSpec::Kind::kUniformReal, .lo = 5,
       .hi = 6},
      {.name = "s", .kind = ColumnSpec::Kind::kString, .ndv = 4},
      {.name = "n", .kind = ColumnSpec::Kind::kUniform, .ndv = 10,
       .null_fraction = 0.5},
  };
  std::vector<Row> rows = GenerateRows(spec, 1000, 9);
  int nulls = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i][0].AsInt(), static_cast<int64_t>(i));
    EXPECT_LT(rows[i][1].AsInt(), 10);
    EXPECT_GE(rows[i][2].AsDouble(), 5.0);
    EXPECT_LT(rows[i][2].AsDouble(), 6.0);
    EXPECT_EQ(rows[i][3].AsString()[0], 'v');
    if (rows[i][4].is_null()) ++nulls;
  }
  EXPECT_NEAR(nulls, 500, 100);
}

TEST(QueryGenTest, GeneratedQueriesParseAndBind) {
  Database db;
  ASSERT_TRUE(CreateJoinTables(&db, 5, 100, 20, 3).ok());
  for (Topology t : {Topology::kChain, Topology::kStar, Topology::kClique}) {
    for (int n = 2; n <= 5; ++n) {
      std::string sql = JoinQuery(t, n);
      auto bound = db.BindSql(sql);
      EXPECT_TRUE(bound.ok())
          << TopologyName(t) << " n=" << n << ": "
          << bound.status().ToString() << "\n" << sql;
    }
  }
}

TEST(QueryGenTest, PredicateCountsMatchTopology) {
  auto count_preds = [](const std::string& sql) {
    size_t n = 0, pos = 0;
    while ((pos = sql.find(" = ", pos)) != std::string::npos) {
      ++n;
      pos += 3;
    }
    return n;
  };
  EXPECT_EQ(count_preds(JoinQuery(Topology::kChain, 5)), 4u);
  EXPECT_EQ(count_preds(JoinQuery(Topology::kStar, 5)), 4u);
  EXPECT_EQ(count_preds(JoinQuery(Topology::kClique, 5)), 10u);
}

TEST(StarSchemaTest, BuildsAnalyzableSchema) {
  Database db;
  StarSchemaSpec spec;
  spec.num_dimensions = 2;
  spec.fact_rows = 2000;
  spec.dim_rows = 20;
  ASSERT_TRUE(BuildStarSchema(&db, spec).ok());
  const TableDef* fact = db.catalog().GetTable("fact");
  ASSERT_NE(fact, nullptr);
  EXPECT_EQ(fact->columns.size(), 4u);  // id + 2 fks + measure
  EXPECT_EQ(fact->foreign_keys.size(), 2u);
  ASSERT_NE(fact->stats, nullptr);
  EXPECT_DOUBLE_EQ(fact->stats->row_count, 2000);
  // The canonical star query runs.
  auto r = db.Query(StarQuery(2));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 1u);
}

}  // namespace
}  // namespace qopt::workload
