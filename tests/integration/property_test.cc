#include <gtest/gtest.h>

#include <random>

#include "testing/db_fixtures.h"

namespace qopt {
namespace {

// Property-based testing: generate random SPJ+aggregate queries over the
// join tables and check the optimizer invariants on each:
//   P1  optimized execution == naive execution (soundness);
//   P2  Selinger and Cascades pick plans of identical estimated cost over
//       the same search space (bushy / cartesian-allowed);
//   P3  enabling more of the search space never increases the chosen
//       plan's estimated cost (monotonicity);
//   P4  every execution mode — row, batch, and morsel-parallel at dop
//       1/2/4/8 — returns the same result multiset (cross-mode parity);
//   P5  cardinality feedback only changes plans and estimates, never row
//       outputs — cold or warm, on or off;
//   P6  compiled expression pipelines return exactly the interpreter's
//       rows, per execution mode, over expression-heavy queries with
//       NULL-heavy columns (the interpreter is the parity oracle).
class QueryPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  static Database* db() {
    static Database* db = [] {
      auto* d = new Database();
      EXPECT_TRUE(workload::CreateJoinTables(d, 4, 400, 30, 21).ok());
      return d;
    }();
    return db;
  }

  // Expression-heavy tables (nested arithmetic targets, 20%-NULL numeric
  // columns, LIKE-able strings) for the compiled-expression parity suite.
  // Each also gets INSERTed rows whose numeric literals are of the other
  // numeric type than their columns (INT a, x; DOUBLE y), so the scans
  // read cells coerced to the declared types.
  static Database* exprdb() {
    static Database* db = [] {
      auto* d = new Database();
      EXPECT_TRUE(workload::CreateExprTables(d, 3, 300, 20, 77).ok());
      for (const char* t : {"e0", "e1", "e2"}) {
        EXPECT_TRUE(d->Execute(std::string("INSERT INTO ") + t +
                               " VALUES (100000, 3.0, 7.0, 12, 'v13'), "
                               "(100001, 5, 900.0, 999, NULL), "
                               "(100002, 7.0, NULL, 0, 'v2'), "
                               "(100003, 3, 450.0, NULL, 'v4')")
                        .ok());
      }
      return d;
    }();
    return db;
  }

  // Deterministic random query from the seed. `allow_aggregate` off forces
  // the plain-select variant without disturbing the rest of the seed's
  // random stream (used by the cost-agreement property, which only holds
  // over the join-order search space — see P2 below).
  std::string GenerateQuery(uint64_t seed, bool allow_aggregate = true) {
    std::mt19937_64 rng(seed);
    int n = 2 + static_cast<int>(rng() % 3);  // 2..4 tables
    std::vector<std::string> preds;
    // Spanning-tree join predicates (random topology).
    for (int i = 1; i < n; ++i) {
      int parent = static_cast<int>(rng() % i);
      preds.push_back("t" + std::to_string(parent) + ".a = t" +
                      std::to_string(i) + ".b");
    }
    // Random local predicates.
    for (int i = 0; i < n; ++i) {
      if (rng() % 2 == 0) {
        preds.push_back("t" + std::to_string(i) + ".c " +
                        (rng() % 2 ? "< " : ">= ") +
                        std::to_string(rng() % 1000));
      }
      if (rng() % 4 == 0) {
        preds.push_back("t" + std::to_string(i) + ".a = " +
                        std::to_string(rng() % 30));
      }
    }
    std::string select;
    bool aggregate = rng() % 3 == 0 && allow_aggregate;
    if (aggregate) {
      select = "SELECT t0.a, COUNT(*), SUM(t1.c) ";
    } else {
      select = "SELECT t0.pk, t1.pk ";
    }
    std::string sql = select + "FROM ";
    for (int i = 0; i < n; ++i) {
      if (i) sql += ", ";
      sql += "t" + std::to_string(i);
    }
    sql += " WHERE ";
    for (size_t i = 0; i < preds.size(); ++i) {
      if (i) sql += " AND ";
      sql += preds[i];
    }
    if (aggregate) sql += " GROUP BY t0.a";
    return sql;
  }
};

  // Random query with subqueries / unions over the join tables.
  std::string GenerateNestedQuery(uint64_t seed) {
    std::mt19937_64 rng(seed);
    switch (rng() % 4) {
      case 0: {  // correlated IN
        int inner = 1 + static_cast<int>(rng() % 3);
        return "SELECT t0.pk FROM t0 WHERE t0.a IN (SELECT t" +
               std::to_string(inner) + ".b FROM t" + std::to_string(inner) +
               " WHERE t" + std::to_string(inner) +
               ".c < " + std::to_string(200 + rng() % 600) + " AND t" +
               std::to_string(inner) + ".pk <> t0.pk)";
      }
      case 1: {  // NOT EXISTS
        return "SELECT t0.pk FROM t0 WHERE NOT EXISTS (SELECT t1.pk FROM "
               "t1 WHERE t1.b = t0.a AND t1.c < " +
               std::to_string(rng() % 500) + ")";
      }
      case 2: {  // scalar aggregate subquery
        return "SELECT t0.pk FROM t0 WHERE t0.c > (SELECT AVG(t1.c) FROM "
               "t1 WHERE t1.b = t0.a)";
      }
      default: {  // union of filtered arms
        bool all = rng() % 2 == 0;
        return "SELECT t0.a FROM t0 WHERE t0.c < " +
               std::to_string(rng() % 800) +
               (all ? " UNION ALL " : " UNION ") +
               "SELECT t1.b FROM t1 WHERE t1.c >= " +
               std::to_string(rng() % 800);
      }
    }
  }

TEST_P(QueryPropertyTest, NestedAndUnionQueriesMatchNaive) {
  std::string sql = GenerateNestedQuery(4000 + GetParam());
  QueryOptions naive;
  naive.naive_execution = true;
  auto reference = db()->Query(sql, naive);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString() << " " << sql;
  for (auto enumerator :
       {opt::EnumeratorKind::kSelinger, opt::EnumeratorKind::kCascades}) {
    QueryOptions options;
    options.optimizer.enumerator = enumerator;
    auto result = db()->Query(sql, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString() << " " << sql;
    testing::ExpectSameRows(result->rows, reference->rows, sql);
  }
}

TEST_P(QueryPropertyTest, OptimizedMatchesNaive) {
  std::string sql = GenerateQuery(1000 + GetParam());
  QueryOptions naive;
  naive.naive_execution = true;
  auto reference = db()->Query(sql, naive);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString() << " " << sql;

  for (auto enumerator :
       {opt::EnumeratorKind::kSelinger, opt::EnumeratorKind::kCascades}) {
    QueryOptions options;
    options.optimizer.enumerator = enumerator;
    auto result = db()->Query(sql, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString() << " " << sql;
    testing::ExpectSameRows(result->rows, reference->rows, sql);
  }
}

TEST_P(QueryPropertyTest, ArchitecturesAgreeOnOptimalCost) {
  // Join-order queries only: on aggregates, Cascades' sort enforcer can
  // place a mid-tree Sort + StreamAggregate under an eager partial
  // aggregate — a shape the Selinger enumerator cannot express — so the
  // two architectures legitimately diverge there (seeds 2032/2037 exhibit
  // it). Aggregate correctness is still covered by P1 and P4.
  std::string sql = GenerateQuery(2000 + GetParam(), /*allow_aggregate=*/false);
  QueryOptions selinger;
  selinger.optimizer.selinger.bushy = true;
  selinger.optimizer.selinger.defer_cartesian = false;
  QueryOptions cascades;
  cascades.optimizer.enumerator = opt::EnumeratorKind::kCascades;
  cascades.optimizer.cascades.allow_cartesian = true;
  opt::OptimizeInfo si, ci;
  auto ps = db()->PlanQuery(sql, selinger, &si);
  auto pc = db()->PlanQuery(sql, cascades, &ci);
  ASSERT_TRUE(ps.ok()) << ps.status().ToString() << " " << sql;
  ASSERT_TRUE(pc.ok()) << pc.status().ToString() << " " << sql;
  EXPECT_NEAR(si.chosen_cost, ci.chosen_cost, 1e-6 * si.chosen_cost + 1e-6)
      << sql;
}

TEST_P(QueryPropertyTest, LargerSearchSpaceNeverHurts) {
  std::string sql = GenerateQuery(3000 + GetParam());
  QueryOptions restricted;
  restricted.optimizer.selinger.enable_hash_join = false;
  restricted.optimizer.selinger.enable_index_nl_join = false;
  restricted.optimizer.selinger.enable_merge_join = false;
  QueryOptions full;
  full.optimizer.selinger.bushy = true;
  opt::OptimizeInfo ri, fi;
  auto pr = db()->PlanQuery(sql, restricted, &ri);
  auto pf = db()->PlanQuery(sql, full, &fi);
  ASSERT_TRUE(pr.ok()) << pr.status().ToString();
  ASSERT_TRUE(pf.ok()) << pf.status().ToString();
  EXPECT_LE(fi.chosen_cost, ri.chosen_cost * (1 + 1e-9)) << sql;
}

TEST_P(QueryPropertyTest, ExecutionModesAgreeOnRandomQueries) {
  // workload::RandomJoinQuery adds seeded random range filters and
  // (on even seeds) a GROUP BY aggregate on top of the join topology.
  uint64_t seed = 5000 + GetParam();
  auto topology = static_cast<workload::Topology>(seed % 3);
  int n = 2 + static_cast<int>(seed % 3);
  std::string sql = workload::RandomJoinQuery(topology, n, seed,
                                              /*group_by=*/seed % 2 == 0);
  QueryOptions row;
  row.execution_mode = exec::ExecMode::kRow;
  auto reference = db()->Query(sql, row);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString() << " " << sql;
  for (size_t dop : {1u, 2u, 4u, 8u}) {
    QueryOptions parallel;
    parallel.execution_mode = exec::ExecMode::kParallel;
    parallel.dop = dop;
    parallel.morsel_rows = 64;  // 400-row tables: force multiple morsels.
    auto result = db()->Query(sql, parallel);
    ASSERT_TRUE(result.ok()) << result.status().ToString() << " " << sql;
    testing::ExpectSameRows(result->rows, reference->rows,
                            sql + " dop=" + std::to_string(dop));
  }
}

TEST_P(QueryPropertyTest, FeedbackNeverChangesResults) {
  uint64_t seed = 6000 + GetParam();
  auto topology = static_cast<workload::Topology>(seed % 3);
  int n = 2 + static_cast<int>(seed % 3);
  std::string sql = workload::RandomJoinQuery(topology, n, seed,
                                              /*group_by=*/seed % 2 == 0);
  QueryOptions off;
  off.use_feedback = false;
  auto reference = db()->Query(sql, off);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString() << " " << sql;

  // Instrumented feedback-on run: harvests observed cardinalities into the
  // (suite-shared) store, so later seeds plan against a warmer store.
  QueryOptions on;
  on.analyze = true;  // use_feedback defaults on.
  auto warmed = db()->Query(sql, on);
  ASSERT_TRUE(warmed.ok()) << warmed.status().ToString() << " " << sql;
  testing::ExpectSameRows(warmed->rows, reference->rows, "warming " + sql);

  // Re-plan with the store now warmed for exactly this query's fragments:
  // the plan may shift, the rows may not.
  auto again = db()->Query(sql, on);
  ASSERT_TRUE(again.ok()) << again.status().ToString() << " " << sql;
  testing::ExpectSameRows(again->rows, reference->rows, "warmed " + sql);
}

TEST_P(QueryPropertyTest, CompiledExpressionsMatchInterpreter) {
  uint64_t seed = 7000 + GetParam();
  int n = 2 + static_cast<int>(seed % 2);
  std::string sql = workload::RandomExprQuery(n, seed);

  // The oracle: naive execution with expression compilation off — the
  // row-at-a-time interpreter with the syntactic plan.
  QueryOptions oracle;
  oracle.naive_execution = true;
  oracle.compile_expressions = false;
  auto reference = exprdb()->Query(sql, oracle);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString() << " " << sql;

  struct ModeSpec {
    const char* name;
    bool naive;
    exec::ExecMode mode;
  };
  const ModeSpec modes[] = {
      {"naive", true, exec::ExecMode::kBatch},
      {"row", false, exec::ExecMode::kRow},
      {"batch", false, exec::ExecMode::kBatch},
      {"parallel", false, exec::ExecMode::kParallel},
  };
  for (const ModeSpec& m : modes) {
    for (bool compiled : {false, true}) {
      QueryOptions options;
      options.naive_execution = m.naive;
      options.execution_mode = m.mode;
      options.compile_expressions = compiled;
      if (m.mode == exec::ExecMode::kParallel) {
        options.dop = 4;
        options.morsel_rows = 64;  // 300-row tables: force multiple morsels.
      }
      auto result = exprdb()->Query(sql, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString() << " " << sql;
      testing::ExpectSameRows(result->rows, reference->rows,
                              sql + " [" + m.name +
                                  (compiled ? " compiled]" : " interpreted]"));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryPropertyTest, ::testing::Range(0, 50));

}  // namespace
}  // namespace qopt
