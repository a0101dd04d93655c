// Cross-mode execution parity over a SQL corpus: row vs batch vs parallel.
//
// For every query and every planner configuration (optimized, optimized
// with rewrites disabled so correlated Apply survives into the physical
// plan, and naive execution), batch mode must produce the same result
// multiset AND the same ExecStats as row mode (every operator at batch
// capacity 1): batch read-ahead may never change how many rows are
// scanned, how many pages are touched, or how often a correlated subquery
// re-executes. The morsel
// parallel engine is held to the same bar at dop 1, 2, 4 and 8 — morsels
// partition each scan exactly, so every row-count stat stays identical;
// only modeled_pages_read may diverge (each worker simulates its own LRU
// buffer pool). Parallel output order is worker-dependent, so rows are
// compared as multisets and determinism is asserted on sorted output.
#include <gtest/gtest.h>

#include <algorithm>

#include "engine/database.h"
#include "tests/testing/db_fixtures.h"

namespace qopt {
namespace {

class ExecParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Small enough that naive nested-loop plans stay fast, large enough to
    // span many batches at small capacities.
    testing::LoadEmpDept(&db_, /*num_emps=*/400, /*num_depts=*/20);
  }

  struct RunOutcome {
    std::vector<Row> rows;
    exec::ExecStats stats;
  };

  RunOutcome Run(const std::string& sql, QueryOptions options,
                 exec::ExecMode mode,
                 size_t capacity = exec::kDefaultBatchCapacity,
                 size_t dop = 1) {
    options.execution_mode = mode;
    options.batch_capacity = capacity;
    options.dop = dop;
    // Small morsels so even the 400-row corpus splits across workers.
    options.morsel_rows = 64;
    auto r = db_.Query(sql, options);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    if (!r.ok()) return {};
    return {std::move(r->rows), r->exec_stats};
  }

  void ExpectStatsEqual(const exec::ExecStats& batch,
                        const exec::ExecStats& row, const std::string& label,
                        bool check_modeled_pages = true) {
    EXPECT_EQ(batch.rows_scanned, row.rows_scanned) << label;
    EXPECT_EQ(batch.rows_joined, row.rows_joined) << label;
    EXPECT_EQ(batch.index_lookups, row.index_lookups) << label;
    EXPECT_EQ(batch.subquery_executions, row.subquery_executions) << label;
    EXPECT_EQ(batch.page_touches, row.page_touches) << label;
    // Parallel workers each simulate a private LRU buffer pool, so the
    // modeled (cold-cache) page count may differ from the serial engines.
    if (check_modeled_pages) {
      EXPECT_DOUBLE_EQ(batch.modeled_pages_read, row.modeled_pages_read)
          << label;
    }
  }

  // Runs `sql` through row, batch and parallel engines under one planner
  // config and asserts full parity; also re-checks batch mode at a tiny
  // capacity to stress batch boundaries, and the parallel engine at dop
  // 1, 2, 4 and 8.
  void CheckConfig(const std::string& sql, const QueryOptions& options,
                   const std::string& label) {
    SCOPED_TRACE(label + ": " + sql);
    RunOutcome row = Run(sql, options, exec::ExecMode::kRow);
    RunOutcome batch = Run(sql, options, exec::ExecMode::kBatch);
    testing::ExpectSameRows(batch.rows, row.rows, label);
    ExpectStatsEqual(batch.stats, row.stats, label);
    RunOutcome tiny = Run(sql, options, exec::ExecMode::kBatch,
                          /*capacity=*/3);
    testing::ExpectSameRows(tiny.rows, row.rows, label + "/tiny");
    ExpectStatsEqual(tiny.stats, row.stats, label + "/tiny");
    for (size_t dop : {1u, 2u, 4u, 8u}) {
      std::string plabel = label + "/parallel-dop" + std::to_string(dop);
      RunOutcome par = Run(sql, options, exec::ExecMode::kParallel,
                           exec::kDefaultBatchCapacity, dop);
      testing::ExpectSameRows(par.rows, row.rows, plabel);
      ExpectStatsEqual(par.stats, row.stats, plabel,
                       /*check_modeled_pages=*/false);
    }
  }

  void CheckParity(const std::string& sql) {
    CheckConfig(sql, QueryOptions{}, "optimized");
    QueryOptions no_rewrites;
    no_rewrites.optimizer.enable_rewrites = false;
    CheckConfig(sql, no_rewrites, "no-rewrites");
    QueryOptions naive;
    naive.naive_execution = true;
    CheckConfig(sql, naive, "naive");
  }

  Database db_;
};

TEST_F(ExecParityTest, ScanAndFilter) {
  CheckParity("SELECT eid, sal FROM Emp WHERE sal > 60000");
  CheckParity("SELECT * FROM Emp WHERE sal > 50000 AND age < 40");
  CheckParity("SELECT eid FROM Emp WHERE sal > 1000000");  // empty result
}

TEST_F(ExecParityTest, Indexablepredicate) {
  // did is indexed: the optimizer may pick an index scan (row-mode
  // interleaved leaf/data touches) while naive mode table-scans.
  CheckParity("SELECT eid FROM Emp WHERE did = 7");
  CheckParity("SELECT eid FROM Emp WHERE did >= 17 AND sal > 40000");
}

TEST_F(ExecParityTest, Projection) {
  CheckParity("SELECT eid, sal * 1.1 AS raised FROM Emp WHERE age < 30");
  CheckParity(
      "SELECT eid, CASE WHEN sal >= 90000 THEN 'high' ELSE 'low' END "
      "FROM Emp");
}

TEST_F(ExecParityTest, Joins) {
  CheckParity(
      "SELECT E.eid, D.name FROM Emp E, Dept D "
      "WHERE E.did = D.did AND E.sal > 80000");
  CheckParity(
      "SELECT Dept.name, Emp.eid FROM Dept LEFT JOIN Emp "
      "ON Dept.did = Emp.did AND Emp.sal > 110000");
  CheckParity(
      "SELECT E.eid, D.loc FROM Emp E, Dept D "
      "WHERE E.did = D.did AND E.age + D.num_of_machines > 50");
}

TEST_F(ExecParityTest, AggregationAndHaving) {
  CheckParity(
      "SELECT D.name, COUNT(*) AS c, SUM(E.sal) FROM Emp E, Dept D "
      "WHERE E.did = D.did GROUP BY D.name");
  CheckParity(
      "SELECT did, COUNT(*) AS c FROM Emp GROUP BY did HAVING COUNT(*) > 20");
}

TEST_F(ExecParityTest, SortLimitDistinct) {
  CheckParity("SELECT eid, sal FROM Emp ORDER BY sal DESC LIMIT 10");
  CheckParity("SELECT DISTINCT loc FROM Dept");
  CheckParity(
      "SELECT DISTINCT did FROM Emp WHERE sal > 45000 ORDER BY did LIMIT 5");
}

TEST_F(ExecParityTest, InListAndLike) {
  CheckParity(
      "SELECT name FROM Dept WHERE loc IN ('Denver', 'Austin') "
      "AND name LIKE 'dept1%'");
  CheckParity("SELECT eid FROM Emp WHERE did IN (1, 3, 5, 7, 9)");
}

TEST_F(ExecParityTest, UncorrelatedSubqueries) {
  CheckParity(
      "SELECT eid FROM Emp WHERE did IN "
      "(SELECT did FROM Dept WHERE budget > 80000)");
  CheckParity("SELECT eid FROM Emp WHERE sal > (SELECT AVG(sal) FROM Emp)");
  CheckParity(
      "SELECT eid FROM Emp WHERE did NOT IN "
      "(SELECT did FROM Dept WHERE loc = 'Denver')");
}

TEST_F(ExecParityTest, CorrelatedSubqueries) {
  // Under no-rewrites / naive configs these run as tuple-iteration Apply:
  // batch mode must run the whole Apply subtree at capacity 1 so
  // subquery_executions and interleaved page touches match.
  CheckParity(
      "SELECT name FROM Dept WHERE EXISTS "
      "(SELECT eid FROM Emp WHERE Emp.did = Dept.did AND Emp.sal > 100000)");
  CheckParity(
      "SELECT name FROM Dept WHERE NOT EXISTS "
      "(SELECT eid FROM Emp WHERE Emp.did = Dept.did)");
  CheckParity(
      "SELECT Emp.eid FROM Emp WHERE Emp.did IN "
      "(SELECT Dept.did FROM Dept WHERE Dept.loc = 'Denver' "
      " AND Emp.eid = Dept.mgr)");
  CheckParity(
      "SELECT Dept.name FROM Dept WHERE Dept.num_of_machines >= "
      "(SELECT COUNT(*) FROM Emp WHERE Dept.name = Emp.dept_name)");
  CheckParity(
      "SELECT eid FROM Emp e1 WHERE e1.sal > "
      "(SELECT AVG(sal) FROM Emp e2 WHERE e2.did = e1.did)");
}

TEST_F(ExecParityTest, SetOperations) {
  CheckParity(
      "SELECT did FROM Emp WHERE sal > 100000 UNION ALL "
      "SELECT did FROM Dept WHERE loc = 'Denver'");
  CheckParity("SELECT did FROM Dept EXCEPT SELECT did FROM Emp");
  CheckParity("SELECT did FROM Emp INTERSECT SELECT did FROM Dept");
  CheckParity(
      "SELECT u.d FROM (SELECT did AS d FROM Emp UNION ALL "
      "SELECT did AS d FROM Dept) u WHERE u.d >= 10");
}

TEST_F(ExecParityTest, ExplainAnnotatesBatchOperators) {
  QueryOptions batch_opts;
  auto text = db_.Explain(
      "SELECT E.eid FROM Emp E, Dept D WHERE E.did = D.did AND E.sal > 80000",
      batch_opts);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("execution mode: batch"), std::string::npos) << *text;
  EXPECT_NE(text->find("[batch]"), std::string::npos) << *text;

  QueryOptions row_opts;
  row_opts.execution_mode = exec::ExecMode::kRow;
  auto row_text = db_.Explain("SELECT eid FROM Emp WHERE sal > 60000",
                              row_opts);
  ASSERT_TRUE(row_text.ok());
  EXPECT_EQ(row_text->find("[batch]"), std::string::npos) << *row_text;
}

TEST_F(ExecParityTest, ExplainAnnotatesParallelRegions) {
  QueryOptions par_opts;
  par_opts.execution_mode = exec::ExecMode::kParallel;
  par_opts.dop = 4;
  auto text = db_.Explain(
      "SELECT E.eid FROM Emp E, Dept D WHERE E.did = D.did AND E.sal > 80000",
      par_opts);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("execution mode: parallel (dop 4"), std::string::npos)
      << *text;
  EXPECT_NE(text->find("[parallel]"), std::string::npos) << *text;
}

// Parallel mode at dop 1 builds the serial batch tree: no gather, so
// EXPLAIN marks no region and the run is the serial batch run, down to the
// buffer-pool simulation.
TEST_F(ExecParityTest, ParallelAtDopOneRunsTheSerialBatchTree) {
  const std::string sql =
      "SELECT E.eid FROM Emp E, Dept D WHERE E.did = D.did AND E.sal > 80000";
  QueryOptions par_opts;
  par_opts.execution_mode = exec::ExecMode::kParallel;
  par_opts.dop = 1;
  auto text = db_.Explain(sql, par_opts);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text->find("[parallel]"), std::string::npos) << *text;
  EXPECT_NE(text->find("[batch]"), std::string::npos) << *text;

  auto par = db_.Query(sql, par_opts);
  auto batch = db_.Query(sql, QueryOptions{});
  ASSERT_TRUE(par.ok() && batch.ok());
  EXPECT_FALSE(par->exec_stats.parallel_pages_divergent);
  ExpectStatsEqual(par->exec_stats, batch->exec_stats, "dop1");
}

// Same query, same dop, ten runs: the sorted output must be byte-identical
// every time. Worker interleaving may permute the raw result order, but it
// must never change the result multiset — including every floating-point
// aggregate bit pattern (the corpus data is integer-valued, so sums are
// exact regardless of merge order).
TEST_F(ExecParityTest, PlanCacheHitsMatchFreshCompilation) {
  // A cached plan must execute exactly like a freshly optimized one:
  // byte-identical rows and row-counter-identical ExecStats, in every
  // engine mode. The first cache-on run misses (and fills the cache), the
  // second hits; both must match the cache-off reference.
  const char* queries[] = {
      "SELECT eid, sal FROM Emp WHERE sal > 60000",
      "SELECT E.eid, D.name FROM Emp E, Dept D "
      "WHERE E.did = D.did AND E.sal > 55000",
      "SELECT D.name, COUNT(*), AVG(E.sal) FROM Emp E, Dept D "
      "WHERE E.did = D.did GROUP BY D.name",
  };
  for (const char* sql : queries) {
    for (exec::ExecMode mode :
         {exec::ExecMode::kRow, exec::ExecMode::kBatch,
          exec::ExecMode::kParallel}) {
      std::string label = std::string("cache-parity/") + sql;
      SCOPED_TRACE(label);
      QueryOptions off;
      off.use_plan_cache = false;
      size_t dop = mode == exec::ExecMode::kParallel ? 4 : 1;
      RunOutcome reference = Run(sql, off, mode,
                                 exec::kDefaultBatchCapacity, dop);
      RunOutcome miss = Run(sql, QueryOptions{}, mode,
                            exec::kDefaultBatchCapacity, dop);
      RunOutcome hit = Run(sql, QueryOptions{}, mode,
                           exec::kDefaultBatchCapacity, dop);
      testing::ExpectSameRows(miss.rows, reference.rows, label + "/miss");
      testing::ExpectSameRows(hit.rows, reference.rows, label + "/hit");
      bool serial = mode != exec::ExecMode::kParallel;
      ExpectStatsEqual(miss.stats, reference.stats, label + "/miss", serial);
      ExpectStatsEqual(hit.stats, reference.stats, label + "/hit", serial);
    }
    db_.plan_cache().Clear();
  }
}

TEST_F(ExecParityTest, ParallelExecutionIsDeterministic) {
  const char* queries[] = {
      "SELECT E.eid, D.name FROM Emp E, Dept D "
      "WHERE E.did = D.did AND E.sal > 60000",
      "SELECT D.name, COUNT(*), SUM(E.sal), AVG(E.age) "
      "FROM Emp E, Dept D WHERE E.did = D.did GROUP BY D.name",
  };
  for (const char* sql : queries) {
    for (size_t dop : {2u, 8u}) {
      QueryOptions options;
      options.execution_mode = exec::ExecMode::kParallel;
      options.dop = dop;
      options.morsel_rows = 32;  // Many morsels: maximal interleaving.
      // Force hash-join plans: the default index-NL plans here contain no
      // parallel region, which would make this test vacuously serial.
      options.optimizer.selinger.enable_index_nl_join = false;
      options.optimizer.selinger.enable_merge_join = false;
      std::vector<Row> reference;
      for (int run = 0; run < 10; ++run) {
        auto r = db_.Query(sql, options);
        ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
        std::vector<Row> rows = std::move(r->rows);
        std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
          for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
            int c = a[i].Compare(b[i]);
            if (c != 0) return c < 0;
          }
          return a.size() < b.size();
        });
        if (run == 0) {
          reference = std::move(rows);
          continue;
        }
        ASSERT_EQ(rows.size(), reference.size()) << sql << " dop=" << dop;
        for (size_t i = 0; i < rows.size(); ++i) {
          ASSERT_TRUE(RowEq()(rows[i], reference[i]))
              << sql << " dop=" << dop << " run=" << run << " row " << i
              << ": " << RowToString(rows[i]) << " vs "
              << RowToString(reference[i]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace qopt
