// Morsel-parallel execution under stress: fault injection and resource
// budgets at dop 8 with tiny morsels, so many workers race through the
// instrumented paths at once. Every failure must surface as exactly one
// clean tagged Status (never an abort, a deadlock, or a torn result), and
// the database — including its lazily created thread pool — must keep
// answering queries afterwards. Run under TSan in CI to catch data races
// on the shared fault registry, governor, and join build states.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/database.h"
#include "testing/fault_injection.h"
#include "tests/testing/db_fixtures.h"

namespace qopt {
namespace {

class ParallelExecTest : public ::testing::Test {
 protected:
  void SetUp() override { testing::LoadEmpDept(&db_, 2000, 50); }
  void TearDown() override { testing::FaultRegistry::Instance().DisarmAll(); }

  // dop 8 with 64-row morsels over 2000-row tables: every worker claims
  // several morsels per phase. Index-NL and merge joins are disabled so the
  // optimizer picks a hash join + hash aggregate — a full morsel region
  // (parallel build, parallel probe, parallel partial aggregation) instead
  // of the serial-fallback shapes the default plan would use here.
  QueryOptions ParallelOptions(size_t dop = 8) {
    QueryOptions options;
    options.execution_mode = exec::ExecMode::kParallel;
    options.dop = dop;
    options.morsel_rows = 64;
    options.optimizer.selinger.enable_index_nl_join = false;
    options.optimizer.selinger.enable_merge_join = false;
    return options;
  }

  Database db_;
};

// Grouping on E.did (not D.name) keeps the sort-based stream aggregate
// unattractive, so the planned region is HashAggregate over HashJoin with
// both table scans morsel-parallel.
constexpr const char* kJoinAggSql =
    "SELECT E.did, COUNT(*), SUM(E.sal) FROM Emp E, Dept D "
    "WHERE E.did = D.did AND E.sal > 40000 GROUP BY E.did";

TEST_F(ParallelExecTest, MatchesSerialAcrossDop) {
  auto reference = db_.Query(kJoinAggSql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (size_t dop : {1u, 2u, 4u, 8u}) {
    auto result = db_.Query(kJoinAggSql, ParallelOptions(dop));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    testing::ExpectSameRows(result->rows, reference->rows,
                            "dop=" + std::to_string(dop));
  }
}

TEST_F(ParallelExecTest, WorkerCpuStatsAreAggregated) {
  auto result = db_.Query(kJoinAggSql, ParallelOptions(4));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const exec::ExecStats& s = result->exec_stats;
  // Total worker CPU covers at least the critical path, and a critical
  // path exists whenever any phase ran.
  EXPECT_GE(s.parallel_worker_cpu_ms, s.parallel_critical_cpu_ms);
  EXPECT_GT(s.parallel_critical_cpu_ms, 0.0);
  // Serial modes never touch the parallel counters.
  auto serial = db_.Query(kJoinAggSql);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial->exec_stats.parallel_worker_cpu_ms, 0.0);
}

// The concurrency stress of the issue: arm each batch-path fault point and
// run a multi-phase parallel query at dop 8 repeatedly. Whichever worker
// hits the fault first must win the unwind race cleanly: one tagged
// Status, no partial result, and the pool fully reusable afterwards.
TEST_F(ParallelExecTest, FaultsUnwindCleanlyAtHighDop) {
  auto& registry = testing::FaultRegistry::Instance();
  for (const char* point : {"exec.batch.alloc", "storage.scan.open"}) {
    SCOPED_TRACE(point);
    auto baseline = db_.Query(kJoinAggSql, ParallelOptions());
    ASSERT_TRUE(baseline.ok())
        << point << " baseline: " << baseline.status().ToString();

    registry.Arm(point, testing::FaultMode::kAlways, 1, StatusCode::kInternal,
                 "injected fault");
    for (int run = 0; run < 10; ++run) {
      auto injected = db_.Query(kJoinAggSql, ParallelOptions());
      ASSERT_FALSE(injected.ok()) << point << " run " << run;
      EXPECT_EQ(injected.status().code(), StatusCode::kInternal)
          << point << ": " << injected.status().ToString();
      EXPECT_NE(injected.status().message().find(point), std::string::npos)
          << point << ": message lacks fault-point tag: "
          << injected.status().ToString();
    }
    EXPECT_GE(registry.FireCount(point), 10);

    // Disarmed: the same pool (grow-only, reused across queries) serves
    // the query again with identical results.
    registry.DisarmAll();
    auto recovered = db_.Query(kJoinAggSql, ParallelOptions());
    ASSERT_TRUE(recovered.ok())
        << point << " recovery: " << recovered.status().ToString();
    testing::ExpectSameRows(recovered->rows, baseline->rows, point);
  }
}

// kOnce semantics must hold even when eight workers race through the
// point: exactly one evaluation fires, exactly one query fails.
TEST_F(ParallelExecTest, OnceFaultFiresExactlyOnceUnderConcurrency) {
  auto& registry = testing::FaultRegistry::Instance();
  registry.Arm("exec.batch.alloc", testing::FaultMode::kOnce);
  auto first = db_.Query(kJoinAggSql, ParallelOptions());
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(registry.FireCount("exec.batch.alloc"), 1);
  auto second = db_.Query(kJoinAggSql, ParallelOptions());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(registry.FireCount("exec.batch.alloc"), 1);
}

// Row/memory budgets trip once and unwind every worker with the same
// kResourceExhausted status, in every parallel configuration.
TEST_F(ParallelExecTest, GovernorBudgetsTripCleanlyUnderParallelism) {
  for (size_t dop : {2u, 8u}) {
    QueryOptions options = ParallelOptions(dop);
    options.governor.max_rows = 10;
    auto result = db_.Query(kJoinAggSql, options);
    ASSERT_FALSE(result.ok()) << "dop=" << dop;
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << "dop=" << dop << ": " << result.status().ToString();
  }
  // A generous budget changes nothing.
  QueryOptions generous = ParallelOptions();
  generous.governor = GovernorOptions::ServiceDefaults();
  auto limited = db_.Query(kJoinAggSql, generous);
  auto unlimited = db_.Query(kJoinAggSql, ParallelOptions());
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  ASSERT_TRUE(unlimited.ok());
  testing::ExpectSameRows(limited->rows, unlimited->rows, "generous budget");
}

TEST_F(ParallelExecTest, ZeroDeadlineCancelsParallelQuery) {
  QueryOptions options = ParallelOptions();
  options.governor.deadline_ms = 0;
  auto result = db_.Query(kJoinAggSql, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  // And the pool is reusable after the cancellation.
  auto after = db_.Query(kJoinAggSql, ParallelOptions());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
}

// Serial-fallback shapes inside parallel mode: Apply subtrees, index
// nested-loop joins, sorts and limits run row-at-a-time exactly as in
// batch mode, with the morsel regions only where eligible.
TEST_F(ParallelExecTest, SerialFallbackShapesStayCorrect) {
  auto check = [&](const std::string& sql) {
    QueryOptions naive;
    naive.naive_execution = true;
    auto reference = db_.Query(sql, naive);
    ASSERT_TRUE(reference.ok()) << sql << ": "
                                << reference.status().ToString();
    auto result = db_.Query(sql, ParallelOptions());
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    testing::ExpectSameRows(result->rows, reference->rows, sql);
  };
  check(
      "SELECT name FROM Dept WHERE EXISTS "
      "(SELECT eid FROM Emp WHERE Emp.did = Dept.did AND Emp.sal > 100000)");
  check("SELECT eid, sal FROM Emp ORDER BY sal DESC LIMIT 10");
  check(
      "SELECT eid FROM Emp e1 WHERE e1.sal > "
      "(SELECT AVG(sal) FROM Emp e2 WHERE e2.did = e1.did)");
}

// The cross-worker merge of per-worker partial aggregates: DISTINCT
// partials merge by re-accumulation, and a scalar aggregate over empty
// input yields its one row only after the merge. Every worker claims
// several 64-row morsels, so groups and distinct values span workers.
TEST_F(ParallelExecTest, CrossWorkerAggregateMergeMatchesSerial) {
  const char* kQueries[] = {
      "SELECT did, COUNT(DISTINCT age), SUM(DISTINCT age), AVG(sal), "
      "MIN(sal), MAX(age) FROM Emp GROUP BY did",
      "SELECT COUNT(DISTINCT did), SUM(DISTINCT age), AVG(sal), MIN(sal), "
      "MAX(age) FROM Emp",
      "SELECT COUNT(*), COUNT(DISTINCT did), SUM(sal), AVG(sal), MIN(age), "
      "MAX(age) FROM Emp WHERE sal < 0",
  };
  for (const char* sql : kQueries) {
    for (bool compile : {true, false}) {
      QueryOptions batch;
      batch.execution_mode = exec::ExecMode::kBatch;
      batch.compile_expressions = compile;
      auto reference = db_.Query(sql, batch);
      ASSERT_TRUE(reference.ok()) << sql << ": "
                                  << reference.status().ToString();
      for (size_t dop : {2u, 4u, 8u}) {
        QueryOptions options = ParallelOptions(dop);
        options.compile_expressions = compile;
        const std::string label = std::string(sql) + " dop=" +
                                  std::to_string(dop) +
                                  (compile ? " compiled" : " interpreted");
        auto plan = db_.PlanQuery(sql, options);
        ASSERT_TRUE(plan.ok()) << label << ": " << plan.status().ToString();
        bool merged = false;
        for (const exec::PhysicalPlan* root : exec::ParallelRegionRoots(*plan)) {
          merged |= root->kind == exec::PhysOpKind::kHashAggregate;
        }
        EXPECT_TRUE(merged) << label << ": aggregate is not a region root";
        auto result = db_.Query(sql, options);
        ASSERT_TRUE(result.ok()) << label << ": "
                                 << result.status().ToString();
        testing::ExpectSameRows(result->rows, reference->rows, label);
      }
    }
  }
}

// Non-aggregate regions hand their workers' batches on whole. Projection
// and join outputs are dense; under a nested-loop join (a non-equi join
// predicate) the Emp scan is a region root of its own, and its residual
// (sal + eid > k, no constant comparison the scan could prefilter) only
// shrinks each batch's selection, so those worker batches are sparse and
// get compacted before they are buffered. The empty regions buffer
// nothing. At capacity 7 every handed-on batch still fits its consumer
// (the gather checks this).
TEST_F(ParallelExecTest, PassThroughRegionsMatchNaive) {
  const char* kQueries[] = {
      "SELECT E.eid, E.sal + E.eid FROM Emp E WHERE E.sal + E.eid > 100000",
      "SELECT E.eid, D.name FROM Emp E, Dept D "
      "WHERE E.did = D.did AND E.sal + E.eid > 100000",
      "SELECT E.eid, D.did FROM Emp E, Dept D "
      "WHERE E.sal + E.eid > 100000 AND D.budget < E.sal",
      "SELECT E.eid FROM Emp E WHERE E.sal + E.eid < 0",
      "SELECT E.eid, D.did FROM Emp E, Dept D "
      "WHERE E.sal + E.eid < 0 AND D.budget < E.sal",
  };
  for (const char* sql : kQueries) {
    QueryOptions naive;
    naive.naive_execution = true;
    auto reference = db_.Query(sql, naive);
    ASSERT_TRUE(reference.ok()) << sql << ": "
                                << reference.status().ToString();
    for (size_t capacity : {exec::kDefaultBatchCapacity, size_t{7}}) {
      for (size_t dop : {2u, 4u, 8u}) {
        QueryOptions options = ParallelOptions(dop);
        options.batch_capacity = capacity;
        const std::string label = std::string(sql) + " dop=" +
                                  std::to_string(dop) +
                                  " capacity=" + std::to_string(capacity);
        auto plan = db_.PlanQuery(sql, options);
        ASSERT_TRUE(plan.ok()) << label << ": " << plan.status().ToString();
        auto roots = exec::ParallelRegionRoots(*plan);
        ASSERT_FALSE(roots.empty()) << label << ": no parallel region";
        for (const exec::PhysicalPlan* root : roots) {
          EXPECT_NE(root->kind, exec::PhysOpKind::kHashAggregate) << label;
        }
        auto result = db_.Query(sql, options);
        ASSERT_TRUE(result.ok()) << label << ": "
                                 << result.status().ToString();
        testing::ExpectSameRows(result->rows, reference->rows, label);
      }
    }
  }
}

// ExecuteAll's pooled result build: at dop > 1 the drained batches are
// kept and their rows moved into a presized result by up to dop tasks over
// contiguous batch ranges. The Sort above the gather emits more than ten
// full batches at capacity 1024 (and about 1600 at capacity 7), so every
// task gets a range. Its ORDER BY result must equal the dop-1 batch result
// and the naive oracle row by row, in order; the unordered projection
// under it must match as a multiset; an empty and a one-row result come
// out as at dop 1; and a row budget that trips mid-drain fails with the
// same StatusCode as at dop 1.
TEST_F(ParallelExecTest, PooledResultBuildKeepsDrainOrder) {
  constexpr int kRows = 12000;
  ASSERT_TRUE(db_.Execute("CREATE TABLE Wide (id INT PRIMARY KEY, g INT, "
                          "v DOUBLE, s STRING)")
                  .ok());
  std::vector<Row> data;
  for (int i = 0; i < kRows; ++i) {
    data.push_back({Value::Int(i), Value::Int(i % 97),
                    Value::Double((i * 7919) % 1000),
                    Value::String("s" + std::to_string(i))});
  }
  ASSERT_TRUE(db_.BulkLoad("Wide", std::move(data)).ok());
  ASSERT_TRUE(db_.AnalyzeAll().ok());

  const std::string kOrdered =
      "SELECT id, v, s FROM Wide WHERE g < 90 ORDER BY v DESC, id";
  const std::string kUnordered = "SELECT id, v, s FROM Wide WHERE g < 90";
  const std::string kEmpty = "SELECT id, s FROM Wide WHERE g < 0";
  const std::string kOneRow = "SELECT id, s FROM Wide WHERE id * 2 = 10";
  auto expect_in_order = [](const std::vector<Row>& got,
                            const std::vector<Row>& want,
                            const std::string& label) {
    ASSERT_EQ(got.size(), want.size()) << label;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(RowEq()(got[i], want[i]))
          << label << " row " << i << ": got " << RowToString(got[i])
          << ", want " << RowToString(want[i]);
    }
  };
  QueryOptions naive;
  naive.naive_execution = true;
  auto oracle = db_.Query(kOrdered, naive);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_GT(oracle->rows.size(), 10 * exec::kDefaultBatchCapacity);

  for (size_t capacity : {exec::kDefaultBatchCapacity, size_t{7}}) {
    QueryOptions serial = ParallelOptions(1);
    serial.batch_capacity = capacity;
    const std::string cap = " capacity=" + std::to_string(capacity);
    auto ordered_ref = db_.Query(kOrdered, serial);
    auto unordered_ref = db_.Query(kUnordered, serial);
    ASSERT_TRUE(ordered_ref.ok()) << ordered_ref.status().ToString();
    ASSERT_TRUE(unordered_ref.ok()) << unordered_ref.status().ToString();
    expect_in_order(ordered_ref->rows, oracle->rows, "dop=1" + cap);
    QueryOptions serial_limited = serial;
    serial_limited.governor.max_rows = kRows / 2;
    auto tripped_ref = db_.Query(kUnordered, serial_limited);
    ASSERT_FALSE(tripped_ref.ok()) << "dop=1" << cap;
    EXPECT_EQ(tripped_ref.status().code(), StatusCode::kResourceExhausted)
        << tripped_ref.status().ToString();

    for (size_t dop : {2u, 4u, 8u}) {
      QueryOptions options = ParallelOptions(dop);
      options.batch_capacity = capacity;
      const std::string label = "dop=" + std::to_string(dop) + cap;
      for (const std::string& sql :
           {kOrdered, kUnordered, kEmpty, kOneRow}) {
        auto plan = db_.PlanQuery(sql, options);
        ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
        EXPECT_FALSE(exec::ParallelRegionRoots(*plan).empty())
            << label << " " << sql << ": no parallel region";
      }
      auto ordered = db_.Query(kOrdered, options);
      ASSERT_TRUE(ordered.ok()) << label << ": "
                                << ordered.status().ToString();
      expect_in_order(ordered->rows, ordered_ref->rows, label + " vs dop=1");
      expect_in_order(ordered->rows, oracle->rows, label + " vs naive");

      auto unordered = db_.Query(kUnordered, options);
      ASSERT_TRUE(unordered.ok()) << label << ": "
                                  << unordered.status().ToString();
      testing::ExpectSameRows(unordered->rows, unordered_ref->rows,
                              label + " unordered");

      auto empty = db_.Query(kEmpty, options);
      ASSERT_TRUE(empty.ok()) << label << ": " << empty.status().ToString();
      EXPECT_TRUE(empty->rows.empty()) << label;
      auto one = db_.Query(kOneRow, options);
      ASSERT_TRUE(one.ok()) << label << ": " << one.status().ToString();
      ASSERT_EQ(one->rows.size(), 1u) << label;
      EXPECT_TRUE(RowEq()(one->rows[0], Row{Value::Int(5),
                                            Value::String("s5")}))
          << label << ": " << RowToString(one->rows[0]);

      QueryOptions limited = options;
      limited.governor.max_rows = kRows / 2;
      auto tripped = db_.Query(kUnordered, limited);
      ASSERT_FALSE(tripped.ok()) << label;
      EXPECT_EQ(tripped.status().code(), tripped_ref.status().code())
          << label << ": " << tripped.status().ToString();
    }
  }
  // The pool serves the next query after the tripped ones.
  auto after = db_.Query(kJoinAggSql, ParallelOptions());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
}

// dop above the pool cap is clamped, dop 1 runs on the calling thread; the
// same Database instance serves every mode interleaved back to back.
TEST_F(ParallelExecTest, ModeInterleavingAndDopClamping) {
  auto reference = db_.Query(kJoinAggSql);
  ASSERT_TRUE(reference.ok());
  for (size_t dop : {1u, 64u}) {  // 64 > ThreadPool::kMaxThreads.
    auto result = db_.Query(kJoinAggSql, ParallelOptions(dop));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    testing::ExpectSameRows(result->rows, reference->rows,
                            "dop=" + std::to_string(dop));
  }
  QueryOptions row;
  row.execution_mode = exec::ExecMode::kRow;
  auto row_result = db_.Query(kJoinAggSql, row);
  ASSERT_TRUE(row_result.ok());
  testing::ExpectSameRows(row_result->rows, reference->rows, "row-after");
}

}  // namespace
}  // namespace qopt
