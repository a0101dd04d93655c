// Fault-injection coverage: every named fault point in kFaultPoints is
// armed and driven through a real query, asserting the injected failure
// surfaces as a clean non-OK Status (never an abort, never a partially
// populated QueryResult) and that the engine fully recovers once the fault
// is disarmed. Run under ASan/UBSan in CI to catch leaks and UB on the
// error paths.
#include "testing/fault_injection.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "engine/database.h"
#include "engine/session.h"
#include "testing/db_fixtures.h"

namespace qopt::testing {
namespace {

/// How to provoke one fault point: a query plus the options that guarantee
/// the instrumented code path actually runs.
struct Scenario {
  std::string sql;
  QueryOptions options;
  /// Issue through a Session (serving-layer fault points live before the
  /// raw Database::Query path).
  bool via_session = false;
  /// The instrumented subsystem is advisory (cardinality feedback): the
  /// injected fault must be swallowed — the query still succeeds with
  /// correct rows — while the point itself must have fired.
  bool advisory = false;
};

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { LoadEmpDept(&db_, 300, 15); }
  void TearDown() override { FaultRegistry::Instance().DisarmAll(); }

  std::map<std::string, Scenario> Scenarios() {
    std::map<std::string, Scenario> s;
    {
      Scenario sc;
      sc.sql = "SELECT e.eid FROM Emp e";
      sc.options.execution_mode = exec::ExecMode::kRow;
      s["storage.scan.open"] = sc;
    }
    {
      Scenario sc;
      sc.sql = "SELECT e.eid FROM Emp e WHERE e.did = 3";
      // Remove seq-scan paths so the planner must take the did index.
      sc.options.optimizer.selinger.enable_seq_scan = false;
      sc.options.execution_mode = exec::ExecMode::kRow;
      s["storage.index.lookup"] = sc;
    }
    {
      Scenario sc;
      sc.sql = "SELECT e.eid, d.name FROM Emp e, Dept d WHERE e.did = d.did";
      // Optimizer-phase fault: bypass the plan cache so the repeat query
      // re-optimizes instead of reusing the baseline's cached plan.
      sc.options.use_plan_cache = false;
      s["optimizer.stats.load"] = sc;
    }
    {
      Scenario sc;
      sc.sql = "SELECT e.eid, d.name FROM Emp e, Dept d WHERE e.did = d.did";
      sc.options.optimizer.enumerator = opt::EnumeratorKind::kCascades;
      sc.options.use_plan_cache = false;  // Optimizer-phase fault (see above).
      s["cascades.memo.insert"] = sc;
    }
    {
      Scenario sc;
      sc.sql = "SELECT e.eid FROM Emp e WHERE e.sal > 0";
      sc.options.execution_mode = exec::ExecMode::kBatch;
      s["exec.batch.alloc"] = sc;
    }
    {
      Scenario sc;
      sc.sql = "SELECT e.eid FROM Emp e";
      sc.via_session = true;  // The point guards Session::Query admission.
      s["session.admit"] = sc;
    }
    {
      Scenario sc;
      sc.sql = "SELECT e.eid FROM Emp e";
      s["catalog.snapshot"] = sc;
    }
    {
      Scenario sc;
      sc.sql = "SELECT e.eid, d.name FROM Emp e, Dept d WHERE e.did = d.did";
      sc.options.analyze = true;  // Harvest runs only on instrumented queries.
      sc.advisory = true;         // Feedback loss must never fail the query.
      s["feedback.store.insert"] = sc;
    }
    {
      // A sort over all 300 Emp rows under a 1 KiB budget must spill, so
      // run generation opens (and writes) spill files.
      Scenario sc;
      sc.sql = "SELECT e.eid, e.dept_name FROM Emp e ORDER BY e.dept_name, e.eid";
      sc.options.spill.operator_budget_bytes = 1024;
      s["storage.spill.open"] = sc;
      s["storage.spill.write"] = sc;
    }
    return s;
  }

  Result<QueryResult> Run(const Scenario& sc) {
    if (sc.via_session) {
      Session session = db_.OpenSession();
      return session.Query(sc.sql, sc.options);
    }
    return db_.Query(sc.sql, sc.options);
  }

  Database db_;
};

TEST_F(FaultInjectionTest, EveryFaultPointFailsCleanlyAndRecovers) {
  std::map<std::string, Scenario> scenarios = Scenarios();
  for (const char* point : kFaultPoints) {
    auto it = scenarios.find(point);
    ASSERT_NE(it, scenarios.end())
        << "fault point '" << point << "' has no test scenario; add one";
    const Scenario& sc = it->second;

    // Baseline: the scenario succeeds with no fault armed.
    auto baseline = Run(sc);
    ASSERT_TRUE(baseline.ok())
        << point << " baseline: " << baseline.status().ToString();

    // Armed: the query fails with the injected status, fully formed —
    // except for advisory points, where the fault is swallowed and the
    // query must succeed with correct rows regardless.
    FaultRegistry::Instance().Arm(point, FaultMode::kAlways, 1,
                                  StatusCode::kInternal, "injected fault");
    auto injected = Run(sc);
    if (sc.advisory) {
      ASSERT_TRUE(injected.ok())
          << point << ": advisory fault failed the query: "
          << injected.status().ToString();
      ExpectSameRows(injected->rows, baseline->rows, point);
    } else {
      ASSERT_FALSE(injected.ok()) << point << ": fault did not surface";
      EXPECT_EQ(injected.status().code(), StatusCode::kInternal) << point;
      EXPECT_NE(injected.status().message().find(point), std::string::npos)
          << point << ": message lacks fault-point tag: "
          << injected.status().ToString();
    }
    EXPECT_GE(FaultRegistry::Instance().FireCount(point), 1) << point;

    // Disarmed: the engine recovers completely — same results as baseline.
    FaultRegistry::Instance().DisarmAll();
    auto recovered = Run(sc);
    ASSERT_TRUE(recovered.ok())
        << point << " recovery: " << recovered.status().ToString();
    ExpectSameRows(recovered->rows, baseline->rows, point);
  }
}

TEST_F(FaultInjectionTest, BatchPointsAlsoFireInBatchMode) {
  // storage points instrumented on both paths: force the vectorized one.
  for (const char* point : {"storage.scan.open", "exec.batch.alloc"}) {
    QueryOptions options;
    options.execution_mode = exec::ExecMode::kBatch;
    FaultRegistry::Instance().Arm(point, FaultMode::kAlways);
    auto result = db_.Query("SELECT e.eid FROM Emp e WHERE e.age > 0",
                            options);
    ASSERT_FALSE(result.ok()) << point;
    FaultRegistry::Instance().DisarmAll();
  }
}

TEST_F(FaultInjectionTest, FailOnceFiresExactlyOnce) {
  FaultRegistry::Instance().Arm("storage.scan.open", FaultMode::kOnce);
  auto first = db_.Query("SELECT e.eid FROM Emp e");
  ASSERT_FALSE(first.ok());
  // The point stays armed but has already fired; later queries pass.
  auto second = db_.Query("SELECT e.eid FROM Emp e");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->rows.size(), 300u);
  EXPECT_EQ(FaultRegistry::Instance().FireCount("storage.scan.open"), 1);
}

TEST_F(FaultInjectionTest, FailNthSkipsEarlierEvaluations) {
  // Each single-table query opens exactly one scan: evaluation 1 passes,
  // evaluation 2 fires.
  FaultRegistry::Instance().Arm("storage.scan.open", FaultMode::kNth, 2,
                                StatusCode::kNotFound, "disk detached");
  auto first = db_.Query("SELECT e.eid FROM Emp e");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = db_.Query("SELECT e.eid FROM Emp e");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(FaultRegistry::Instance().EvalCount("storage.scan.open"), 2);
  EXPECT_EQ(FaultRegistry::Instance().FireCount("storage.scan.open"), 1);
}

TEST_F(FaultInjectionTest, SpillFaultsLeaveNoOrphanedFiles) {
  // A mid-query spill I/O failure must unwind the whole operator: the
  // query fails with the injected status and every spill file written so
  // far is removed. A retry with the fault cleared succeeds from scratch.
  ScopedSpillDir dir;
  ASSERT_TRUE(dir.ok());
  QueryOptions options;
  options.spill.operator_budget_bytes = 1024;
  options.spill.dir = dir.path();
  const std::string sql =
      "SELECT e.eid, e.dept_name FROM Emp e ORDER BY e.dept_name, e.eid";
  auto baseline = db_.Query(sql, options);
  ASSERT_TRUE(baseline.ok());
  ASSERT_GT(baseline->exec_stats.spill_runs, 0u);

  for (const char* point : {"storage.spill.open", "storage.spill.write"}) {
    // kNth so some spill files are created successfully before the fault
    // fires — the interesting cleanup case.
    FaultRegistry::Instance().Arm(point, FaultMode::kNth, 3,
                                  StatusCode::kInternal, "disk full");
    auto injected = db_.Query(sql, options);
    ASSERT_FALSE(injected.ok()) << point;
    EXPECT_EQ(dir.CountFiles(), 0u)
        << point << ": orphaned spill files left behind";
    FaultRegistry::Instance().DisarmAll();
    auto retried = db_.Query(sql, options);
    ASSERT_TRUE(retried.ok()) << point;
    ExpectSameRows(retried->rows, baseline->rows, point);
  }
}

TEST_F(FaultInjectionTest, SpilledJoinFaultsFailCleanInBatchAndParallel) {
  // The batch hash join spills at run time, and in parallel mode only after
  // the region falls back to the serial batch tree: a spill I/O fault in
  // either must surface as the injected Status and leave no file behind.
  ScopedSpillDir dir;
  ASSERT_TRUE(dir.ok());
  const std::string sql =
      "SELECT e.eid, d.name FROM Emp e, Dept d WHERE e.did = d.did";
  for (exec::ExecMode mode :
       {exec::ExecMode::kBatch, exec::ExecMode::kParallel}) {
    QueryOptions options;
    options.execution_mode = mode;
    options.dop = 4;
    options.spill.operator_budget_bytes = 256;
    options.spill.dir = dir.path();
    // The join must be a hash join for its build to spill.
    options.optimizer.selinger.enable_index_nl_join = false;
    options.optimizer.selinger.enable_merge_join = false;
    options.optimizer.selinger.enable_nl_join = false;
    options.use_plan_cache = false;
    auto baseline = db_.Query(sql, options);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    ASSERT_GT(baseline->exec_stats.spill_runs, 0u);
    for (const char* point : {"storage.spill.open", "storage.spill.write"}) {
      const std::string label =
          std::string(point) + " mode=" + std::to_string(static_cast<int>(mode));
      FaultRegistry::Instance().Arm(point, FaultMode::kNth, 3,
                                    StatusCode::kInternal, "disk full");
      auto injected = db_.Query(sql, options);
      ASSERT_FALSE(injected.ok()) << label;
      EXPECT_EQ(injected.status().code(), StatusCode::kInternal) << label;
      EXPECT_NE(injected.status().message().find("disk full"),
                std::string::npos)
          << label << ": " << injected.status().ToString();
      EXPECT_EQ(dir.CountFiles(), 0u)
          << label << ": orphaned spill files left behind";
      FaultRegistry::Instance().DisarmAll();
      auto retried = db_.Query(sql, options);
      ASSERT_TRUE(retried.ok()) << label;
      ExpectSameRows(retried->rows, baseline->rows, label);
    }
  }
}

TEST_F(FaultInjectionTest, InjectedCodePropagatesVerbatim) {
  FaultRegistry::Instance().Arm("optimizer.stats.load", FaultMode::kAlways, 1,
                                StatusCode::kNotFound,
                                "stats block corrupted");
  auto result = db_.Query(
      "SELECT e.eid, d.name FROM Emp e, Dept d WHERE e.did = d.did");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("stats block corrupted"),
            std::string::npos);
}

TEST_F(FaultInjectionTest, FeedbackInsertFaultIsAdvisoryAndRecovers) {
  QueryOptions options;
  options.analyze = true;  // Instrumented execution triggers the harvest.
  const std::string sql =
      "SELECT e.eid, d.name FROM Emp e, Dept d WHERE e.did = d.did";

  // Armed: the harvest insert fails, the query does not, and nothing is
  // recorded in the store.
  FaultRegistry::Instance().Arm("feedback.store.insert", FaultMode::kAlways, 1,
                                StatusCode::kUnavailable, "store wedged");
  auto armed = db_.Query(sql, options);
  ASSERT_TRUE(armed.ok()) << armed.status().ToString();
  EXPECT_GE(FaultRegistry::Instance().FireCount("feedback.store.insert"), 1);
  EXPECT_EQ(db_.feedback_store().stats().inserts, 0u);
  EXPECT_EQ(db_.feedback_store().stats().entries, 0u);

  // Disarmed: the next instrumented query harvests normally — the store
  // comes back without any residue from the failed insert.
  FaultRegistry::Instance().DisarmAll();
  auto recovered = db_.Query(sql, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectSameRows(recovered->rows, armed->rows, "feedback.store.insert");
  EXPECT_GT(db_.feedback_store().stats().inserts, 0u);
  EXPECT_GT(db_.feedback_store().stats().entries, 0u);
}

TEST_F(FaultInjectionTest, DisarmedRegistryIsInert) {
  EXPECT_FALSE(FaultRegistry::AnyArmed());
  auto result = db_.Query("SELECT COUNT(*) FROM Emp e");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsInt(), 300);
}

}  // namespace
}  // namespace qopt::testing
