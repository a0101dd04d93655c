// Column pruning: the optimizer's chosen plan scans only the columns some
// operator above the scan reads. Each case checks the scan widths of the
// plan Database returns (by column name) and that row, batch and parallel
// dop-4 execution of it return the same row multiset as the naive plan,
// which is never pruned and so stays an independent oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "engine/database.h"
#include "tests/testing/db_fixtures.h"

namespace qopt {
namespace {

using Outcome = opt::PlanCacheInfo::Outcome;

/// Scans of `plan` rendered as "alias(col,col,...)", sorted.
void CollectScans(const exec::PhysicalPlan& plan,
                  std::vector<std::string>* out) {
  if (plan.kind == exec::PhysOpKind::kTableScan ||
      plan.kind == exec::PhysOpKind::kIndexScan) {
    std::string s = plan.alias + "(";
    for (size_t i = 0; i < plan.output_cols.size(); ++i) {
      if (i) s += ",";
      s += plan.output_cols[i].name;
    }
    out->push_back(s + ")");
  }
  for (const exec::PhysPtr& c : plan.children) CollectScans(*c, out);
}

std::vector<std::string> Scans(const exec::PhysicalPlan& plan) {
  std::vector<std::string> out;
  CollectScans(plan, &out);
  std::sort(out.begin(), out.end());
  return out;
}

bool HasKind(const exec::PhysicalPlan& plan, exec::PhysOpKind kind) {
  if (plan.kind == kind) return true;
  for (const exec::PhysPtr& c : plan.children) {
    if (HasKind(*c, kind)) return true;
  }
  return false;
}

const char* kAllEmp = "e(e.eid,e.did,e.sal,e.age,e.dept_name)";

class ColumnPruningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::LoadEmpDept(&db_, /*num_emps=*/400, /*num_depts=*/20);
    // `a < X` is X/100-percent selective and indexed: a range literal
    // crosses the index/seq-scan crossover (parametric plan pieces).
    using workload::ColumnSpec;
    std::vector<ColumnSpec> cols = {
        {.name = "pk", .kind = ColumnSpec::Kind::kSequential},
        {.name = "a", .kind = ColumnSpec::Kind::kUniform, .ndv = 10000},
        {.name = "b", .kind = ColumnSpec::Kind::kUniform, .ndv = 10000},
    };
    ASSERT_TRUE(workload::CreateAndLoadTable(&db_, "events", cols,
                                             /*rows=*/20000, /*seed=*/11,
                                             "pk")
                    .ok());
    ASSERT_TRUE(db_.CreateIndex("idx_events_a", "events", "a").ok());
    ASSERT_TRUE(db_.AnalyzeAll().ok());
  }

  std::vector<Row> MustRows(const std::string& sql, QueryOptions options,
                            Outcome* outcome = nullptr) {
    auto r = db_.Query(sql, options);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    if (!r.ok()) return {};
    if (outcome != nullptr) *outcome = r->optimize_info.plan_cache.outcome;
    return std::move(r->rows);
  }

  /// Row, batch and parallel dop-4 results of `sql` under `options` all
  /// equal the naive plan's.
  void ExpectMatchesNaive(const std::string& sql,
                          const QueryOptions& options) {
    QueryOptions naive;
    naive.naive_execution = true;
    naive.execution_mode = exec::ExecMode::kRow;
    std::vector<Row> want = MustRows(sql, naive);
    for (exec::ExecMode mode : {exec::ExecMode::kRow, exec::ExecMode::kBatch,
                                exec::ExecMode::kParallel}) {
      QueryOptions o = options;
      o.execution_mode = mode;
      o.dop = 4;
      o.morsel_rows = 64;
      const std::string label = sql + " mode " +
                                std::to_string(static_cast<int>(mode));
      testing::ExpectSameRows(MustRows(sql, o), want, label);
    }
  }

  /// Plans `sql`, checks its scans against `want_scans`, then checks the
  /// results against naive.
  void Check(const std::string& sql, std::vector<std::string> want_scans,
             const QueryOptions& options = {}) {
    SCOPED_TRACE(sql);
    auto plan = db_.PlanQuery(sql, options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    std::sort(want_scans.begin(), want_scans.end());
    EXPECT_EQ(Scans(**plan), want_scans) << (*plan)->ToString();
    ExpectMatchesNaive(sql, options);
  }

  Database db_;
};

TEST_F(ColumnPruningTest, ProjectionKeepsExactlyTheReferencedColumns) {
  Check("SELECT e.eid, e.sal + e.age FROM Emp e", {"e(e.eid,e.sal,e.age)"});
  // A residual that is not a column-constant comparison still reads its
  // columns; the constant comparison on age does not.
  Check("SELECT e.eid FROM Emp e WHERE e.sal > e.age * 1000 AND e.age < 40",
        {"e(e.eid,e.sal,e.age)"});
  // Index nested loops off: a hash join builds the pruned inner.
  QueryOptions no_inl;
  no_inl.optimizer.selinger.enable_index_nl_join = false;
  Check("SELECT d.name, e.sal FROM Emp e, Dept d WHERE e.did = d.did",
        {"d(d.did,d.name)", "e(e.did,e.sal)"}, no_inl);
}

TEST_F(ColumnPruningTest, CountWithPrefilterScansZeroColumns) {
  Check("SELECT COUNT(*) FROM Emp e WHERE e.sal < 50000", {"e()"});
  Check("SELECT COUNT(*) FROM Emp e WHERE e.sal < 50000 AND e.age >= 30",
        {"e()"});
}

TEST_F(ColumnPruningTest, SelectStarKeepsEveryColumn) {
  Check("SELECT * FROM Emp e WHERE e.age < 30", {kAllEmp});
}

TEST_F(ColumnPruningTest, SetOperationsAndDistinctKeepTheirWidth) {
  Check(
      "SELECT * FROM Emp e WHERE e.age < 25 "
      "UNION ALL SELECT * FROM Emp e WHERE e.age > 55",
      {kAllEmp, kAllEmp});
  Check("SELECT * FROM Emp e EXCEPT SELECT * FROM Emp e WHERE e.age < 40",
        {kAllEmp, kAllEmp});
  Check(
      "SELECT * FROM Emp e WHERE e.sal > 40000 "
      "INTERSECT SELECT * FROM Emp e WHERE e.age < 40",
      {kAllEmp, kAllEmp});
  Check("SELECT DISTINCT * FROM Emp e WHERE e.age < 30", {kAllEmp});
}

TEST_F(ColumnPruningTest, PositionalConsumersOverBareScans) {
  // The binder always projects below a set operation; hand-build bare
  // scans to pin the positional rule itself. The prefilter column age is
  // read by the consumer, so it stays.
  const TableDef* emp = db_.catalog().GetTable("Emp");
  ASSERT_NE(emp, nullptr);
  auto scan = [&](int rel, int64_t max_age) {
    std::vector<plan::OutputCol> cols;
    for (size_t i = 0; i < emp->columns.size(); ++i) {
      cols.push_back({ColumnId{rel, static_cast<int>(i)},
                      emp->columns[i].type, "e." + emp->columns[i].name});
    }
    plan::BExpr age_below = plan::MakeBinary(
        ast::BinaryOp::kLt,
        plan::MakeColumn(ColumnId{rel, 3}, TypeId::kInt64, "e.age"),
        plan::MakeLiteral(Value::Int(max_age)));
    return exec::MakeTableScan(emp->id, rel, "e", cols, age_below);
  };
  const std::vector<plan::OutputCol> cols = scan(0, 0)->output_cols;
  std::vector<exec::PhysPtr> plans = {
      exec::MakeUnionAllExec({scan(0, 30), scan(1, 25)}, cols),
      exec::MakeSetOpExec(exec::PhysOpKind::kHashExcept, scan(0, 30),
                          scan(1, 25), cols),
      exec::MakeSetOpExec(exec::PhysOpKind::kHashIntersect, scan(0, 30),
                          scan(1, 25), cols),
      exec::MakeDistinctExec(scan(0, 30)),
  };
  for (const exec::PhysPtr& plan : plans) {
    SCOPED_TRACE(plan->ToString());
    exec::PhysPtr pruned = exec::PruneColumns(plan);
    for (const std::string& s : Scans(*pruned)) EXPECT_EQ(s, kAllEmp);
    exec::ExecContext ctx;
    ctx.storage = &db_.storage();
    ctx.catalog = &db_.catalog();
    auto want = exec::ExecuteAll(plan, &ctx);
    auto got = exec::ExecuteAll(pruned, &ctx);
    ASSERT_TRUE(want.ok() && got.ok());
    EXPECT_FALSE(want->empty());
    testing::ExpectSameRows(*got, *want);
  }
}

TEST_F(ColumnPruningTest, CorrelatedSubqueriesUnderApply) {
  // Rewrites off: the subqueries survive as tuple-iteration Apply. The
  // outer scan keeps the correlated column; the inner keeps what its
  // predicate and aggregate read.
  QueryOptions no_rewrites;
  no_rewrites.optimizer.enable_rewrites = false;
  const std::string exists =
      "SELECT e.eid FROM Emp e WHERE EXISTS (SELECT d.did FROM Dept d "
      "WHERE d.did = e.did AND d.budget > 100000)";
  auto plan = db_.PlanQuery(exists, no_rewrites);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(HasKind(**plan, exec::PhysOpKind::kApply)) << (*plan)->ToString();
  Check(exists, {"d(d.did)", "e(e.eid,e.did)"}, no_rewrites);

  const std::string scalar =
      "SELECT e.eid FROM Emp e WHERE e.age < 50 AND "
      "e.sal > (SELECT MAX(d.budget) FROM Dept d WHERE d.did = e.did)";
  plan = db_.PlanQuery(scalar, no_rewrites);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(HasKind(**plan, exec::PhysOpKind::kApply)) << (*plan)->ToString();
  // Without rewrites `e.age < 50` stays in a Filter above the Apply, which
  // reads age from the scan's output.
  Check(scalar, {"d(d.did,d.budget)", "e(e.eid,e.did,e.sal,e.age)"},
        no_rewrites);
}

TEST_F(ColumnPruningTest, IndexNestedLoopsInnerIsPruned) {
  // Only index nested-loops joins are enabled; Emp's did index makes Emp
  // the inner. The inner is pruned like every other scan: the join checks
  // the inner scan's predicate (e.sal > 70000) against the storage row, so
  // the unemitted sal column still filters.
  QueryOptions inl;
  inl.optimizer.selinger.enable_nl_join = false;
  inl.optimizer.selinger.enable_merge_join = false;
  inl.optimizer.selinger.enable_hash_join = false;
  const std::string sql =
      "SELECT e.eid, d.name FROM Emp e, Dept d "
      "WHERE e.did = d.did AND e.sal > 70000 AND d.budget < 150000";
  auto plan = db_.PlanQuery(sql, inl);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(HasKind(**plan, exec::PhysOpKind::kIndexNestedLoopJoin))
      << (*plan)->ToString();
  Check(sql, {"d(d.did,d.name)", "e(e.eid,e.did)"}, inl);
}

TEST_F(ColumnPruningTest, IntColumnAgainstDoubleConstantPrefilter) {
  Check("SELECT e.eid FROM Emp e WHERE e.age < 30.5", {"e(e.eid)"});
  Check("SELECT e.eid FROM Emp e WHERE e.age = 31.0", {"e(e.eid)"});
  Check("SELECT COUNT(*) FROM Emp e WHERE e.sal >= 60000", {"e()"});
}

TEST_F(ColumnPruningTest, ParametricPlanReusedWithTwoRangeLiterals) {
  auto sql_for = [](int v) {
    return "SELECT ev.pk, ev.b FROM events ev WHERE ev.a < " +
           std::to_string(v);
  };
  // The cache key includes the execution mode. In each mode, two misses
  // with different literals trigger the parametric sweep; from then on
  // the cached pieces are rebound to each incoming literal.
  QueryOptions naive;
  naive.naive_execution = true;
  for (exec::ExecMode mode : {exec::ExecMode::kRow, exec::ExecMode::kBatch,
                              exec::ExecMode::kParallel}) {
    QueryOptions o;
    o.execution_mode = mode;
    o.dop = 4;
    o.morsel_rows = 64;
    MustRows(sql_for(10), o);
    MustRows(sql_for(12), o);
    std::vector<int> intervals;
    for (int v : {8, 9000}) {
      SCOPED_TRACE(sql_for(v) + " mode " +
                   std::to_string(static_cast<int>(mode)));
      opt::OptimizeInfo info;
      auto plan = db_.PlanQuery(sql_for(v), o, &info);
      ASSERT_TRUE(plan.ok());
      ASSERT_EQ(info.plan_cache.outcome, Outcome::kHitParametric);
      intervals.push_back(info.plan_cache.parametric_interval);
      EXPECT_EQ(Scans(**plan), std::vector<std::string>{"ev(ev.pk,ev.b)"})
          << (*plan)->ToString();
      Outcome outcome = Outcome::kBypass;
      testing::ExpectSameRows(MustRows(sql_for(v), o, &outcome),
                              MustRows(sql_for(v), naive));
      EXPECT_EQ(outcome, Outcome::kHitParametric);
    }
    // The two literals sit on opposite sides of the index/seq-scan
    // crossover: both plan pieces were pruned.
    EXPECT_NE(intervals[0], intervals[1]);
  }
}

TEST_F(ColumnPruningTest, NaivePlanIsNotPruned) {
  QueryOptions naive;
  naive.naive_execution = true;
  auto plan = db_.PlanQuery("SELECT COUNT(*) FROM Emp e WHERE e.age < 30",
                            naive);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(Scans(**plan), std::vector<std::string>{kAllEmp});
}

}  // namespace
}  // namespace qopt
