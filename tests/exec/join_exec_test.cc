#include "exec_test_util.h"

namespace qopt::exec {
namespace {

using plan::JoinType;

// All equi-join algorithms must produce identical results; parameterize
// over the operator kind. Each case runs in row mode and in batch mode at
// capacities 2 and 1024 (RunAtEveryCapacity), which must agree on rows and
// ExecStats.
enum class JoinAlg { kNL, kHash, kMerge, kIndexNL };

class JoinAlgTest : public ExecTestBase,
                    public ::testing::WithParamInterface<JoinAlg> {
 protected:
  // emp ⋈ dept on emp.dept = dept.id with the parameterized algorithm.
  PhysPtr BuildJoin(JoinType type) {
    ColumnId lk{0, 1}, rk{1, 0};
    switch (GetParam()) {
      case JoinAlg::kNL:
        return MakeNestedLoopJoin(type, EmpScan(), DeptScan(),
                                  Eq(Col(0, 1), Col(1, 0)));
      case JoinAlg::kHash:
        return MakeHashJoin(type, EmpScan(), DeptScan(), lk, rk, nullptr);
      case JoinAlg::kMerge:
        return MakeMergeJoin(type, MakeSortExec(EmpScan(), {{lk, true}}),
                             MakeSortExec(DeptScan(), {{rk, true}}), lk, rk,
                             nullptr);
      case JoinAlg::kIndexNL: {
        PhysPtr inner = MakeIndexScan(1, 1, "dept", DeptCols(),
                                      /*index_id=*/1, {}, {}, nullptr);
        return MakeIndexNLJoin(type, EmpScan(), inner, lk, rk, nullptr);
      }
    }
    return nullptr;
  }
};

TEST_P(JoinAlgTest, InnerJoin) {
  std::vector<Row> rows =
      RunAtEveryCapacity(BuildJoin(JoinType::kInner)).rows;
  // emps 1,2 match dept 10; emp 3 matches dept 20; emp 4 (dept 30) and
  // emp 5 (NULL) have no match.
  ASSERT_EQ(rows.size(), 3u);
  for (const Row& r : rows) {
    EXPECT_EQ(r.size(), 5u);
    EXPECT_EQ(r[1].AsInt(), r[3].AsInt());
  }
}

TEST_P(JoinAlgTest, LeftOuterJoinPadsUnmatched) {
  std::vector<Row> rows =
      RunAtEveryCapacity(BuildJoin(JoinType::kLeftOuter)).rows;
  ASSERT_EQ(rows.size(), 5u);
  int padded = 0;
  for (const Row& r : rows) {
    if (r[3].is_null()) {
      ++padded;
      EXPECT_TRUE(r[4].is_null());
    }
  }
  EXPECT_EQ(padded, 2);  // emp 4 and emp 5
}

TEST_P(JoinAlgTest, SemiJoin) {
  std::vector<Row> rows =
      RunAtEveryCapacity(BuildJoin(JoinType::kSemi)).rows;
  ASSERT_EQ(rows.size(), 3u);
  for (const Row& r : rows) EXPECT_EQ(r.size(), 3u);  // left columns only
}

TEST_P(JoinAlgTest, AntiJoin) {
  std::vector<Row> rows =
      RunAtEveryCapacity(BuildJoin(JoinType::kAnti)).rows;
  ASSERT_EQ(rows.size(), 2u);  // emp 4 (dept 30), emp 5 (NULL dept)
}

TEST_P(JoinAlgTest, ResidualDecidesMatches) {
  // emp ⋈ dept on emp.dept = dept.id with the join residual emp.sal > 100,
  // over a dept input that emits only dept.id and drops 'hr' by a filter on
  // the (unemitted) name column — for index nested loops, the inner
  // IndexScan's own predicate, checked against the storage row.
  ColumnId lk{0, 1}, rk{1, 0};
  const std::vector<plan::OutputCol> dept_id = {DeptCols()[0]};
  auto not_hr = [] {
    return plan::MakeBinary(ast::BinaryOp::kNe, Col(1, 1, TypeId::kString),
                            plan::MakeLiteral(Value::String("hr")));
  };
  auto residual = [] {
    return plan::MakeBinary(ast::BinaryOp::kGt, Col(0, 2), Lit(100));
  };
  auto build = [&](JoinType type) -> PhysPtr {
    PhysPtr dept = MakeTableScan(1, 1, "dept", dept_id, not_hr());
    switch (GetParam()) {
      case JoinAlg::kNL:
        return MakeNestedLoopJoin(
            type, EmpScan(), dept,
            plan::MakeBinary(ast::BinaryOp::kAnd, Eq(Col(0, 1), Col(1, 0)),
                             residual()));
      case JoinAlg::kHash:
        return MakeHashJoin(type, EmpScan(), dept, lk, rk, residual());
      case JoinAlg::kMerge:
        return MakeMergeJoin(type, MakeSortExec(EmpScan(), {{lk, true}}),
                             MakeSortExec(dept, {{rk, true}}), lk, rk,
                             residual());
      case JoinAlg::kIndexNL: {
        PhysPtr inner = MakeIndexScan(1, 1, "dept", dept_id, /*index_id=*/1,
                                      {}, {}, not_hr());
        return MakeIndexNLJoin(type, EmpScan(), inner, lk, rk, residual());
      }
    }
    return nullptr;
  };
  for (bool compiled : {true, false}) {
    SCOPED_TRACE(compiled ? "compiled" : "interpreted");
    compile_expressions_ = compiled;
    // Only emp 2 (dept 10, sal 200) survives: emp 1 matches dept 10 but
    // fails the residual, emp 3's dept 20 is 'hr'.
    std::vector<Row> inner = RunAtEveryCapacity(build(JoinType::kInner)).rows;
    ASSERT_EQ(inner.size(), 1u);
    EXPECT_EQ(inner[0].size(), 4u);
    EXPECT_EQ(inner[0][0].AsInt(), 2);
    EXPECT_EQ(inner[0][3].AsInt(), 10);
    // Left outer: emp 1 is padded by the residual alone.
    std::vector<Row> outer =
        RunAtEveryCapacity(build(JoinType::kLeftOuter)).rows;
    ASSERT_EQ(outer.size(), 5u);
    for (const Row& r : outer) {
      EXPECT_EQ(r[3].is_null(), r[0].AsInt() != 2) << RowToString(r);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, JoinAlgTest,
                         ::testing::Values(JoinAlg::kNL, JoinAlg::kHash,
                                           JoinAlg::kMerge,
                                           JoinAlg::kIndexNL),
                         [](const auto& info) {
                           switch (info.param) {
                             case JoinAlg::kNL: return "NestedLoop";
                             case JoinAlg::kHash: return "Hash";
                             case JoinAlg::kMerge: return "Merge";
                             case JoinAlg::kIndexNL: return "IndexNL";
                           }
                           return "?";
                         });

class JoinEdgeCaseTest : public ExecTestBase {};

TEST_F(JoinEdgeCaseTest, CrossJoin) {
  PhysPtr cross =
      MakeNestedLoopJoin(JoinType::kCross, EmpScan(), DeptScan(), nullptr);
  EXPECT_EQ(Run(cross).size(), 15u);
}

TEST_F(JoinEdgeCaseTest, CrossJoinOutputStraddlesBatches) {
  // Each emp row has 3 dept matches, so at capacity 2 one left row's
  // output straddles two batches: the join carries the pending rows over.
  PhysPtr cross =
      MakeNestedLoopJoin(JoinType::kCross, EmpScan(), DeptScan(), nullptr);
  EXPECT_EQ(RunAtEveryCapacity(cross).rows.size(), 15u);
  ExecContext ctx;
  ctx.storage = storage_.get();
  ctx.catalog = &catalog_;
  ctx.mode = ExecMode::kBatch;
  ctx.batch_capacity = 2;
  std::unique_ptr<Executor> exec = BuildExecutor(cross, &ctx);
  exec->Init();
  std::vector<size_t> sizes;
  RowBatch b;
  while (exec->NextBatch(&b)) sizes.push_back(b.num_rows());
  EXPECT_EQ(sizes, (std::vector<size_t>{2, 2, 2, 2, 2, 2, 2, 1}));
  EXPECT_EQ(ctx.stats.rows_joined, 15u);
}

TEST_F(JoinEdgeCaseTest, JoinWithResidualPredicate) {
  // emp.dept = dept.id AND emp.sal > 100.
  PhysPtr hj = MakeHashJoin(
      JoinType::kInner, EmpScan(), DeptScan(), {0, 1}, {1, 0},
      plan::MakeBinary(ast::BinaryOp::kGt, Col(0, 2), Lit(100)));
  EXPECT_EQ(Run(hj).size(), 2u);
}

TEST_F(JoinEdgeCaseTest, EmptyInputs) {
  PhysPtr empty_left = EmpScan(Eq(Col(0, 0), Lit(-1)));
  PhysPtr hj = MakeHashJoin(JoinType::kInner, empty_left, DeptScan(), {0, 1},
                            {1, 0}, nullptr);
  EXPECT_TRUE(Run(hj).empty());
}

TEST_F(JoinEdgeCaseTest, MergeJoinDuplicateKeys) {
  // Join emp to itself on dept: dept 10 has 2 rows -> 4 pairs; dept 20 and
  // 30 one each -> total 6; NULL never matches.
  ColumnId lk{0, 1};
  std::vector<plan::OutputCol> right_cols = {
      {{2, 0}, TypeId::kInt64, "e2.id"},
      {{2, 1}, TypeId::kInt64, "e2.dept"},
      {{2, 2}, TypeId::kInt64, "e2.sal"}};
  PhysPtr right = MakeTableScan(0, 2, "e2", right_cols, nullptr);
  PhysPtr mj = MakeMergeJoin(JoinType::kInner,
                             MakeSortExec(EmpScan(), {{lk, true}}),
                             MakeSortExec(right, {{{2, 1}, true}}), lk,
                             {2, 1}, nullptr);
  EXPECT_EQ(Run(mj).size(), 6u);
}

// A join whose output dwarfs its inputs must still honour the deadline:
// 1000 probe rows x 20000 build rows on one key is 20M output rows under a
// COUNT(*), with a 20 ms deadline. The join ticks the governor once per
// output batch, whichever method produces it.
class JoinDeadlineTest : public ExecTestBase {
 protected:
  void SetUp() override {
    ExecTestBase::SetUp();
    for (const auto& [name, rows] :
         {std::pair<const char*, int>{"probe", 1000}, {"build", 20000}}) {
      auto id = catalog_.CreateTable(name, {{"k", TypeId::kInt64}}, 0);
      ASSERT_TRUE(id.ok());
      std::vector<Row> data(static_cast<size_t>(rows), Row{Value::Int(1)});
      storage_->GetTable(*id)->AppendUnchecked(std::move(data));
    }
  }

  /// Runs COUNT(*) over probe ⋈ build (`hash` or nested loop) in `mode`,
  /// batch mode at capacity 1024, under a 20 ms deadline.
  Status RunCount(bool hash, ExecMode mode) {
    PhysPtr probe = MakeTableScan(
        2, 2, "probe", {{{2, 0}, TypeId::kInt64, "p.k"}}, nullptr);
    PhysPtr build = MakeTableScan(
        3, 3, "build", {{{3, 0}, TypeId::kInt64, "b.k"}}, nullptr);
    PhysPtr join =
        hash ? MakeHashJoin(JoinType::kInner, probe, build, {2, 0}, {3, 0},
                            nullptr)
             : MakeNestedLoopJoin(JoinType::kInner, probe, build,
                                  Eq(Col(2, 0), Col(3, 0)));
    plan::AggItem count;
    count.func = ast::AggFunc::kCountStar;
    count.output = {9, 0};
    count.type = TypeId::kInt64;
    count.name = "COUNT(*)";
    PhysPtr agg = MakeHashAggregate(join, {}, {count},
                                    {{{9, 0}, TypeId::kInt64, "COUNT(*)"}});
    GovernorOptions options;
    options.deadline_ms = 20;
    ResourceGovernor governor(options);
    ExecContext ctx;
    ctx.storage = storage_.get();
    ctx.catalog = &catalog_;
    ctx.mode = mode;
    ctx.batch_capacity = 1024;
    ctx.governor = &governor;
    return ExecuteAll(agg, &ctx).status();
  }
};

TEST_F(JoinDeadlineTest, LargeJoinOutputIsCancelled) {
  for (bool hash : {true, false}) {
    for (ExecMode mode : {ExecMode::kRow, ExecMode::kBatch}) {
      SCOPED_TRACE(std::string(hash ? "hash" : "nested loop") +
                   (mode == ExecMode::kRow ? ", row mode" : ", batch 1024"));
      EXPECT_EQ(RunCount(hash, mode).code(), StatusCode::kCancelled);
    }
  }
}

// Apply cases run in row mode and in batch mode at capacities 2 and 1024.
class ApplyExecTest : public ExecTestBase {};

TEST_F(ApplyExecTest, ScalarApplyCorrelated) {
  // For each dept row, compute (SELECT MAX(sal) FROM emp WHERE emp.dept =
  // dept.id) via tuple iteration.
  std::vector<plan::AggItem> aggs(1);
  aggs[0].func = ast::AggFunc::kMax;
  aggs[0].arg = Col(0, 2);
  aggs[0].output = {7, 0};
  aggs[0].type = TypeId::kInt64;
  aggs[0].name = "MAX(sal)";
  PhysPtr inner = MakeFilterExec(
      EmpScan(), Eq(Col(0, 1), plan::MakeColumn({1, 0}, TypeId::kInt64,
                                                "dept.id")));
  PhysPtr agg = MakeHashAggregate(inner, {}, aggs,
                                  {{{7, 0}, TypeId::kInt64, "MAX(sal)"}});
  PhysPtr apply =
      MakeApplyExec(plan::ApplyType::kScalar, DeptScan(), agg,
                    plan::MakeLiteral(Value::Bool(true)), {{1, 0}}, {7, 0},
                    TypeId::kInt64);
  std::vector<Row> rows = RunAtEveryCapacity(apply).rows;
  ASSERT_EQ(rows.size(), 3u);
  // dept 10 -> 200, dept 20 -> 300, dept 40 -> NULL (no emp; MAX over
  // empty group of a scalar aggregate).
  for (const Row& r : rows) {
    int64_t dept = r[0].AsInt();
    if (dept == 10) EXPECT_EQ(r[2].AsInt(), 200);
    if (dept == 20) EXPECT_EQ(r[2].AsInt(), 300);
    if (dept == 40) EXPECT_TRUE(r[2].is_null());
  }
}

TEST_F(ApplyExecTest, SemiApplyCorrelated) {
  // Depts with at least one employee.
  PhysPtr inner = MakeFilterExec(
      EmpScan(), Eq(Col(0, 1), plan::MakeColumn({1, 0}, TypeId::kInt64,
                                                "dept.id")));
  PhysPtr apply = MakeApplyExec(plan::ApplyType::kSemi, DeptScan(), inner,
                                plan::MakeLiteral(Value::Bool(true)),
                                {{1, 0}}, {}, TypeId::kNull);
  std::vector<Row> rows = RunAtEveryCapacity(apply).rows;
  EXPECT_EQ(rows.size(), 2u);  // depts 10, 20
}

TEST_F(ApplyExecTest, AntiApplyCountsExecutions) {
  PhysPtr inner = MakeFilterExec(
      EmpScan(), Eq(Col(0, 1), plan::MakeColumn({1, 0}, TypeId::kInt64,
                                                "dept.id")));
  PhysPtr apply = MakeApplyExec(plan::ApplyType::kAnti, DeptScan(), inner,
                                plan::MakeLiteral(Value::Bool(true)),
                                {{1, 0}}, {}, TypeId::kNull);
  ModeResult r = RunAtEveryCapacity(apply);
  EXPECT_EQ(r.rows.size(), 1u);  // dept 40
  // Tuple-iteration: inner executed once per outer row.
  EXPECT_EQ(r.stats.subquery_executions, 3u);
}

}  // namespace
}  // namespace qopt::exec
