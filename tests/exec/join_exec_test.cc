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
  if (GetParam() == JoinAlg::kMerge) GTEST_SKIP() << "anti not via merge";
  std::vector<Row> rows =
      RunAtEveryCapacity(BuildJoin(JoinType::kAnti)).rows;
  ASSERT_EQ(rows.size(), 2u);  // emp 4 (dept 30), emp 5 (NULL dept)
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
