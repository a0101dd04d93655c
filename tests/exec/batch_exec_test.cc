// Tests for the vectorized execution path: RowBatch mechanics, batch
// expression evaluation vs the scalar evaluator, batch-mode operator
// parity (identical rows AND identical ExecStats) against row mode — the
// same operators at batch capacity 1 — on hand-built physical plans, and
// the scan's constant-comparison prefilter against the row interpreter.
#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <string>
#include <vector>

#include "exec/expr_eval.h"
#include "exec/executors.h"
#include "tests/exec/exec_test_util.h"

namespace qopt::exec {
namespace {

// ---------------------------------------------------------------------------
// RowBatch mechanics.

TEST(RowBatchTest, AppendAndMaterialize) {
  RowBatch b;
  b.Reset(2, 4);
  EXPECT_EQ(b.num_cols(), 2u);
  EXPECT_EQ(b.num_rows(), 0u);
  EXPECT_FALSE(b.full());

  b.AppendRow({Value::Int(1), Value::String("a")});
  b.AppendRow({Value::Int(2), Value::String("b")});
  EXPECT_EQ(b.num_rows(), 2u);
  EXPECT_EQ(b.ActiveSize(), 2u);

  Row r;
  b.MaterializeActive(1, &r);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].AsInt(), 2);
  EXPECT_EQ(r[1].AsString(), "b");
}

TEST(RowBatchTest, FullAtCapacity) {
  RowBatch b;
  b.Reset(1, 2);
  b.AppendRow({Value::Int(1)});
  EXPECT_FALSE(b.full());
  b.AppendRow({Value::Int(2)});
  EXPECT_TRUE(b.full());
}

TEST(RowBatchTest, SelectionShrinksWithoutMovingData) {
  RowBatch b;
  b.Reset(1, 4);
  for (int i = 0; i < 4; ++i) b.AppendRow({Value::Int(i)});
  // Keep physical rows 1 and 3 only.
  *b.mutable_selection() = {1, 3};
  EXPECT_EQ(b.num_rows(), 4u);  // physical rows untouched
  EXPECT_EQ(b.ActiveSize(), 2u);
  EXPECT_EQ(b.At(0, b.ActiveIndex(0)).AsInt(), 1);
  EXPECT_EQ(b.At(0, b.ActiveIndex(1)).AsInt(), 3);
}

TEST(RowBatchTest, AdoptColumnWithIdentitySelection) {
  RowBatch b;
  b.Reset(2, 8);
  b.AdoptColumn(0, {Value::Int(7), Value::Int(8)});
  b.AdoptColumn(1, {Value::String("x"), Value::String("y")});
  b.SetIdentitySelection(2);
  EXPECT_EQ(b.num_rows(), 2u);
  EXPECT_EQ(b.ActiveSize(), 2u);
  Row r;
  b.MaterializeActive(0, &r);
  EXPECT_EQ(r[0].AsInt(), 7);
  EXPECT_EQ(r[1].AsString(), "x");
}

TEST(RowBatchTest, ResetReusesStorage) {
  RowBatch b;
  b.Reset(2, 4);
  b.AppendRow({Value::Int(1), Value::Int(2)});
  b.Reset(2, 4);
  EXPECT_EQ(b.num_rows(), 0u);
  EXPECT_EQ(b.ActiveSize(), 0u);
  b.Reset(3, 2);  // reshape
  EXPECT_EQ(b.num_cols(), 3u);
}

// The buffering rule shared by the parallel gather and ExecuteAll's pooled
// result path: empty batches are dropped, and one less than half full is
// compacted to exactly sized columns before it is moved out. Buffering an
// already compacted batch again keeps its rows and order.
TEST(RowBatchTest, BufferBatchCompactsSparseBatches) {
  std::vector<RowBatch> out;
  RowBatch b;
  b.Reset(2, 8);
  for (int i = 0; i < 4; ++i) {
    b.AppendRow({Value::Int(i), Value::String("s" + std::to_string(i))});
  }
  *b.mutable_selection() = {};
  BufferBatch(&b, &out);
  EXPECT_TRUE(out.empty());

  *b.mutable_selection() = {1, 3};
  BufferBatch(&b, &out);
  EXPECT_EQ(b.num_rows(), 0u);  // moved out, left empty for its producer
  ASSERT_EQ(out.size(), 1u);
  auto expect_rows_1_and_3 = [](const RowBatch& c) {
    EXPECT_EQ(c.num_rows(), 2u);
    ASSERT_EQ(c.selection(), (std::vector<uint32_t>{0, 1}));
    EXPECT_EQ(c.column(0).capacity(), 2u);
    EXPECT_EQ(c.At(0, 0).AsInt(), 1);
    EXPECT_EQ(c.At(1, 1).AsString(), "s3");
  };
  expect_rows_1_and_3(out[0]);

  RowBatch again = std::move(out[0]);
  out.clear();
  BufferBatch(&again, &out);
  ASSERT_EQ(out.size(), 1u);
  expect_rows_1_and_3(out[0]);

  // A dense batch at least half full is moved out as it is.
  RowBatch dense;
  dense.Reset(1, 4);
  for (int i = 0; i < 2; ++i) dense.AppendRow({Value::Int(i)});
  BufferBatch(&dense, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].column(0).capacity(), 4u);
}

// ---------------------------------------------------------------------------
// Batch expression evaluation vs the scalar evaluator.

class BatchEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Columns: {0,0}=int a, {0,1}=int b (with NULLs), {0,2}=string s.
    colmap_ = {{{0, 0}, 0}, {{0, 1}, 1}, {{0, 2}, 2}};
    rows_ = {
        {Value::Int(1), Value::Int(10), Value::String("apple")},
        {Value::Int(2), Value::Null(), Value::String("banana")},
        {Value::Int(3), Value::Int(30), Value::Null()},
        {Value::Int(0), Value::Int(-5), Value::String("apricot")},
        {Value::Int(-7), Value::Int(0), Value::String("")},
    };
    batch_.Reset(3, rows_.size());
    for (const Row& r : rows_) batch_.AppendRow(r);
  }

  // Asserts EvalExprBatch agrees with per-row EvalExpr on every live row,
  // both resolving columns missing from the batch through `params`.
  void CheckAgainstScalar(const plan::BExpr& e, const ParamMap& params = {}) {
    EvalContext bctx{.colmap = &colmap_, .params = &params, .batch = &batch_};
    std::vector<Value> got;
    EvalExprBatch(*e, bctx, &got);
    ASSERT_EQ(got.size(), batch_.ActiveSize()) << e->ToString();
    for (size_t k = 0; k < batch_.ActiveSize(); ++k) {
      EvalContext sctx{&colmap_, &rows_[batch_.ActiveIndex(k)], &params};
      Value want = EvalExpr(*e, sctx);
      EXPECT_EQ(got[k].Compare(want), 0)
          << e->ToString() << " row " << k << ": got " << got[k].ToString()
          << ", want " << want.ToString();
    }
  }

  static plan::BExpr A() {
    return plan::MakeColumn({0, 0}, TypeId::kInt64, "a");
  }
  static plan::BExpr B() {
    return plan::MakeColumn({0, 1}, TypeId::kInt64, "b");
  }
  static plan::BExpr S() {
    return plan::MakeColumn({0, 2}, TypeId::kString, "s");
  }
  static plan::BExpr L(int64_t v) { return plan::MakeLiteral(Value::Int(v)); }
  static plan::BExpr Bin(ast::BinaryOp op, plan::BExpr l, plan::BExpr r) {
    return plan::MakeBinary(op, std::move(l), std::move(r));
  }

  ColMap colmap_;
  std::vector<Row> rows_;
  RowBatch batch_;
};

TEST_F(BatchEvalTest, ArithmeticAndComparisons) {
  using ast::BinaryOp;
  CheckAgainstScalar(Bin(BinaryOp::kAdd, A(), B()));
  CheckAgainstScalar(Bin(BinaryOp::kSub, B(), L(3)));
  CheckAgainstScalar(Bin(BinaryOp::kMul, A(), A()));
  CheckAgainstScalar(Bin(BinaryOp::kDiv, B(), A()));  // div by 0 -> NULL
  CheckAgainstScalar(Bin(BinaryOp::kLt, A(), B()));
  CheckAgainstScalar(Bin(BinaryOp::kGe, B(), L(0)));
  CheckAgainstScalar(Bin(BinaryOp::kEq, A(), L(2)));
  CheckAgainstScalar(Bin(BinaryOp::kNe, B(), L(10)));
}

TEST_F(BatchEvalTest, KleeneLogicWithNulls) {
  using ast::BinaryOp;
  plan::BExpr b_pos = Bin(BinaryOp::kGt, B(), L(0));   // NULL on row 1
  plan::BExpr a_pos = Bin(BinaryOp::kGt, A(), L(0));
  CheckAgainstScalar(Bin(BinaryOp::kAnd, b_pos, a_pos));
  CheckAgainstScalar(Bin(BinaryOp::kOr, b_pos, a_pos));
  CheckAgainstScalar(plan::MakeNot(b_pos));
  CheckAgainstScalar(plan::MakeIsNull(B(), false));
  CheckAgainstScalar(plan::MakeIsNull(B(), true));  // IS NOT NULL
  // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE.
  plan::BExpr null_cmp = Bin(BinaryOp::kGt, B(), L(1000));  // F or NULL
  CheckAgainstScalar(
      Bin(BinaryOp::kAnd, null_cmp, Bin(BinaryOp::kLt, A(), L(0))));
  CheckAgainstScalar(
      Bin(BinaryOp::kOr, null_cmp, Bin(BinaryOp::kGt, A(), L(-100))));
}

TEST_F(BatchEvalTest, InListWithNullsAndNegation) {
  auto in_list = [&](bool negated, bool with_null_item) {
    auto e = std::make_shared<plan::BoundExpr>();
    e->kind = plan::BoundKind::kInList;
    e->type = TypeId::kBool;
    e->negated = negated;
    e->children = {B(), L(10), L(30)};
    if (with_null_item) e->children.push_back(plan::MakeLiteral(Value::Null()));
    return plan::BExpr(e);
  };
  CheckAgainstScalar(in_list(false, false));
  CheckAgainstScalar(in_list(true, false));
  CheckAgainstScalar(in_list(false, true));
  CheckAgainstScalar(in_list(true, true));
}

TEST_F(BatchEvalTest, Like) {
  auto like = [&](const std::string& pattern) {
    auto e = std::make_shared<plan::BoundExpr>();
    e->kind = plan::BoundKind::kLike;
    e->type = TypeId::kBool;
    e->children = {S(), plan::MakeLiteral(Value::String(pattern))};
    return plan::BExpr(e);
  };
  CheckAgainstScalar(like("ap%"));
  CheckAgainstScalar(like("%an%"));
  CheckAgainstScalar(like("_pple"));
  CheckAgainstScalar(like(""));
}

TEST_F(BatchEvalTest, CaseExpression) {
  using ast::BinaryOp;
  // CASE WHEN b > 10 THEN a WHEN b IS NULL THEN -1 ELSE a * 10 END
  auto e = std::make_shared<plan::BoundExpr>();
  e->kind = plan::BoundKind::kCase;
  e->type = TypeId::kInt64;
  e->children = {Bin(BinaryOp::kGt, B(), L(10)), A(),
                 plan::MakeIsNull(B(), false), L(-1),
                 Bin(BinaryOp::kMul, A(), L(10))};
  CheckAgainstScalar(plan::BExpr(e));

  // Same without ELSE: falls through to NULL.
  auto no_else = std::make_shared<plan::BoundExpr>();
  no_else->kind = plan::BoundKind::kCase;
  no_else->type = TypeId::kInt64;
  no_else->children = {Bin(BinaryOp::kGt, B(), L(10)), A()};
  CheckAgainstScalar(plan::BExpr(no_else));
}

TEST_F(BatchEvalTest, RespectsSelectionVector) {
  // Deactivate rows 1 and 2 (the NULL-bearing ones); the batch evaluator
  // must only produce values for live rows, in selection order.
  *batch_.mutable_selection() = {0, 3, 4};
  CheckAgainstScalar(Bin(ast::BinaryOp::kAdd, A(), B()));
  CheckAgainstScalar(Bin(ast::BinaryOp::kGt, A(), L(0)));
}

TEST_F(BatchEvalTest, CorrelatedCasePredicateOverSelection) {
  using ast::BinaryOp;
  // p is an outer column bound as a correlated parameter (not in colmap_).
  const ParamMap params = {{{1, 0}, Value::Int(2)}};
  auto p = [] { return plan::MakeColumn({1, 0}, TypeId::kInt64, "p"); };
  // CASE WHEN b IS NULL THEN a = p WHEN b > p * 5 THEN a > p * 2
  //      ELSE a < p END
  auto e = std::make_shared<plan::BoundExpr>();
  e->kind = plan::BoundKind::kCase;
  e->type = TypeId::kBool;
  e->children = {plan::MakeIsNull(B(), false), Bin(BinaryOp::kEq, A(), p()),
                 Bin(BinaryOp::kGt, B(), Bin(BinaryOp::kMul, p(), L(5))),
                 Bin(BinaryOp::kGt, A(), Bin(BinaryOp::kMul, p(), L(2))),
                 Bin(BinaryOp::kLt, A(), p())};
  const plan::BExpr pred(e);
  // Live rows: row 1 (b NULL, a = 2) takes the first branch (TRUE), row 2
  // (b = 30, a = 3) the second (FALSE), row 3 (b = -5, a = 0) the ELSE
  // (TRUE). Dead rows 0 and 4 would pass the ELSE.
  *batch_.mutable_selection() = {1, 2, 3};
  CheckAgainstScalar(pred, params);
  EvalContext bctx{.colmap = &colmap_, .params = &params, .batch = &batch_};
  EvalPredicateBatch(pred, bctx, &batch_);
  EXPECT_EQ(batch_.selection(), (std::vector<uint32_t>{1, 3}));
}

TEST_F(BatchEvalTest, PredicateBatchCompactsSelection) {
  EvalContext bctx{.colmap = &colmap_, .batch = &batch_};
  // a > 0: keeps rows 0,1,2 (a = 1,2,3), rejects 3 (0) and 4 (-7).
  plan::BExpr pred = Bin(ast::BinaryOp::kGt, A(), L(0));
  EvalPredicateBatch(pred, bctx, &batch_);
  ASSERT_EQ(batch_.ActiveSize(), 3u);
  EXPECT_EQ(batch_.ActiveIndex(0), 0u);
  EXPECT_EQ(batch_.ActiveIndex(1), 1u);
  EXPECT_EQ(batch_.ActiveIndex(2), 2u);
  // Refine further: b IS NOT NULL drops row 1. NULL predicate keeps all.
  EvalPredicateBatch(plan::MakeIsNull(B(), true), bctx, &batch_);
  ASSERT_EQ(batch_.ActiveSize(), 2u);
  EXPECT_EQ(batch_.ActiveIndex(1), 2u);
  EvalPredicateBatch(nullptr, bctx, &batch_);
  EXPECT_EQ(batch_.ActiveSize(), 2u);
}

// ---------------------------------------------------------------------------
// Operator parity: batch mode vs row mode on hand-built plans. Rows AND
// every ExecStats counter must match exactly.

class BatchOperatorTest : public ExecTestBase {
 protected:
  void ExpectParity(const PhysPtr& plan, size_t batch_capacity =
                                             kDefaultBatchCapacity) {
    ModeResult row = RunMode(plan, ExecMode::kRow);
    ModeResult batch = RunMode(plan, ExecMode::kBatch, batch_capacity);
    ExpectSameRows(batch.rows, row.rows);
    ExpectSameStats(batch.stats, row.stats);
  }
};

TEST_F(BatchOperatorTest, TableScanParity) { ExpectParity(EmpScan()); }

TEST_F(BatchOperatorTest, ScanWithInlinePredicateParity) {
  ExpectParity(EmpScan(Eq(Col(0, 1), Lit(10))));
}

TEST_F(BatchOperatorTest, FilterNodeParity) {
  // Predicate with NULLs in the column: dept IS NULL rejected by >.
  ExpectParity(MakeFilterExec(
      EmpScan(),
      plan::MakeBinary(ast::BinaryOp::kGt, Col(0, 1), Lit(5))));
}

TEST_F(BatchOperatorTest, ProjectParity) {
  std::vector<plan::BExpr> exprs = {
      Col(0, 0),
      plan::MakeBinary(ast::BinaryOp::kMul, Col(0, 2), Lit(2))};
  std::vector<plan::OutputCol> cols = {
      {{0, 0}, TypeId::kInt64, "emp.id"}, {{9, 0}, TypeId::kInt64, "sal2"}};
  ExpectParity(MakeProjectExec(EmpScan(), std::move(exprs), std::move(cols)));
}

TEST_F(BatchOperatorTest, HashJoinParityAllTypes) {
  for (plan::JoinType jt :
       {plan::JoinType::kInner, plan::JoinType::kLeftOuter,
        plan::JoinType::kSemi, plan::JoinType::kAnti}) {
    SCOPED_TRACE(plan::JoinTypeName(jt));
    ExpectParity(
        MakeHashJoin(jt, EmpScan(), DeptScan(), {0, 1}, {1, 0}, nullptr));
  }
}

TEST_F(BatchOperatorTest, HashJoinWithResidualParity) {
  // Residual touches both sides: emp.sal > dept.id * 10 is only satisfied
  // by some matching pairs.
  plan::BExpr residual = plan::MakeBinary(
      ast::BinaryOp::kGt, Col(0, 2),
      plan::MakeBinary(ast::BinaryOp::kMul, Col(1, 0), Lit(10)));
  ExpectParity(MakeHashJoin(plan::JoinType::kInner, EmpScan(), DeptScan(),
                            {0, 1}, {1, 0}, residual));
}

TEST_F(BatchOperatorTest, PipelineParity) {
  // scan -> filter -> join -> project, the bread-and-butter batch pipeline.
  PhysPtr join =
      MakeHashJoin(plan::JoinType::kInner,
                   EmpScan(plan::MakeBinary(ast::BinaryOp::kGt, Col(0, 2),
                                            Lit(100))),
                   DeptScan(), {0, 1}, {1, 0}, nullptr);
  std::vector<plan::BExpr> exprs = {Col(0, 0), Col(1, 1, TypeId::kString)};
  std::vector<plan::OutputCol> cols = {
      {{0, 0}, TypeId::kInt64, "emp.id"},
      {{1, 1}, TypeId::kString, "dept.name"}};
  ExpectParity(MakeProjectExec(std::move(join), std::move(exprs),
                               std::move(cols)));
}

TEST_F(BatchOperatorTest, TinyBatchCapacityParity) {
  // Capacity smaller than the table forces multiple refills and exercises
  // batch-boundary logic everywhere.
  PhysPtr join = MakeHashJoin(plan::JoinType::kLeftOuter, EmpScan(),
                              DeptScan(), {0, 1}, {1, 0}, nullptr);
  ExpectParity(join, /*batch_capacity=*/2);
  ExpectParity(join, /*batch_capacity=*/1);
}

TEST_F(BatchOperatorTest, LimitFallsBackToRowMode) {
  // Limit must see row-at-a-time children: stopping after k rows must not
  // scan (or touch pages for) rows a batch would have read ahead.
  PhysPtr plan = MakeLimitExec(EmpScan(), 2);
  ModeResult row = RunMode(plan, ExecMode::kRow);
  ModeResult batch = RunMode(plan, ExecMode::kBatch);
  ASSERT_EQ(row.rows.size(), 2u);
  ASSERT_EQ(batch.rows.size(), 2u);
  EXPECT_EQ(batch.stats.rows_scanned, row.stats.rows_scanned);
  EXPECT_EQ(batch.stats.page_touches, row.stats.page_touches);
  // The fallback also means early termination works: only 2 rows scanned.
  EXPECT_EQ(batch.stats.rows_scanned, 2u);
}

TEST_F(BatchOperatorTest, SortOverVectorizedScanKeepsOrder) {
  // Sort reads its vectorized child's batches through a child cursor and
  // fills its own output batches from the sorted rows, which ExecuteAll
  // drains like any other root.
  PhysPtr sort = MakeSortExec(EmpScan(), {{{0, 2}, /*ascending=*/false}});
  ModeResult batch = RunMode(sort, ExecMode::kBatch);
  ASSERT_EQ(batch.rows.size(), 5u);
  EXPECT_EQ(batch.rows[0][2].AsInt(), 500);  // order preserved in the batches
  EXPECT_EQ(batch.rows[4][2].AsInt(), 100);
  ExpectParity(sort);
}

TEST_F(BatchOperatorTest, AggregateAboveBatchChildren) {
  // SELECT dept, SUM(sal) FROM emp GROUP BY dept over a vectorized scan.
  std::vector<plan::AggItem> aggs;
  plan::AggItem sum;
  sum.func = ast::AggFunc::kSum;
  sum.arg = Col(0, 2);
  sum.output = {9, 0};
  aggs.push_back(sum);
  std::vector<plan::OutputCol> cols = {
      {{0, 1}, TypeId::kInt64, "emp.dept"},
      {{9, 0}, TypeId::kInt64, "sum_sal"}};
  PhysPtr agg = MakeHashAggregate(EmpScan(), {{0, 1}}, std::move(aggs),
                                  std::move(cols));
  ExpectParity(agg);
}

TEST_F(BatchOperatorTest, SortBatchesCappedAtCapacity) {
  // Sort materializes its input and then emits it in batches that must
  // fill up to the executor's capacity and never beyond it —
  // ctx.batch_capacity in batch mode, 1 in row mode.
  PhysPtr plan = MakeSortExec(EmpScan(), {{{0, 0}, /*ascending=*/true}});
  for (ExecMode mode : {ExecMode::kBatch, ExecMode::kRow}) {
    SCOPED_TRACE(static_cast<int>(mode));
    ExecContext ctx;
    ctx.storage = storage_.get();
    ctx.catalog = &catalog_;
    ctx.mode = mode;
    ctx.batch_capacity = 3;
    std::unique_ptr<Executor> exec = BuildExecutor(plan, &ctx);
    exec->Init();
    std::vector<size_t> sizes;
    RowBatch b;
    while (exec->NextBatch(&b)) sizes.push_back(b.num_rows());
    if (mode == ExecMode::kBatch) {
      // Capped at ctx.batch_capacity, then the remainder.
      EXPECT_EQ(sizes, (std::vector<size_t>{3, 2}));
    } else {
      EXPECT_EQ(sizes, (std::vector<size_t>{1, 1, 1, 1, 1}));
    }
  }
}

TEST_F(BatchOperatorTest, BatchModeNodesMarksOnlySupportedOperators) {
  // limit(sort(filter(scan))): scan and filter run at full capacity in
  // isolation, but under a Limit everything must run at capacity 1.
  PhysPtr filter = MakeFilterExec(
      EmpScan(), plan::MakeBinary(ast::BinaryOp::kGt, Col(0, 2), Lit(0)));
  const PhysicalPlan* filter_ptr = filter.get();
  const PhysicalPlan* scan_ptr = filter->children[0].get();
  {
    std::unordered_set<const PhysicalPlan*> nodes = BatchModeNodes(filter);
    EXPECT_TRUE(nodes.count(filter_ptr));
    EXPECT_TRUE(nodes.count(scan_ptr));
  }
  PhysPtr limited = MakeLimitExec(MakeSortExec(std::move(filter), {}), 1);
  {
    std::unordered_set<const PhysicalPlan*> nodes = BatchModeNodes(limited);
    EXPECT_TRUE(nodes.empty());
  }
}

TEST_F(BatchOperatorTest, LimitStopsInsideOneProbeKeysMatches) {
  // A third emp row in dept 10: the first probe row (dept 10) has three
  // build matches. Limit 1 takes one of them, so exactly one joined row may
  // be counted — in row mode and batch mode alike.
  storage_->GetTable(0)->AppendUnchecked(
      {{Value::Int(6), Value::Int(10), Value::Int(600)}});
  auto join = [&] {
    return MakeHashJoin(plan::JoinType::kInner, DeptScan(), EmpScan(),
                        {1, 0}, {0, 1}, nullptr);
  };
  PhysPtr limited = MakeLimitExec(join(), 1);
  for (ExecMode mode : {ExecMode::kRow, ExecMode::kBatch}) {
    SCOPED_TRACE(static_cast<int>(mode));
    ModeResult r = RunMode(limited, mode);
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].AsInt(), 10);
    EXPECT_EQ(r.stats.rows_joined, 1u);
  }
  // Drained directly, no output batch exceeds its capacity, even though
  // one probe row has more matches than fit in a batch.
  PhysPtr plain = join();
  for (size_t capacity : {1u, 2u}) {
    SCOPED_TRACE(capacity);
    ExecContext ctx;
    ctx.storage = storage_.get();
    ctx.catalog = &catalog_;
    ctx.mode = ExecMode::kBatch;
    ctx.batch_capacity = capacity;
    std::unique_ptr<Executor> exec = BuildExecutor(plain, &ctx);
    exec->Init();
    size_t total = 0;
    RowBatch b;
    while (exec->NextBatch(&b)) {
      EXPECT_LE(b.num_rows(), capacity);
      total += b.ActiveSize();
    }
    EXPECT_EQ(total, 4u);  // dept 10 x {1, 2, 6}, dept 20 x {3}
    EXPECT_EQ(ctx.stats.rows_joined, 4u);
  }
}

// ---------------------------------------------------------------------------
// Scan-predicate reference: the rows a scan keeps must be exactly the base
// rows the row interpreter EvalPredicate accepts. The scan checks
// `column <op> constant` conjuncts with the table's own typed kernels
// (Table::Select) before any row is copied, so this is the independent
// check that they agree with the interpreter on NULLs, NaN, -0.0,
// int/double mixes and strings, over typed columns with and without NULLs
// (one DOUBLE column loaded with an INT cell, which the table widens), at
// batch capacities that split the table's page runs differently.

class ScanPredicateReferenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .CreateTable("mix", {{"i", TypeId::kInt64},
                                         {"d", TypeId::kDouble},
                                         {"s", TypeId::kString},
                                         {"g", TypeId::kDouble},
                                         {"n", TypeId::kInt64}})
                    .ok());
    storage_ = std::make_unique<Storage>(&catalog_);
    // 257 rows: not a multiple of any batch capacity under test. Doubles
    // include integral values, so int/double equality is exercised, and
    // NaN and -0.0. Column g has no NULL and takes one INT cell, which the
    // table widens to DOUBLE; n has no NULL either.
    std::mt19937 rng(1234);
    const char* strings[] = {"", "a", "ab", "b", "B"};
    auto double_cell = [&rng]() {
      switch (rng() % 13) {
        case 0: return Value::Null();
        case 1: return Value::Double(std::numeric_limits<double>::quiet_NaN());
        case 2: return Value::Double(-0.0);
        default:
          return Value::Double((static_cast<int>(rng() % 11) - 5) * 0.5);
      }
    };
    std::vector<Row> rows;
    for (int k = 0; k < 257; ++k) {
      Row r;
      r.push_back(rng() % 7 == 0
                      ? Value::Null()
                      : Value::Int(static_cast<int64_t>(rng() % 11) - 5));
      r.push_back(double_cell());
      r.push_back(rng() % 7 == 0 ? Value::Null()
                                 : Value::String(strings[rng() % 5]));
      Value g = k == 100 ? Value::Int(2) : double_cell();
      r.push_back(g.is_null() ? Value::Double(0.5) : std::move(g));
      r.push_back(Value::Int(static_cast<int64_t>(rng() % 11) - 5));
      rows.push_back(std::move(r));
    }
    storage_->GetTable(0)->AppendUnchecked(rows);
    ASSERT_EQ(storage_->GetTable(0)->Get(100, 3).type(), TypeId::kDouble);
    for (size_t c = 0; c < cols_.size(); ++c) {
      colmap_[cols_[c].id] = static_cast<int>(c);
    }
  }

  plan::BExpr ColExpr(size_t c) const {
    return plan::MakeColumn(cols_[c].id, cols_[c].type, cols_[c].name);
  }

  /// A constant for a comparison against column `c`: same-type or
  /// cross-numeric (-0.0 among the doubles), occasionally NULL.
  Value Constant(size_t c, std::mt19937* rng) const {
    if ((*rng)() % 10 == 0) return Value::Null();
    const int k = static_cast<int>((*rng)() % 11) - 5;
    if (c == 2) {
      const char* strings[] = {"", "a", "ab", "b", "B", "aa"};
      return Value::String(strings[(*rng)() % 6]);
    }
    switch ((*rng)() % 5) {
      case 0: return Value::Double(-0.0);
      case 1:
      case 2: return Value::Int(k);
      default: return Value::Double(k * 0.5);
    }
  }

  /// One conjunct: mostly `column <op> constant` in either orientation,
  /// sometimes a shape the scan must leave to its residual.
  plan::BExpr Conjunct(std::mt19937* rng) const {
    static const ast::BinaryOp kOps[] = {
        ast::BinaryOp::kEq, ast::BinaryOp::kNe, ast::BinaryOp::kLt,
        ast::BinaryOp::kLe, ast::BinaryOp::kGt, ast::BinaryOp::kGe};
    const size_t c = (*rng)() % cols_.size();
    const ast::BinaryOp op = kOps[(*rng)() % 6];
    switch ((*rng)() % 6) {
      case 0:  // residual: arithmetic on the column
        return plan::MakeBinary(
            op, plan::MakeBinary(ast::BinaryOp::kAdd, ColExpr(0),
                                 plan::MakeLiteral(Value::Int(1))),
            plan::MakeLiteral(Constant(0, rng)));
      case 1:  // residual: disjunction
        return plan::MakeBinary(ast::BinaryOp::kOr,
                                plan::MakeBinary(op, ColExpr(c),
                                                 plan::MakeLiteral(
                                                     Constant(c, rng))),
                                plan::MakeIsNull(
                                    ColExpr((c + 1) % cols_.size()),
                                    (*rng)() % 2 == 0));
      case 2:  // constant on the left
        return plan::MakeBinary(op, plan::MakeLiteral(Constant(c, rng)),
                                ColExpr(c));
      default:
        return plan::MakeBinary(op, ColExpr(c),
                                plan::MakeLiteral(Constant(c, rng)));
    }
  }

  std::vector<Row> RunScan(const plan::BExpr& pred, ExecMode mode,
                           size_t capacity, bool compile) {
    PhysPtr scan = MakeTableScan(0, 0, "mix", cols_, pred);
    ExecContext ctx;
    ctx.storage = storage_.get();
    ctx.catalog = &catalog_;
    ctx.mode = mode;
    ctx.batch_capacity = capacity;
    ctx.compile_expressions = compile;
    Result<std::vector<Row>> rows = ExecuteAll(scan, &ctx);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(ctx.stats.rows_scanned, 257u);
    return rows.ok() ? std::move(rows).value() : std::vector<Row>{};
  }

  const std::vector<plan::OutputCol> cols_ = {
      {{0, 0}, TypeId::kInt64, "mix.i"},
      {{0, 1}, TypeId::kDouble, "mix.d"},
      {{0, 2}, TypeId::kString, "mix.s"},
      {{0, 3}, TypeId::kDouble, "mix.g"},
      {{0, 4}, TypeId::kInt64, "mix.n"}};
  ColMap colmap_;
  Catalog catalog_;
  std::unique_ptr<Storage> storage_;
};

TEST_F(ScanPredicateReferenceTest,
       ScanKeepsExactlyTheRowsEvalPredicateAccepts) {
  std::mt19937 rng(42);
  const Table& table = *storage_->GetTable(0);
  const ParamMap params;
  for (int q = 0; q < 300; ++q) {
    std::vector<plan::BExpr> conjuncts;
    const size_t n = 1 + rng() % 3;
    for (size_t k = 0; k < n; ++k) conjuncts.push_back(Conjunct(&rng));
    plan::BExpr pred = plan::MakeConjunction(std::move(conjuncts));
    std::vector<Row> want;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const Row row = table.RowAt(static_cast<uint32_t>(r));
      if (EvalPredicate(pred, EvalContext{&colmap_, &row, &params})) {
        want.push_back(row);
      }
    }
    const std::pair<ExecMode, size_t> runs[] = {
        {ExecMode::kRow, kDefaultBatchCapacity},
        {ExecMode::kBatch, 1},
        {ExecMode::kBatch, 7},
        {ExecMode::kBatch, 1024}};
    for (const auto& [mode, capacity] : runs) {
      for (bool compile : {true, false}) {
        SCOPED_TRACE(pred->ToString() + " mode=" +
                     std::to_string(static_cast<int>(mode)) + " capacity=" +
                     std::to_string(capacity) +
                     " compile=" + std::to_string(compile));
        std::vector<Row> got = RunScan(pred, mode, capacity, compile);
        ASSERT_EQ(got.size(), want.size());
        for (size_t r = 0; r < got.size(); ++r) {
          EXPECT_TRUE(RowEq()(got[r], want[r]))
              << "row " << r << ": got " << RowToString(got[r])
              << ", want " << RowToString(want[r]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace qopt::exec
