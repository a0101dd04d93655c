#include "exec_test_util.h"

namespace qopt::exec {
namespace {

using ast::BinaryOp;

class ScanExecTest : public ExecTestBase {};

TEST_F(ScanExecTest, FullTableScan) {
  EXPECT_EQ(Run(EmpScan()).size(), 5u);
}

TEST_F(ScanExecTest, ScanWithFilter) {
  // dept = 10
  std::vector<Row> rows = Run(EmpScan(Eq(Col(0, 1), Lit(10))));
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(ScanExecTest, FilterRejectsNull) {
  // dept <> 10 does not match the NULL-dept row.
  std::vector<Row> rows = Run(
      EmpScan(plan::MakeBinary(BinaryOp::kNe, Col(0, 1), Lit(10))));
  EXPECT_EQ(rows.size(), 2u);  // depts 20, 30
}

TEST_F(ScanExecTest, IndexScanRange) {
  // emp.dept in [10, 20]
  PhysPtr scan = MakeIndexScan(0, 0, "emp", EmpCols(), /*index_id=*/0,
                               ScanBound{Value::Int(10), true},
                               ScanBound{Value::Int(20), true}, nullptr);
  std::vector<Row> rows = Run(scan);
  EXPECT_EQ(rows.size(), 3u);
  // Index scan delivers rows in key order.
  EXPECT_LE(rows[0][1].AsInt(), rows[1][1].AsInt());
}

TEST_F(ScanExecTest, IndexScanSkipsNullKeys) {
  PhysPtr scan = MakeIndexScan(0, 0, "emp", EmpCols(), 0, {}, {}, nullptr);
  EXPECT_EQ(Run(scan).size(), 4u);  // NULL dept row absent
}

TEST_F(ScanExecTest, ScanStatsCounted) {
  ExecContext ctx;
  ctx.storage = storage_.get();
  ctx.catalog = &catalog_;
  ASSERT_TRUE(ExecuteAll(EmpScan(), &ctx).ok());
  EXPECT_EQ(ctx.stats.rows_scanned, 5u);
  EXPECT_GT(ctx.stats.modeled_pages_read, 0);
}

class BasicOpsTest : public ExecTestBase {};

TEST_F(BasicOpsTest, FilterOperator) {
  PhysPtr f = MakeFilterExec(
      EmpScan(), plan::MakeBinary(BinaryOp::kGt, Col(0, 2), Lit(250)));
  EXPECT_EQ(Run(f).size(), 3u);
}

TEST_F(BasicOpsTest, ProjectComputesExpressions) {
  std::vector<plan::OutputCol> cols = {{{5, 0}, TypeId::kInt64, "double_sal"}};
  PhysPtr p = MakeProjectExec(
      EmpScan(),
      {plan::MakeBinary(BinaryOp::kMul, Col(0, 2), Lit(2))}, cols);
  std::vector<Row> rows = Run(p);
  ASSERT_EQ(rows.size(), 5u);
  std::vector<int64_t> got;
  for (const Row& r : rows) got.push_back(r[0].AsInt());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<int64_t>{200, 400, 600, 800, 1000}));
}

TEST_F(BasicOpsTest, SortAscendingAndDescending) {
  PhysPtr asc = MakeSortExec(EmpScan(), {{{0, 2}, true}});
  std::vector<Row> rows = Run(asc);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1][2].AsInt(), rows[i][2].AsInt());
  }
  PhysPtr desc = MakeSortExec(EmpScan(), {{{0, 2}, false}});
  rows = Run(desc);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i - 1][2].AsInt(), rows[i][2].AsInt());
  }
}

TEST_F(BasicOpsTest, SortNullsFirst) {
  PhysPtr s = MakeSortExec(EmpScan(), {{{0, 1}, true}});
  std::vector<Row> rows = Run(s);
  EXPECT_TRUE(rows[0][1].is_null());
}

TEST_F(BasicOpsTest, SortMultiKey) {
  PhysPtr s = MakeSortExec(EmpScan(), {{{0, 1}, true}, {{0, 2}, false}});
  std::vector<Row> rows = Run(s);
  // Within dept 10, salary descending: 200 before 100.
  ASSERT_GE(rows.size(), 3u);
  EXPECT_EQ(rows[1][2].AsInt(), 200);
  EXPECT_EQ(rows[2][2].AsInt(), 100);
}

TEST_F(BasicOpsTest, DistinctRemovesDuplicates) {
  std::vector<plan::OutputCol> cols = {{{5, 0}, TypeId::kInt64, "dept"}};
  PhysPtr p = MakeProjectExec(EmpScan(), {Col(0, 1)}, cols);
  PhysPtr d = MakeDistinctExec(p);
  EXPECT_EQ(Run(d).size(), 4u);  // 10, 20, 30, NULL
}

TEST_F(BasicOpsTest, LimitStopsEarly) {
  PhysPtr l = MakeLimitExec(EmpScan(), 2);
  EXPECT_EQ(Run(l).size(), 2u);
  PhysPtr zero = MakeLimitExec(EmpScan(), 0);
  EXPECT_EQ(Run(zero).size(), 0u);
}

TEST_F(BasicOpsTest, ExecutorRescan) {
  // Init() twice replays the stream (required by the Apply operator).
  ExecContext ctx;
  ctx.storage = storage_.get();
  ctx.catalog = &catalog_;
  PhysPtr s = MakeSortExec(EmpScan(), {{{0, 0}, true}});
  std::unique_ptr<Executor> exec = BuildExecutor(s, &ctx);
  for (int round = 0; round < 2; ++round) {
    exec->Init();
    size_t n = 0;
    RowBatch b;
    while (exec->NextBatch(&b)) n += b.ActiveSize();
    EXPECT_EQ(n, 5u);
  }
}

TEST_F(BasicOpsTest, HashExceptChargesEmittedRows) {
  // A set operation holds its right input and every left row it emitted in
  // hash sets; both count against the governor's row budget, as Distinct's
  // set does. 100 more emp ids make 105 distinct left rows, none a dept id.
  std::vector<Row> more;
  for (int64_t id = 100; id < 200; ++id) {
    more.push_back({Value::Int(id), Value::Int(10), Value::Int(id)});
  }
  storage_->GetTable(0)->AppendUnchecked(std::move(more));
  std::vector<plan::OutputCol> cols = {{{9, 0}, TypeId::kInt64, "id"}};
  PhysPtr except = MakeSetOpExec(
      PhysOpKind::kHashExcept, MakeProjectExec(EmpScan(), {Col(0, 0)}, cols),
      MakeProjectExec(DeptScan(), {Col(1, 0)}, cols), cols);
  plan::AggItem count;
  count.func = ast::AggFunc::kCountStar;
  count.output = {8, 0};
  count.type = TypeId::kInt64;
  count.name = "cnt";
  PhysPtr agg = MakeHashAggregate(except, {}, {count},
                                  {{{8, 0}, TypeId::kInt64, "cnt"}});
  auto run = [&](uint64_t max_rows) {
    GovernorOptions options;
    options.max_rows = max_rows;
    ResourceGovernor governor(options);
    ExecContext ctx;
    ctx.storage = storage_.get();
    ctx.catalog = &catalog_;
    ctx.governor = &governor;
    return ExecuteAll(agg, &ctx);
  };
  // 3 right rows + 105 emitted rows + 1 group + 1 result row.
  Result<std::vector<Row>> fits = run(110);
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ((*fits)[0][0].AsInt(), 105);
  // The right set fits 50 rows; with the emitted rows the budget trips.
  Result<std::vector<Row>> tripped = run(50);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(BasicOpsTest, UnionAllConcatenatesChildren) {
  std::vector<plan::OutputCol> cols = {{{9, 0}, TypeId::kInt64, "x"}};
  PhysPtr u = MakeUnionAllExec(
      {MakeProjectExec(EmpScan(), {Col(0, 0)}, cols),
       MakeProjectExec(DeptScan(), {Col(1, 0)}, cols)},
      cols);
  EXPECT_EQ(Run(u).size(), 8u);  // 5 emps + 3 depts
}

TEST(BufferPoolSimTest, LruMissesAndHits) {
  BufferPoolSim pool(2);
  EXPECT_TRUE(pool.Touch(1));   // miss
  EXPECT_TRUE(pool.Touch(2));   // miss
  EXPECT_FALSE(pool.Touch(1));  // hit, refreshes 1
  EXPECT_TRUE(pool.Touch(3));   // miss, evicts 2 (LRU)
  EXPECT_TRUE(pool.Touch(2));   // miss again
  EXPECT_FALSE(pool.Touch(3));  // still resident
}

TEST(BufferPoolSimTest, PageKeyNamespacesDisjoint) {
  EXPECT_NE(BufferPoolSim::DataPage(1, 7), BufferPoolSim::IndexPage(1, 7));
  EXPECT_NE(BufferPoolSim::DataPage(1, 7), BufferPoolSim::DataPage(2, 7));
}

TEST_F(BasicOpsTest, RepeatedScansHitBufferPool) {
  // Scanning the same table twice: second pass is all hits.
  ExecContext ctx;
  ctx.storage = storage_.get();
  ctx.catalog = &catalog_;
  PhysPtr scan = EmpScan();  // must outlive the executor (raw plan pointers)
  std::unique_ptr<Executor> exec = BuildExecutor(scan, &ctx);
  RowBatch b;
  exec->Init();
  while (exec->NextBatch(&b)) {
  }
  double after_first = ctx.stats.modeled_pages_read;
  exec->Init();
  while (exec->NextBatch(&b)) {
  }
  EXPECT_DOUBLE_EQ(ctx.stats.modeled_pages_read, after_first);
  EXPECT_GT(ctx.stats.page_touches, static_cast<uint64_t>(after_first));
}

TEST_F(BasicOpsTest, PlanToStringContainsOperators) {
  PhysPtr f = MakeFilterExec(EmpScan(), Eq(Col(0, 1), Lit(10)));
  std::string s = f->ToString();
  EXPECT_NE(s.find("Filter"), std::string::npos);
  EXPECT_NE(s.find("TableScan"), std::string::npos);
}

}  // namespace
}  // namespace qopt::exec
