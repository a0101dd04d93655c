// Shared fixtures for executor tests: a tiny emp/dept database plus
// helpers to construct physical plans by hand.
#ifndef QOPT_TESTS_EXEC_EXEC_TEST_UTIL_H_
#define QOPT_TESTS_EXEC_EXEC_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>

#include "exec/executors.h"

namespace qopt::exec {

class ExecTestBase : public ::testing::Test {
 protected:
  void SetUp() override {
    // emp(id, dept, sal); dept(id, name).
    ASSERT_TRUE(catalog_
                    .CreateTable("emp", {{"id", TypeId::kInt64},
                                         {"dept", TypeId::kInt64},
                                         {"sal", TypeId::kInt64}},
                                 0)
                    .ok());
    ASSERT_TRUE(catalog_
                    .CreateTable("dept", {{"id", TypeId::kInt64},
                                          {"name", TypeId::kString}},
                                 0)
                    .ok());
    ASSERT_TRUE(catalog_.CreateIndex("idx_emp_dept", "emp", "dept").ok());
    ASSERT_TRUE(
        catalog_.CreateIndex("idx_dept_id", "dept", "id", false, true).ok());
    storage_ = std::make_unique<Storage>(&catalog_);

    // emp rows: (1,10,100) (2,10,200) (3,20,300) (4,30,400) (5,NULL,500)
    Table* emp = storage_->GetTable(0);
    emp->AppendUnchecked({
        {Value::Int(1), Value::Int(10), Value::Int(100)},
        {Value::Int(2), Value::Int(10), Value::Int(200)},
        {Value::Int(3), Value::Int(20), Value::Int(300)},
        {Value::Int(4), Value::Int(30), Value::Int(400)},
        {Value::Int(5), Value::Null(), Value::Int(500)},
    });
    // dept rows: (10,'eng') (20,'hr') (40,'ops')
    Table* dept = storage_->GetTable(1);
    dept->AppendUnchecked({
        {Value::Int(10), Value::String("eng")},
        {Value::Int(20), Value::String("hr")},
        {Value::Int(40), Value::String("ops")},
    });
  }

  // Scan nodes: rel 0 = emp, rel 1 = dept.
  PhysPtr EmpScan(plan::BExpr filter = nullptr) {
    return MakeTableScan(0, 0, "emp", EmpCols(), std::move(filter));
  }
  PhysPtr DeptScan(plan::BExpr filter = nullptr) {
    return MakeTableScan(1, 1, "dept", DeptCols(), std::move(filter));
  }

  static std::vector<plan::OutputCol> EmpCols() {
    return {{{0, 0}, TypeId::kInt64, "emp.id"},
            {{0, 1}, TypeId::kInt64, "emp.dept"},
            {{0, 2}, TypeId::kInt64, "emp.sal"}};
  }
  static std::vector<plan::OutputCol> DeptCols() {
    return {{{1, 0}, TypeId::kInt64, "dept.id"},
            {{1, 1}, TypeId::kString, "dept.name"}};
  }

  static plan::BExpr Col(int rel, int col, TypeId t = TypeId::kInt64) {
    return plan::MakeColumn({rel, col}, t, "#");
  }
  static plan::BExpr Eq(plan::BExpr a, plan::BExpr b) {
    return plan::MakeBinary(ast::BinaryOp::kEq, std::move(a), std::move(b));
  }
  static plan::BExpr Lit(int64_t v) {
    return plan::MakeLiteral(Value::Int(v));
  }

  std::vector<Row> Run(const PhysPtr& plan) {
    ExecContext ctx;
    ctx.storage = storage_.get();
    ctx.catalog = &catalog_;
    return ExecuteAll(plan, &ctx).value();
  }

  struct ModeResult {
    std::vector<Row> rows;
    ExecStats stats;
  };

  ModeResult RunMode(const PhysPtr& plan, ExecMode mode,
                     size_t batch_capacity = kDefaultBatchCapacity) {
    ExecContext ctx;
    ctx.storage = storage_.get();
    ctx.catalog = &catalog_;
    ctx.mode = mode;
    ctx.batch_capacity = batch_capacity;
    ctx.compile_expressions = compile_expressions_;
    ModeResult r;
    r.rows = ExecuteAll(plan, &ctx).value();
    r.stats = ctx.stats;
    return r;
  }

  static void ExpectSameStats(const ExecStats& got, const ExecStats& want) {
    EXPECT_EQ(got.rows_scanned, want.rows_scanned);
    EXPECT_EQ(got.rows_joined, want.rows_joined);
    EXPECT_EQ(got.index_lookups, want.index_lookups);
    EXPECT_EQ(got.subquery_executions, want.subquery_executions);
    EXPECT_EQ(got.page_touches, want.page_touches);
    EXPECT_DOUBLE_EQ(got.modeled_pages_read, want.modeled_pages_read);
  }

  // Runs `plan` in row mode and in batch mode at capacities 2 and 1024,
  // expects the same rows in the same order and the same ExecStats from
  // each, and returns the row-mode run. Capacity 2 puts batch boundaries
  // inside the tiny tables, and inside one outer row's output.
  ModeResult RunAtEveryCapacity(const PhysPtr& plan) {
    ModeResult row = RunMode(plan, ExecMode::kRow);
    for (size_t capacity : {size_t{2}, kDefaultBatchCapacity}) {
      SCOPED_TRACE("batch capacity " + std::to_string(capacity));
      ModeResult batch = RunMode(plan, ExecMode::kBatch, capacity);
      EXPECT_EQ(batch.rows.size(), row.rows.size());
      for (size_t i = 0; i < std::min(batch.rows.size(), row.rows.size());
           ++i) {
        EXPECT_TRUE(RowEq()(batch.rows[i], row.rows[i]))
            << "row " << i << ": got " << RowToString(batch.rows[i])
            << ", want " << RowToString(row.rows[i]);
      }
      ExpectSameStats(batch.stats, row.stats);
    }
    return row;
  }

  // Order-insensitive row comparison.
  static void ExpectSameRows(std::vector<Row> got, std::vector<Row> want) {
    auto sorter = [](const Row& a, const Row& b) {
      for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        int c = a[i].Compare(b[i]);
        if (c != 0) return c < 0;
      }
      return a.size() < b.size();
    };
    std::sort(got.begin(), got.end(), sorter);
    std::sort(want.begin(), want.end(), sorter);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(RowEq()(got[i], want[i]))
          << "row " << i << ": got " << RowToString(got[i]) << ", want "
          << RowToString(want[i]);
    }
  }

  Catalog catalog_;
  std::unique_ptr<Storage> storage_;
  bool compile_expressions_ = true;  ///< RunMode's expression compilation.
};

}  // namespace qopt::exec

#endif  // QOPT_TESTS_EXEC_EXEC_TEST_UTIL_H_
