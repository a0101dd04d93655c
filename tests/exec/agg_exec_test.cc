#include "exec_test_util.h"

namespace qopt::exec {
namespace {

using ast::AggFunc;

// Hash and stream aggregation must agree; parameterize over the operator.
class AggAlgTest : public ExecTestBase,
                   public ::testing::WithParamInterface<bool /*hash*/> {
 protected:
  plan::AggItem Item(AggFunc func, plan::BExpr arg, int out_idx, TypeId type,
                     bool distinct = false) {
    plan::AggItem item;
    item.func = func;
    item.arg = std::move(arg);
    item.distinct = distinct;
    item.output = {9, out_idx};
    item.type = type;
    item.name = "agg" + std::to_string(out_idx);
    return item;
  }

  PhysPtr BuildAgg(std::vector<ColumnId> group,
                   std::vector<plan::AggItem> aggs,
                   std::vector<plan::OutputCol> cols) {
    if (GetParam()) {
      return MakeHashAggregate(EmpScan(), group, aggs, cols);
    }
    // Stream aggregation needs sorted input.
    std::vector<plan::SortKey> keys;
    for (ColumnId c : group) keys.push_back({c, true});
    PhysPtr child = group.empty() ? EmpScan() : MakeSortExec(EmpScan(), keys);
    return MakeStreamAggregate(child, group, aggs, cols);
  }
};

TEST_P(AggAlgTest, GroupByWithCountAndSum) {
  std::vector<plan::AggItem> aggs = {
      Item(AggFunc::kCountStar, nullptr, 0, TypeId::kInt64),
      Item(AggFunc::kSum, Col(0, 2), 1, TypeId::kInt64)};
  PhysPtr agg = BuildAgg({{0, 1}},
                         aggs,
                         {{{0, 1}, TypeId::kInt64, "dept"},
                          {{9, 0}, TypeId::kInt64, "count"},
                          {{9, 1}, TypeId::kInt64, "sum"}});
  std::vector<Row> rows = Run(agg);
  ASSERT_EQ(rows.size(), 4u);  // depts 10, 20, 30, NULL
  for (const Row& r : rows) {
    if (!r[0].is_null() && r[0].AsInt() == 10) {
      EXPECT_EQ(r[1].AsInt(), 2);
      EXPECT_EQ(r[2].AsInt(), 300);
    }
    if (r[0].is_null()) {
      EXPECT_EQ(r[1].AsInt(), 1);  // NULL group exists (SQL group-by)
      EXPECT_EQ(r[2].AsInt(), 500);
    }
  }
}

TEST_P(AggAlgTest, ScalarAggregates) {
  std::vector<plan::AggItem> aggs = {
      Item(AggFunc::kCountStar, nullptr, 0, TypeId::kInt64),
      Item(AggFunc::kCount, Col(0, 1), 1, TypeId::kInt64),
      Item(AggFunc::kAvg, Col(0, 2), 2, TypeId::kDouble),
      Item(AggFunc::kMin, Col(0, 2), 3, TypeId::kInt64),
      Item(AggFunc::kMax, Col(0, 2), 4, TypeId::kInt64)};
  PhysPtr agg = BuildAgg({}, aggs,
                         {{{9, 0}, TypeId::kInt64, "cnt"},
                          {{9, 1}, TypeId::kInt64, "cnt_dept"},
                          {{9, 2}, TypeId::kDouble, "avg"},
                          {{9, 3}, TypeId::kInt64, "min"},
                          {{9, 4}, TypeId::kInt64, "max"}});
  std::vector<Row> rows = Run(agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt(), 5);
  EXPECT_EQ(rows[0][1].AsInt(), 4);  // COUNT(dept) skips NULL
  EXPECT_DOUBLE_EQ(rows[0][2].AsDouble(), 300.0);
  EXPECT_EQ(rows[0][3].AsInt(), 100);
  EXPECT_EQ(rows[0][4].AsInt(), 500);
}

TEST_P(AggAlgTest, EmptyInputScalarAggregate) {
  std::vector<plan::AggItem> aggs = {
      Item(AggFunc::kCountStar, nullptr, 0, TypeId::kInt64),
      Item(AggFunc::kSum, Col(0, 2), 1, TypeId::kInt64)};
  PhysPtr scan = EmpScan(Eq(Col(0, 0), Lit(-99)));
  PhysPtr agg;
  if (GetParam()) {
    agg = MakeHashAggregate(scan, {}, aggs,
                            {{{9, 0}, TypeId::kInt64, "cnt"},
                             {{9, 1}, TypeId::kInt64, "sum"}});
  } else {
    agg = MakeStreamAggregate(scan, {}, aggs,
                              {{{9, 0}, TypeId::kInt64, "cnt"},
                               {{9, 1}, TypeId::kInt64, "sum"}});
  }
  std::vector<Row> rows = Run(agg);
  // COUNT over empty input is 0; SUM is NULL (one output row).
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt(), 0);
  EXPECT_TRUE(rows[0][1].is_null());
}

TEST_P(AggAlgTest, EmptyInputGroupedAggregateYieldsNoRows) {
  std::vector<plan::AggItem> aggs = {
      Item(AggFunc::kCountStar, nullptr, 0, TypeId::kInt64)};
  PhysPtr scan = EmpScan(Eq(Col(0, 0), Lit(-99)));
  PhysPtr agg;
  std::vector<plan::OutputCol> cols = {{{0, 1}, TypeId::kInt64, "dept"},
                                       {{9, 0}, TypeId::kInt64, "cnt"}};
  if (GetParam()) {
    agg = MakeHashAggregate(scan, {{0, 1}}, aggs, cols);
  } else {
    agg = MakeStreamAggregate(MakeSortExec(scan, {{{0, 1}, true}}), {{0, 1}},
                              aggs, cols);
  }
  EXPECT_TRUE(Run(agg).empty());
}

TEST_P(AggAlgTest, CountDistinct) {
  std::vector<plan::AggItem> aggs = {
      Item(AggFunc::kCount, Col(0, 1), 0, TypeId::kInt64, true)};
  PhysPtr agg = BuildAgg({}, aggs, {{{9, 0}, TypeId::kInt64, "cd"}});
  std::vector<Row> rows = Run(agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt(), 3);  // 10, 20, 30
}

TEST_P(AggAlgTest, SameResultsAtEveryCapacity) {
  // Four groups at capacity 2 end a batch inside the group stream, and the
  // scalar aggregate over empty input still yields its one row.
  std::vector<plan::AggItem> aggs = {
      Item(AggFunc::kCountStar, nullptr, 0, TypeId::kInt64),
      Item(AggFunc::kSum, Col(0, 2), 1, TypeId::kInt64)};
  PhysPtr grouped = BuildAgg({{0, 1}}, aggs,
                             {{{0, 1}, TypeId::kInt64, "dept"},
                              {{9, 0}, TypeId::kInt64, "count"},
                              {{9, 1}, TypeId::kInt64, "sum"}});
  EXPECT_EQ(RunAtEveryCapacity(grouped).rows.size(), 4u);
  PhysPtr scan = EmpScan(Eq(Col(0, 0), Lit(-99)));
  std::vector<plan::OutputCol> cols = {{{9, 0}, TypeId::kInt64, "cnt"},
                                       {{9, 1}, TypeId::kInt64, "sum"}};
  PhysPtr scalar = GetParam() ? MakeHashAggregate(scan, {}, aggs, cols)
                              : MakeStreamAggregate(scan, {}, aggs, cols);
  std::vector<Row> rows = RunAtEveryCapacity(scalar).rows;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt(), 0);
  EXPECT_TRUE(rows[0][1].is_null());
}

INSTANTIATE_TEST_SUITE_P(HashAndStream, AggAlgTest,
                         ::testing::Values(true, false),
                         [](const auto& info) {
                           return info.param ? "Hash" : "Stream";
                         });

class AggSemanticTest : public ExecTestBase {};

TEST_F(AggSemanticTest, SumIntStaysInt) {
  plan::AggItem item;
  item.func = AggFunc::kSum;
  item.arg = Col(0, 2);
  item.output = {9, 0};
  item.type = TypeId::kInt64;
  item.name = "s";
  PhysPtr agg = MakeHashAggregate(EmpScan(), {}, {item},
                                  {{{9, 0}, TypeId::kInt64, "s"}});
  std::vector<Row> rows = Run(agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].type(), TypeId::kInt64);
  EXPECT_EQ(rows[0][0].AsInt(), 1500);
}

TEST_F(AggSemanticTest, MinMaxIgnoreNulls) {
  plan::AggItem item;
  item.func = AggFunc::kMin;
  item.arg = Col(0, 1);
  item.output = {9, 0};
  item.type = TypeId::kInt64;
  item.name = "m";
  PhysPtr agg = MakeHashAggregate(EmpScan(), {}, {item},
                                  {{{9, 0}, TypeId::kInt64, "m"}});
  std::vector<Row> rows = Run(agg);
  EXPECT_EQ(rows[0][0].AsInt(), 10);
}

}  // namespace
}  // namespace qopt::exec
