#include "storage/table.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>

namespace qopt {
namespace {

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .CreateTable("t",
                                 {{"id", TypeId::kInt64},
                                  {"v", TypeId::kDouble},
                                  {"s", TypeId::kString}},
                                 0)
                    .ok());
    def_ = catalog_.GetTable("t");
  }
  Catalog catalog_;
  const TableDef* def_ = nullptr;
};

TEST_F(TableTest, AppendAndRead) {
  Table table(def_);
  ASSERT_TRUE(
      table.Append({Value::Int(1), Value::Double(2.5), Value::String("a")})
          .ok());
  EXPECT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.RowAt(0)[0].AsInt(), 1);
}

TEST_F(TableTest, ArityMismatchRejected) {
  Table table(def_);
  EXPECT_FALSE(table.Append({Value::Int(1)}).ok());
}

TEST_F(TableTest, TypeMismatchRejected) {
  Table table(def_);
  EXPECT_FALSE(
      table.Append({Value::String("x"), Value::Double(1), Value::String("a")})
          .ok());
}

TEST_F(TableTest, NumericCoercionAllowed) {
  Table table(def_);
  // Int into a double column widens; an integral double into an int column
  // narrows.
  EXPECT_TRUE(
      table.Append({Value::Int(1), Value::Int(2), Value::String("a")}).ok());
  EXPECT_TRUE(
      table.Append({Value::Double(-0.0), Value::Double(3), Value::String("b")})
          .ok());
  ASSERT_EQ(table.Get(0, 1).type(), TypeId::kDouble);
  EXPECT_EQ(table.Get(0, 1).AsDouble(), 2.0);
  ASSERT_EQ(table.Get(1, 0).type(), TypeId::kInt64);
  EXPECT_EQ(table.Get(1, 0).AsInt(), 0);
}

TEST_F(TableTest, LossyNumericCellRejected) {
  Table table(def_);
  const double lossy[] = {1.5, std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(), 0x1p63,
                          -0x1p64};
  for (double d : lossy) {
    Status st =
        table.Append({Value::Double(d), Value::Double(1), Value::String("a")});
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << d;
    EXPECT_NE(st.message().find("'id'"), std::string::npos) << st.message();
  }
  EXPECT_EQ(table.num_rows(), 0u);
  // The int64 range ends are exact doubles.
  ASSERT_TRUE(
      table.Append({Value::Double(-0x1p63), Value::Null(), Value::Null()})
          .ok());
  EXPECT_EQ(table.Get(0, 0).AsInt(), std::numeric_limits<int64_t>::min());
}

TEST_F(TableTest, NullPrimaryKeyRejected) {
  Table table(def_);
  EXPECT_FALSE(
      table.Append({Value::Null(), Value::Double(1), Value::String("a")})
          .ok());
  // NULL in a non-key column is fine.
  EXPECT_TRUE(
      table.Append({Value::Int(1), Value::Null(), Value::Null()}).ok());
}

TEST_F(TableTest, PageAccounting) {
  Table table(def_);
  EXPECT_EQ(table.num_pages(), 0.0);
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i) {
    rows.push_back({Value::Int(i), Value::Double(i), Value::String("abcdef")});
  }
  table.AppendUnchecked(std::move(rows));
  EXPECT_EQ(table.num_rows(), 1000u);
  // 26 bytes/row => ~6.3 pages of 4K.
  EXPECT_GT(table.num_pages(), 5.0);
  EXPECT_LT(table.num_pages(), 8.0);
  EXPECT_NEAR(table.avg_row_bytes(), 26.0, 1.0);
}

TEST_F(TableTest, TypedCellsRoundTripThroughGet) {
  Table table(def_);
  const double cells[] = {2.5, -0.0, std::numeric_limits<double>::quiet_NaN(),
                          1e300};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(table
                    .Append({Value::Int(int64_t{1} << (15 * i)),
                             Value::Double(cells[i]), Value::String("a")})
                    .ok());
  }
  for (size_t r = 0; r < 4; ++r) {
    const Value id = table.Get(r, 0);
    ASSERT_EQ(id.type(), TypeId::kInt64);
    EXPECT_EQ(id.AsInt(), int64_t{1} << (15 * r));
    const Value v = table.Get(r, 1);
    ASSERT_EQ(v.type(), TypeId::kDouble);
    // Bit-exact: -0.0 keeps its sign and NaN stays NaN.
    const double got = v.AsDouble();
    EXPECT_EQ(std::memcmp(&got, &cells[r], sizeof got), 0) << r;
    EXPECT_EQ(table.Get(r, 2).AsString(), "a");
  }
}

TEST_F(TableTest, DoubleColumnTakingAnIntCellWidensIt) {
  Table table(def_);
  ASSERT_TRUE(
      table.Append({Value::Int(1), Value::Double(1.5), Value::String("a")})
          .ok());
  ASSERT_TRUE(table.Append({Value::Int(2), Value::Null(), Value::Null()}).ok());
  ASSERT_TRUE(
      table.Append({Value::Int(3), Value::Int(7), Value::String("c")}).ok());
  ASSERT_TRUE(
      table.Append({Value::Int(4), Value::Double(8.5), Value::String("d")})
          .ok());
  EXPECT_EQ(table.Get(0, 1).type(), TypeId::kDouble);
  EXPECT_EQ(table.Get(0, 1).AsDouble(), 1.5);
  EXPECT_TRUE(table.Get(1, 1).is_null());
  ASSERT_EQ(table.Get(2, 1).type(), TypeId::kDouble);
  EXPECT_EQ(table.Get(2, 1).AsDouble(), 7.0);
  ASSERT_EQ(table.Get(3, 1).type(), TypeId::kDouble);
  EXPECT_EQ(table.Get(3, 1).AsDouble(), 8.5);
  // A bulk append coerces as Append does.
  table.AppendUnchecked({{Value::Double(5), Value::Int(9), Value::Null()}});
  ASSERT_EQ(table.Get(4, 0).type(), TypeId::kInt64);
  EXPECT_EQ(table.Get(4, 0).AsInt(), 5);
  ASSERT_EQ(table.Get(4, 1).type(), TypeId::kDouble);
  EXPECT_EQ(table.Get(4, 1).AsDouble(), 9.0);
}

TEST_F(TableTest, NullInTypedColumnReadsBackNull) {
  Table table(def_);
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({Value::Int(i),
                    i % 3 == 0 ? Value::Null() : Value::Double(i),
                    Value::String("x")});
  }
  table.AppendUnchecked(std::move(rows));
  ASSERT_TRUE(
      table.Append({Value::Int(10), Value::Double(0), Value::Null()}).ok());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const Value v = table.Get(r, 1);
    if (r % 3 == 0 && r < 10) {
      EXPECT_TRUE(v.is_null()) << r;
    } else {
      ASSERT_EQ(v.type(), TypeId::kDouble) << r;
      EXPECT_EQ(v.AsDouble(), r == 10 ? 0.0 : static_cast<double>(r));
    }
  }
  EXPECT_TRUE(table.Get(10, 2).is_null());
}

TEST(PartitionedTableLayoutTest, MiddlePartitionAppendKeepsColumnsAligned) {
  Catalog catalog;
  PartitionSpec spec;
  spec.kind = PartitionKind::kRange;
  spec.column = 0;
  spec.bounds = {Value::Int(10), Value::Int(20)};
  ASSERT_TRUE(catalog
                  .CreateTable("p",
                               {{"k", TypeId::kInt64},
                                {"d", TypeId::kDouble},
                                {"s", TypeId::kString},
                                {"b", TypeId::kBool}},
                               0, spec)
                  .ok());
  Table table(catalog.GetTable("p"));
  // Every cell is a function of the key, so a misaligned column shows.
  auto row_of = [](int64_t k) -> Row {
    return {Value::Int(k),
            k % 4 == 0 ? Value::Null()
                       : Value::Double(static_cast<double>(k) / 2),
            Value::String("s" + std::to_string(k)), Value::Bool(k % 2 == 0)};
  };
  auto check = [&](size_t expected_rows) {
    ASSERT_EQ(table.num_rows(), expected_rows);
    for (int p = 0; p < table.num_partitions(); ++p) {
      auto [begin, end] = table.PartitionRange(p);
      for (size_t r = begin; r < end; ++r) {
        const Row got = table.RowAt(r);
        const int64_t k = got[0].AsInt();
        EXPECT_EQ(spec.PartitionOf(got[0]), p) << "row " << r;
        EXPECT_TRUE(RowEq()(got, row_of(k)))
            << "row " << r << ": " << RowToString(got);
      }
    }
  };
  std::vector<Row> bulk;
  for (int64_t k : {1, 11, 21, 3, 13, 23, 5}) bulk.push_back(row_of(k));
  table.AppendUnchecked(std::move(bulk));
  check(7);
  // Into the middle partition, with the first NULL of the double column.
  ASSERT_TRUE(table.Append(row_of(12)).ok());
  check(8);
  EXPECT_EQ(table.RowAt(table.PartitionRange(1).second - 1)[0].AsInt(), 12);
  // A bulk append after it rebuilds the clustering around the NULL flags.
  bulk.clear();
  for (int64_t k : {15, 2, 25}) bulk.push_back(row_of(k));
  table.AppendUnchecked(std::move(bulk));
  check(11);
  // An int cell in the double column widens mid-partition.
  Row odd = row_of(17);
  odd[1] = Value::Int(8);
  ASSERT_TRUE(table.Append(odd).ok());
  const size_t at = table.PartitionRange(1).second - 1;
  ASSERT_EQ(table.Get(at, 1).type(), TypeId::kDouble);
  EXPECT_EQ(table.Get(at, 1).AsDouble(), 8.0);
  EXPECT_EQ(table.Get(at, 2).AsString(), "s17");
  EXPECT_EQ(table.Get(at - 1, 1).AsDouble(), 7.5);  // key 15
}

}  // namespace
}  // namespace qopt
