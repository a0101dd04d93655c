// Partitioned tables: PartitionSpec routing, catalog validation,
// partition-major clustering in Table, and per-partition statistics.
#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "stats/stats_builder.h"
#include "storage/storage.h"

namespace qopt {
namespace {

PartitionSpec RangeSpec(int column, std::vector<int64_t> bounds) {
  PartitionSpec spec;
  spec.kind = PartitionKind::kRange;
  spec.column = column;
  for (int64_t b : bounds) spec.bounds.push_back(Value::Int(b));
  return spec;
}

PartitionSpec HashSpec(int column, int num_partitions) {
  PartitionSpec spec;
  spec.kind = PartitionKind::kHash;
  spec.column = column;
  spec.num_partitions = num_partitions;
  return spec;
}

TEST(PartitionSpecTest, RangeRouting) {
  PartitionSpec spec = RangeSpec(0, {10, 20});
  EXPECT_EQ(spec.count(), 3);
  EXPECT_EQ(spec.PartitionOf(Value::Int(-5)), 0);
  EXPECT_EQ(spec.PartitionOf(Value::Int(9)), 0);
  EXPECT_EQ(spec.PartitionOf(Value::Int(10)), 1);  // bounds are exclusive
  EXPECT_EQ(spec.PartitionOf(Value::Int(19)), 1);
  EXPECT_EQ(spec.PartitionOf(Value::Int(20)), 2);
  EXPECT_EQ(spec.PartitionOf(Value::Int(1000)), 2);
  // NULL keys route to partition 0 by convention.
  EXPECT_EQ(spec.PartitionOf(Value::Null()), 0);
}

TEST(PartitionSpecTest, HashRoutingIsStableAndInRange) {
  PartitionSpec spec = HashSpec(0, 4);
  EXPECT_EQ(spec.count(), 4);
  for (int64_t v = 0; v < 100; ++v) {
    int p = spec.PartitionOf(Value::Int(v));
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 4);
    EXPECT_EQ(p, spec.PartitionOf(Value::Int(v)));  // deterministic
  }
  EXPECT_EQ(spec.PartitionOf(Value::Null()), 0);
}

TEST(PartitionCatalogTest, ValidatesSpecs) {
  Catalog catalog;
  std::vector<ColumnDef> cols = {{"id", TypeId::kInt64},
                                 {"k", TypeId::kInt64}};
  // Partition column out of range.
  EXPECT_FALSE(
      catalog.CreateTable("t1", cols, 0, RangeSpec(7, {10})).ok());
  // Range spec with no bounds.
  EXPECT_FALSE(catalog.CreateTable("t2", cols, 0, RangeSpec(1, {})).ok());
  // Bounds not strictly ascending.
  EXPECT_FALSE(
      catalog.CreateTable("t3", cols, 0, RangeSpec(1, {10, 10})).ok());
  // Hash with a single partition is pointless.
  EXPECT_FALSE(catalog.CreateTable("t4", cols, 0, HashSpec(1, 1)).ok());
  // A valid spec lands on the TableDef.
  auto id = catalog.CreateTable("t5", cols, 0, RangeSpec(1, {10, 20}));
  ASSERT_TRUE(id.ok());
  const TableDef* def = catalog.GetTable(id.value());
  ASSERT_NE(def, nullptr);
  EXPECT_TRUE(def->partition.enabled());
  EXPECT_EQ(def->partition.count(), 3);
}

class PartitionedTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto id = catalog_.CreateTable(
        "t", {{"k", TypeId::kInt64}, {"v", TypeId::kInt64}}, -1,
        RangeSpec(0, {10, 20}));
    ASSERT_TRUE(id.ok());
    storage_ = std::make_unique<Storage>(&catalog_);
    table_ = storage_->GetTable(id.value());
    ASSERT_NE(table_, nullptr);
  }

  // Every partition's range must be contiguous, partition-major, and hold
  // exactly the rows that route to it.
  void CheckClustering() {
    const PartitionSpec& spec = catalog_.GetTable("t")->partition;
    size_t expected_start = 0;
    for (int p = 0; p < table_->num_partitions(); ++p) {
      auto [begin, end] = table_->PartitionRange(p);
      EXPECT_EQ(begin, expected_start) << "partition " << p;
      expected_start = end;
      for (size_t r = begin; r < end; ++r) {
        EXPECT_EQ(spec.PartitionOf(table_->RowAt(static_cast<uint32_t>(r))[0]),
                  p)
            << "row " << r;
      }
    }
    EXPECT_EQ(expected_start, table_->num_rows());
  }

  Catalog catalog_;
  std::unique_ptr<Storage> storage_;
  Table* table_ = nullptr;
};

TEST_F(PartitionedTableTest, AppendClustersPartitionMajor) {
  for (int64_t k : {25, 5, 15, 12, 3, 30, 8}) {
    ASSERT_TRUE(table_->Append({Value::Int(k), Value::Int(k * 10)}).ok());
  }
  EXPECT_EQ(table_->num_partitions(), 3);
  EXPECT_EQ(table_->num_rows(), 7u);
  CheckClustering();
  auto [b0, e0] = table_->PartitionRange(0);
  EXPECT_EQ(e0 - b0, 3u);  // 5, 3, 8
  auto [b1, e1] = table_->PartitionRange(1);
  EXPECT_EQ(e1 - b1, 2u);  // 15, 12
  auto [b2, e2] = table_->PartitionRange(2);
  EXPECT_EQ(e2 - b2, 2u);  // 25, 30
}

TEST_F(PartitionedTableTest, AppendPreservesArrivalOrderWithinPartition) {
  for (int64_t k : {5, 25, 3, 8}) {
    ASSERT_TRUE(table_->Append({Value::Int(k), Value::Int(k)}).ok());
  }
  auto [b0, e0] = table_->PartitionRange(0);
  ASSERT_EQ(e0 - b0, 3u);
  EXPECT_EQ(table_->RowAt(static_cast<uint32_t>(b0))[0].AsInt(), 5);
  EXPECT_EQ(table_->RowAt(static_cast<uint32_t>(b0 + 1))[0].AsInt(), 3);
  EXPECT_EQ(table_->RowAt(static_cast<uint32_t>(b0 + 2))[0].AsInt(), 8);
}

TEST_F(PartitionedTableTest, BulkAppendMergesStably) {
  ASSERT_TRUE(table_->Append({Value::Int(5), Value::Int(1)}).ok());
  ASSERT_TRUE(table_->Append({Value::Int(15), Value::Int(2)}).ok());
  std::vector<Row> bulk;
  for (int64_t k : {25, 7, 11, 2}) {
    bulk.push_back({Value::Int(k), Value::Int(100 + k)});
  }
  table_->AppendUnchecked(std::move(bulk));
  EXPECT_EQ(table_->num_rows(), 6u);
  CheckClustering();
  // Old rows stay ahead of new rows within their partition.
  auto [b0, e0] = table_->PartitionRange(0);
  ASSERT_EQ(e0 - b0, 3u);
  EXPECT_EQ(table_->RowAt(static_cast<uint32_t>(b0))[0].AsInt(), 5);
  EXPECT_EQ(table_->RowAt(static_cast<uint32_t>(b0 + 1))[0].AsInt(), 7);
  EXPECT_EQ(table_->RowAt(static_cast<uint32_t>(b0 + 2))[0].AsInt(), 2);
}

TEST_F(PartitionedTableTest, StatsRecordPerPartitionRowsAndPages) {
  std::vector<Row> bulk;
  for (int64_t i = 0; i < 300; ++i) {
    bulk.push_back({Value::Int(i % 30), Value::Int(i)});
  }
  table_->AppendUnchecked(std::move(bulk));
  std::shared_ptr<const stats::TableStats> built =
      stats::BuildTableStats(*table_, {});
  const stats::TableStats& stats = *built;
  ASSERT_EQ(stats.partition_rows.size(), 3u);
  ASSERT_EQ(stats.partition_pages.size(), 3u);
  double total_rows = 0, total_pages = 0;
  for (int p = 0; p < 3; ++p) {
    auto [begin, end] = table_->PartitionRange(p);
    EXPECT_DOUBLE_EQ(stats.partition_rows[p],
                     static_cast<double>(end - begin));
    total_rows += stats.partition_rows[p];
    total_pages += stats.partition_pages[p];
  }
  EXPECT_DOUBLE_EQ(total_rows, static_cast<double>(table_->num_rows()));
  EXPECT_NEAR(total_pages, table_->num_pages(), 1e-9);
}

TEST(UnpartitionedTableTest, HasSingleImplicitPartition) {
  Catalog catalog;
  ASSERT_TRUE(
      catalog.CreateTable("t", {{"k", TypeId::kInt64}}, -1).ok());
  Storage storage(&catalog);
  Table* t = storage.GetTable(0);
  t->AppendUnchecked({{Value::Int(1)}, {Value::Int(2)}});
  EXPECT_EQ(t->num_partitions(), 1);
  auto [begin, end] = t->PartitionRange(0);
  EXPECT_EQ(begin, 0u);
  EXPECT_EQ(end, 2u);
}

}  // namespace
}  // namespace qopt
