#include "storage/index.h"

#include <gtest/gtest.h>

#include "storage/storage.h"

namespace qopt {
namespace {

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .CreateTable(
                        "t", {{"id", TypeId::kInt64}, {"k", TypeId::kInt64}},
                        0)
                    .ok());
    ASSERT_TRUE(catalog_.CreateIndex("idx_k", "t", "k").ok());
    def_ = catalog_.GetTable("t");
    table_ = std::make_unique<Table>(def_);
    // k values: 5, 3, 8, 3, NULL, 1
    int64_t ks[] = {5, 3, 8, 3, -1, 1};
    for (int i = 0; i < 6; ++i) {
      Value k = ks[i] < 0 ? Value::Null() : Value::Int(ks[i]);
      ASSERT_TRUE(table_->Append({Value::Int(i), k}).ok());
    }
    index_ = std::make_unique<SortedIndex>(catalog_.GetIndex(0), table_.get());
  }

  Catalog catalog_;
  const TableDef* def_ = nullptr;
  std::unique_ptr<Table> table_;
  std::unique_ptr<SortedIndex> index_;
};

TEST_F(IndexTest, NullKeysExcluded) {
  EXPECT_EQ(index_->num_entries(), 5u);
}

TEST_F(IndexTest, PointLookup) {
  std::vector<uint32_t> hits = index_->Lookup(Value::Int(3));
  EXPECT_EQ(hits.size(), 2u);
  for (uint32_t id : hits) {
    EXPECT_EQ(table_->RowAt(id)[1].AsInt(), 3);
  }
  EXPECT_TRUE(index_->Lookup(Value::Int(99)).empty());
}

TEST_F(IndexTest, RangeScanInclusive) {
  std::vector<uint32_t> hits =
      index_->RangeScan(IndexBound{Value::Int(3), true},
                        IndexBound{Value::Int(5), true});
  ASSERT_EQ(hits.size(), 3u);
  // Key order: 3, 3, 5.
  EXPECT_EQ(table_->RowAt(hits[0])[1].AsInt(), 3);
  EXPECT_EQ(table_->RowAt(hits[2])[1].AsInt(), 5);
}

TEST_F(IndexTest, RangeScanExclusive) {
  std::vector<uint32_t> hits =
      index_->RangeScan(IndexBound{Value::Int(3), false},
                        IndexBound{Value::Int(8), false});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(table_->RowAt(hits[0])[1].AsInt(), 5);
}

TEST_F(IndexTest, OpenRanges) {
  EXPECT_EQ(index_->RangeScan({}, IndexBound{Value::Int(3), true}).size(), 3u);
  EXPECT_EQ(index_->RangeScan(IndexBound{Value::Int(5), true}, {}).size(), 2u);
  EXPECT_EQ(index_->RangeScan({}, {}).size(), 5u);
}

TEST_F(IndexTest, FullScanIsOrdered) {
  std::vector<uint32_t> all = index_->FullScan();
  ASSERT_EQ(all.size(), 5u);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(table_->RowAt(all[i - 1])[1].AsInt(),
              table_->RowAt(all[i])[1].AsInt());
  }
}

TEST(StorageTest, LazyIndexBuildAndInvalidation) {
  Catalog catalog;
  ASSERT_TRUE(
      catalog.CreateTable("t", {{"a", TypeId::kInt64}}, 0).ok());
  ASSERT_TRUE(catalog.CreateIndex("i", "t", "a").ok());
  Storage storage(&catalog);
  Table* t = storage.GetTable(0);
  t->AppendUnchecked({{Value::Int(2)}, {Value::Int(1)}});
  const SortedIndex* idx = storage.GetSortedIndex(0);
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->num_entries(), 2u);
  // Appending invalidates; rebuild sees new rows.
  t->AppendUnchecked({{Value::Int(3)}});
  storage.InvalidateIndexes(0);
  EXPECT_EQ(storage.GetSortedIndex(0)->num_entries(), 3u);
}

}  // namespace
}  // namespace qopt
