// A column's declared type is the only type its cells have: INSERT coerces
// numeric literals to it or rejects them, a CASE is typed by all of its
// branches, and a UNION column typed DOUBLE widens its INT arms. Each query
// runs under every execution mode with compiled and interpreted
// expressions; the results must agree cell for cell, TypeId included
// (testing::ExpectSameRows would take 2 and 2.0 as equal).
#include <gtest/gtest.h>

#include <algorithm>

#include "engine/database.h"
#include "storage/index.h"

namespace qopt {
namespace {

class DeclaredTypeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, "
                            "d DOUBLE)")
                    .ok());
    ASSERT_TRUE(
        db_.Execute("INSERT INTO t VALUES (1, 2, 0.5), (2, 3, 1.5)").ok());
  }

  /// Runs `sql` row-wise, batch-wise and morsel-parallel, each with
  /// compiled and with interpreted expressions; every run must return the
  /// same rows, cell types included. Returns them sorted.
  std::vector<Row> Run(const std::string& sql) {
    std::vector<Row> first;
    bool have_first = false;
    for (exec::ExecMode mode : {exec::ExecMode::kRow, exec::ExecMode::kBatch,
                                exec::ExecMode::kParallel}) {
      for (bool compiled : {true, false}) {
        QueryOptions options;
        options.execution_mode = mode;
        options.compile_expressions = compiled;
        options.dop = 2;
        const std::string label =
            sql + " [mode " + std::to_string(static_cast<int>(mode)) +
            (compiled ? " compiled]" : " interpreted]");
        auto result = db_.Query(sql, options);
        EXPECT_TRUE(result.ok()) << label << ": " << result.status().ToString();
        if (!result.ok()) return {};
        std::vector<Row> rows = std::move(result->rows);
        std::sort(rows.begin(), rows.end(), [](const Row& x, const Row& y) {
          for (size_t i = 0; i < x.size(); ++i) {
            if (int c = x[i].Compare(y[i]); c != 0) return c < 0;
          }
          return false;
        });
        if (!have_first) {
          first = std::move(rows);
          have_first = true;
        } else {
          ExpectSameCells(rows, first, label);
        }
      }
    }
    return first;
  }

  /// Asserts that `sql` fails to bind with compiled and interpreted
  /// expressions.
  void ExpectBindError(const std::string& sql) {
    for (bool compiled : {true, false}) {
      QueryOptions options;
      options.compile_expressions = compiled;
      auto result = db_.Query(sql, options);
      ASSERT_FALSE(result.ok()) << sql;
      EXPECT_EQ(result.status().code(), StatusCode::kBindError)
          << sql << ": " << result.status().ToString();
    }
  }

  static void ExpectSameCells(const std::vector<Row>& got,
                              const std::vector<Row>& want,
                              const std::string& label) {
    ASSERT_EQ(got.size(), want.size()) << label;
    for (size_t r = 0; r < got.size(); ++r) {
      ASSERT_EQ(got[r].size(), want[r].size()) << label;
      for (size_t c = 0; c < got[r].size(); ++c) {
        EXPECT_EQ(got[r][c].type(), want[r][c].type())
            << label << " row " << r << " col " << c << ": got "
            << RowToString(got[r]) << ", want " << RowToString(want[r]);
        EXPECT_EQ(got[r][c].Compare(want[r][c]), 0)
            << label << " row " << r << " col " << c << ": got "
            << RowToString(got[r]) << ", want " << RowToString(want[r]);
      }
    }
  }

  Database db_;
};

TEST_F(DeclaredTypeTest, LossyInsertIsRejected) {
  Status st = db_.Execute("INSERT INTO t VALUES (3, 1.5, 1)");
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("'a'"), std::string::npos) << st.message();
  ExpectSameCells(Run("SELECT a + 1 FROM t"),
                  {{Value::Int(3)}, {Value::Int(4)}}, "after the rejection");
}

TEST_F(DeclaredTypeTest, InsertCoercesNumericLiterals) {
  ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (3, 2.0, 1)").ok());
  ExpectSameCells(Run("SELECT a, d FROM t WHERE id = 3"),
                  {{Value::Int(2), Value::Double(1.0)}}, "stored cells");
  ExpectSameCells(Run("SELECT a + 1 FROM t"),
                  {{Value::Int(3)}, {Value::Int(3)}, {Value::Int(4)}},
                  "a + 1");
  ExpectSameCells(
      Run("SELECT d + 1 FROM t"),
      {{Value::Double(1.5)}, {Value::Double(2.0)}, {Value::Double(2.5)}},
      "d + 1");
  // The coerced cells compare with constants of either numeric type.
  ExpectSameCells(Run("SELECT id FROM t WHERE a = 2.0 AND d = 1"),
                  {{Value::Int(3)}}, "predicates");
}

TEST_F(DeclaredTypeTest, LossyRowOfMultiRowInsertKeepsEarlierRowsIndexed) {
  ASSERT_TRUE(db_.Execute("CREATE INDEX ia ON t(a)").ok());
  ASSERT_TRUE(db_.Execute("CREATE INDEX id_d ON t(d)").ok());
  const TableDef* def = db_.catalog().GetTable("t");
  for (int id : def->index_ids) {
    ASSERT_NE(db_.storage().GetSortedIndex(id), nullptr);  // built
  }
  Status st = db_.Execute(
      "INSERT INTO t VALUES (3, 7, 4), (4, 8.0, 5.5), (5, 9.25, 6)");
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  const Table& table = *db_.storage().GetTable(def->id);
  ASSERT_EQ(table.num_rows(), 4u);
  for (int id : def->index_ids) {
    const SortedIndex fresh(db_.catalog().GetIndex(id), &table);
    EXPECT_EQ(db_.storage().GetSortedIndex(id)->FullScan(), fresh.FullScan())
        << "index " << id;
  }
  ExpectSameCells(Run("SELECT id, a, d FROM t WHERE a >= 7"),
                  {{Value::Int(3), Value::Int(7), Value::Double(4.0)},
                   {Value::Int(4), Value::Int(8), Value::Double(5.5)}},
                  "rows before the lossy one");
  ExpectSameCells(Run("SELECT id FROM t WHERE d = 4"), {{Value::Int(3)}},
                  "widened key");
}

TEST_F(DeclaredTypeTest, CaseBranchesMustShareAType) {
  ExpectBindError("SELECT CASE WHEN a > 2 THEN 1 ELSE 'x' END + 1 FROM t");
  ExpectBindError("SELECT SUM(CASE WHEN a > 2 THEN 1 ELSE 'x' END) FROM t");
  ExpectBindError("SELECT CASE WHEN a > 2 THEN 'y' WHEN a > 1 THEN TRUE END "
                  "FROM t");
}

TEST_F(DeclaredTypeTest, CaseOfIntAndDoubleIsDouble) {
  ExpectSameCells(
      Run("SELECT MIN(CASE WHEN a > 2 THEN 2.5 ELSE 1 END) FROM t"),
      {{Value::Double(1.0)}}, "MIN over CASE");
  ExpectSameCells(
      Run("SELECT CASE WHEN a > 2 THEN 2.5 ELSE a END + 1 FROM t"),
      {{Value::Double(3.0)}, {Value::Double(3.5)}}, "CASE + 1");
  ExpectSameCells(
      Run("SELECT CASE WHEN a > 2 THEN NULL ELSE 1 END FROM t"),
      {{Value::Null()}, {Value::Int(1)}}, "NULL branch");
}

TEST_F(DeclaredTypeTest, UnionAllWidensItsIntArm) {
  ExpectSameCells(
      Run("SELECT a + 1 FROM (SELECT a FROM t UNION ALL SELECT d FROM t) s"),
      {{Value::Double(1.5)},
       {Value::Double(2.5)},
       {Value::Double(3.0)},
       {Value::Double(4.0)}},
      "UNION ALL");
}

TEST_F(DeclaredTypeTest, SetOperationsOverMixedArmsDeduplicate) {
  // d + 1.5 is 2.0 and 3.0: equal to the INT cells of a.
  ExpectSameCells(
      Run("SELECT a + 1 FROM (SELECT a FROM t UNION SELECT d + 1.5 FROM t) s"),
      {{Value::Double(3.0)}, {Value::Double(4.0)}}, "UNION");
  ExpectSameCells(Run("SELECT a + 1 FROM (SELECT a FROM t EXCEPT SELECT d + "
                      "1.5 FROM t WHERE id = 1) s"),
                  {{Value::Double(4.0)}}, "EXCEPT");
  ExpectSameCells(Run("SELECT a + 1 FROM (SELECT a FROM t INTERSECT SELECT "
                      "d + 1.5 FROM t) s"),
                  {{Value::Double(3.0)}, {Value::Double(4.0)}}, "INTERSECT");
}

}  // namespace
}  // namespace qopt
