// Spill-to-disk degradation: the SpillFile format round-trips, the
// external sort produces the exact in-memory ordering (including tie
// stability) across single- and multi-pass merges, and the grace hash
// join matches the in-memory hash join's result multiset — all under
// budgets tiny enough to force heavy spilling.
#include <gtest/gtest.h>

#include <filesystem>

#include "storage/spill.h"
#include "tests/testing/db_fixtures.h"

namespace qopt {
namespace {

TEST(SpillFileTest, RoundTripsEveryValueType) {
  auto file = SpillFile::Create("");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  std::vector<Row> rows = {
      {Value::Int(42), Value::String("hello"), Value::Double(3.5),
       Value::Bool(true), Value::Null()},
      {Value::Int(-7), Value::String(""), Value::Double(-0.25),
       Value::Bool(false), Value::Int(0)},
  };
  for (const Row& r : rows) {
    ASSERT_TRUE(file.value()->Append(r).ok());
  }
  ASSERT_TRUE(file.value()->FinishWrite().ok());
  EXPECT_EQ(file.value()->rows(), 2u);
  EXPECT_GT(file.value()->bytes_written(), 0u);
  ASSERT_TRUE(file.value()->Rewind().ok());
  for (const Row& want : rows) {
    Row got;
    auto more = file.value()->ReadNext(&got);
    ASSERT_TRUE(more.ok() && more.value());
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(got[i].is_null() == want[i].is_null() &&
                  (got[i].is_null() || got[i].Compare(want[i]) == 0));
    }
  }
  Row extra;
  auto more = file.value()->ReadNext(&extra);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(more.value());
}

TEST(SpillFileTest, DestructorRemovesBackingFile) {
  std::string path;
  {
    auto file = SpillFile::Create("");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append({Value::Int(1)}).ok());
    ASSERT_TRUE(file.value()->FinishWrite().ok());
    path = file.value()->path();
    EXPECT_TRUE(std::filesystem::exists(path));
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

// End-to-end fixture: a table big enough that tiny budgets force many
// runs / partitions, with duplicate sort keys to expose instability.
class SpillExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT, "
                            "payload STRING)")
                    .ok());
    ASSERT_TRUE(
        db_.Execute("CREATE TABLE g (gid INT PRIMARY KEY, label STRING)")
            .ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 3000; ++i) {
      rows.push_back({Value::Int(i), Value::Int(i % 17),
                      Value::String("p" + std::to_string(i % 97))});
    }
    ASSERT_TRUE(db_.BulkLoad("t", std::move(rows)).ok());
    std::vector<Row> groups;
    for (int64_t gid = 0; gid < 17; ++gid) {
      // gid 16 has no matching label row in some queries via filters.
      groups.push_back({Value::Int(gid),
                        Value::String("g" + std::to_string(gid))});
    }
    ASSERT_TRUE(db_.BulkLoad("g", std::move(groups)).ok());
    ASSERT_TRUE(db_.AnalyzeAll().ok());
  }

  QueryResult Run(const std::string& sql, QueryOptions opts) {
    auto r = db_.Query(sql, opts);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? std::move(r.value()) : QueryResult{};
  }

  /// Exact (ordered) row equality — the bar for ORDER BY results.
  static void ExpectIdentical(const std::vector<Row>& got,
                              const std::vector<Row>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(RowEq()(got[i], want[i])) << "row " << i;
    }
  }

  Database db_;
};

TEST_F(SpillExecTest, ExternalSortMatchesInMemorySortExactly) {
  // Duplicate keys (grp has 17 values over 3000 rows): ordering parity
  // requires the external merge to preserve run-order ties, i.e. the
  // stable_sort semantics of the in-memory path.
  const std::string sql =
      "SELECT t.grp, t.id FROM t ORDER BY t.grp";
  QueryResult baseline = Run(sql, {});
  EXPECT_EQ(baseline.exec_stats.spill_runs, 0u);
  for (exec::ExecMode mode : {exec::ExecMode::kRow, exec::ExecMode::kBatch}) {
    QueryOptions opts;
    opts.execution_mode = mode;
    opts.spill.operator_budget_bytes = 4 * 1024;  // dozens of runs
    QueryResult spilled = Run(sql, opts);
    EXPECT_GT(spilled.exec_stats.spill_runs, 1u);
    EXPECT_GT(spilled.exec_stats.spill_bytes_written, 0u);
    ExpectIdentical(spilled.rows, baseline.rows);
  }
}

TEST_F(SpillExecTest, MultiPassMergeAtTinyFanin) {
  const std::string sql =
      "SELECT t.payload, t.id FROM t ORDER BY t.payload, t.id";
  QueryResult baseline = Run(sql, {});
  QueryOptions opts;
  opts.spill.operator_budget_bytes = 2 * 1024;
  opts.spill.merge_fanin = 2;  // forces log2(runs) merge passes
  QueryResult spilled = Run(sql, opts);
  // Intermediate merge passes write new runs, so the run count exceeds
  // what run generation alone produced.
  EXPECT_GT(spilled.exec_stats.spill_runs, 8u);
  ExpectIdentical(spilled.rows, baseline.rows);
}

TEST_F(SpillExecTest, GraceHashJoinMatchesInMemoryJoin) {
  const std::string sql =
      "SELECT t.id, g.label FROM t, g WHERE t.grp = g.gid AND t.id < 2500";
  QueryResult baseline = Run(sql, {});
  EXPECT_EQ(baseline.exec_stats.spill_runs, 0u);
  for (exec::ExecMode mode : {exec::ExecMode::kRow, exec::ExecMode::kBatch,
                              exec::ExecMode::kParallel}) {
    QueryOptions opts;
    opts.execution_mode = mode;
    opts.dop = 4;
    opts.spill.operator_budget_bytes = 1024;
    opts.spill.partitions = 4;
    QueryResult spilled = Run(sql, opts);
    // Build + probe partition files all count as spill runs.
    EXPECT_GT(spilled.exec_stats.spill_runs, 0u);
    // Grace output order is partition-major, not probe order: compare as
    // multisets.
    testing::ExpectSameRows(spilled.rows, baseline.rows);
  }
}

TEST_F(SpillExecTest, SpilledJoinFeedingSpilledSortIsByteIdentical) {
  const std::string sql =
      "SELECT t.id, g.label FROM t, g WHERE t.grp = g.gid "
      "ORDER BY t.id";
  QueryResult baseline = Run(sql, {});
  QueryOptions opts;
  opts.spill.operator_budget_bytes = 8 * 1024;
  QueryResult spilled = Run(sql, opts);
  EXPECT_GT(spilled.exec_stats.spill_runs, 0u);
  // The total order restores determinism above the grace join.
  ExpectIdentical(spilled.rows, baseline.rows);
}

TEST_F(SpillExecTest, GovernorBudgetDegradesInsteadOfFailing) {
  const std::string sql =
      "SELECT t.id, t.payload FROM t ORDER BY t.payload, t.id LIMIT 5";
  // Without spill: the sort's materialization blows the memory budget.
  QueryOptions hard;
  hard.spill.enabled = false;
  hard.governor.max_memory_bytes = 16 * 1024;
  auto failed = db_.Query(sql, hard);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  // With spill (default-enabled): same budget, the sort degrades to disk.
  QueryOptions soft;
  soft.governor.max_memory_bytes = 16 * 1024;
  QueryResult degraded = Run(sql, soft);
  EXPECT_GT(degraded.exec_stats.spill_runs, 0u);
  ExpectIdentical(degraded.rows, Run(sql, {}).rows);
}

// A budget that is never crossed costs nothing: under the serving-path
// governor defaults spill is armed, yet the join stays vectorized inside a
// parallel region under a parallel aggregate, and nothing spills.
TEST_F(SpillExecTest, UncrossedBudgetKeepsBatchAndParallelJoins) {
  const std::string sql =
      "SELECT t.payload, COUNT(*) FROM t, g WHERE t.grp = g.gid "
      "GROUP BY t.payload";
  QueryOptions opts;
  opts.execution_mode = exec::ExecMode::kParallel;
  opts.dop = 4;
  opts.governor = GovernorOptions::ServiceDefaults();
  QueryResult governed = Run(sql, opts);
  EXPECT_EQ(governed.exec_stats.spill_runs, 0u);
  QueryOptions unarmed = opts;
  unarmed.spill.enabled = false;
  testing::ExpectSameRows(governed.rows, Run(sql, unarmed).rows);

  auto text = db_.Explain(sql, opts);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto line_of = [&](const std::string& op) {
    size_t at = text.value().find(op);
    if (at == std::string::npos) return std::string();
    size_t end = text.value().find('\n', at);
    return text.value().substr(at, end - at);
  };
  const std::string agg = line_of("HashAggregate");
  const std::string join = line_of("HashJoin");
  EXPECT_NE(agg.find("[parallel]"), std::string::npos) << text.value();
  EXPECT_TRUE(join.find("[batch]") != std::string::npos ||
              join.find("[parallel]") != std::string::npos)
      << text.value();
}

// A parallel build that crosses the budget abandons the attempt and reruns
// the region on the serial batch tree, whose join spills: same rows, and
// the same row accounting as the serial batch run.
TEST_F(SpillExecTest, ParallelBuildOverBudgetFallsBackAndSpills) {
  const std::vector<std::string> queries = {
      // Build side: a filtered scan of t spread over several morsels.
      "SELECT a.id, b.payload FROM t a, t b WHERE a.id = b.id AND b.grp < 4",
      // Region rooted at an aggregate over the join (t is the build side).
      "SELECT t.payload, COUNT(*) FROM t, g WHERE t.grp = g.gid "
      "GROUP BY t.payload",
  };
  for (const std::string& sql : queries) {
    QueryOptions mem;
    mem.spill.enabled = false;
    QueryResult baseline = Run(sql, mem);
    QueryOptions serial;
    serial.execution_mode = exec::ExecMode::kBatch;
    serial.spill.operator_budget_bytes = 512;
    QueryResult batch = Run(sql, serial);
    QueryOptions parallel = serial;
    parallel.execution_mode = exec::ExecMode::kParallel;
    parallel.dop = 4;
    parallel.morsel_rows = 128;
    QueryResult par = Run(sql, parallel);
    EXPECT_GT(batch.exec_stats.spill_runs, 0u) << sql;
    EXPECT_GT(par.exec_stats.spill_runs, 0u) << sql;
    testing::ExpectSameRows(par.rows, baseline.rows, sql);
    testing::ExpectSameRows(batch.rows, baseline.rows, sql);
    EXPECT_EQ(par.exec_stats.rows_scanned, batch.exec_stats.rows_scanned)
        << sql;
    EXPECT_EQ(par.exec_stats.rows_joined, batch.exec_stats.rows_joined)
        << sql;
  }
}

TEST_F(SpillExecTest, NoSpillFilesLeftBehind) {
  testing::ScopedSpillDir dir;
  ASSERT_TRUE(dir.ok());
  for (exec::ExecMode mode : {exec::ExecMode::kRow, exec::ExecMode::kBatch,
                              exec::ExecMode::kParallel}) {
    QueryOptions opts;
    opts.execution_mode = mode;
    opts.spill.operator_budget_bytes = 2 * 1024;
    opts.spill.dir = dir.path();
    QueryResult r = Run(
        "SELECT t.id, g.label FROM t, g WHERE t.grp = g.gid ORDER BY t.id",
        opts);
    EXPECT_GT(r.exec_stats.spill_runs, 0u);
    EXPECT_EQ(dir.CountFiles(), 0u);
  }
}

TEST_F(SpillExecTest, ExplainAnalyzeShowsSpillAnnotation) {
  QueryOptions opts;
  opts.spill.operator_budget_bytes = 4 * 1024;
  auto text =
      db_.ExplainAnalyze("SELECT t.grp, t.id FROM t ORDER BY t.grp, t.id",
                         opts);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text.value().find("[spill: "), std::string::npos)
      << text.value();
}

TEST_F(SpillExecTest, MetricsCountSpills) {
  QueryOptions opts;
  opts.spill.operator_budget_bytes = 4 * 1024;
  Run("SELECT t.grp, t.id FROM t ORDER BY t.grp, t.id", opts);
  uint64_t runs = 0, bytes = 0;
  for (const MetricsRegistry::Sample& s : db_.metrics().Snapshot()) {
    if (s.name == "spill.runs") runs = s.value;
    if (s.name == "spill.bytes_written") bytes = s.value;
  }
  EXPECT_GT(runs, 0u);
  EXPECT_GT(bytes, 0u);
}

}  // namespace
}  // namespace qopt
