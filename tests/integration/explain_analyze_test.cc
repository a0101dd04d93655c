// EXPLAIN ANALYZE observability: golden-file tests of the annotated plan
// text across the row, batch and parallel engines on a fixed 3-join query
// (timings masked — they are the only nondeterministic part), cross-mode
// parity of the per-operator actual row counts, q-error == 1.0 when the
// statistics are exact, the modeled_pages_read divergence pin for parallel
// mode, and the optimizer trace.
//
// Regenerate the goldens after an intentional plan/format change with:
//   QOPT_UPDATE_GOLDENS=1 ./integration_test \
//       --gtest_filter='ExplainAnalyzeTest.Golden*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>

#include "engine/database.h"
#include "optimizer/trace.h"
#include "tests/testing/db_fixtures.h"

namespace qopt {
namespace {

// The fixed 3-join query all golden / parity tests run. Chain topology so
// the plan exercises two different join algorithms (see goldens).
constexpr char kThreeJoin[] =
    "SELECT t0.pk, t2.c FROM t0, t1, t2 "
    "WHERE t0.a = t1.b AND t1.a = t2.b AND t2.c < 500";

/// Masks the wall-clock fields — everything else in the output (estimates,
/// actual rows, q-errors, modeled memory) is deterministic for a fixed
/// seed.
std::string MaskTimings(const std::string& text) {
  std::string out = std::regex_replace(
      text, std::regex("(worker_wall_ns|wall_ns)=\\d+"), "$1=?");
  return std::regex_replace(out, std::regex("workers=\\d+"), "workers=?");
}

std::string GoldenPath(const std::string& name) {
  return std::string(QOPT_TESTS_DIR) + "/integration/golden/" + name;
}

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::LoadJoinTables(&db_, /*n=*/3, /*rows=*/500, /*ndv=*/50,
                            /*seed=*/7);
  }

  QueryOptions Options(exec::ExecMode mode) {
    QueryOptions options;
    options.execution_mode = mode;
    // Keep the golden output independent of what ran before: the cache
    // header would otherwise read miss/hit depending on test order, and
    // cardinality feedback harvested by an earlier sub-test could shift
    // the plan (and the estimate annotations) mid-fixture.
    options.use_plan_cache = false;
    options.use_feedback = false;
    if (mode == exec::ExecMode::kParallel) {
      options.dop = 4;
      options.morsel_rows = 64;
    }
    return options;
  }

  void CheckGolden(exec::ExecMode mode, const std::string& golden_name) {
    Result<std::string> text = db_.ExplainAnalyze(kThreeJoin, Options(mode));
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    std::string masked = MaskTimings(*text);
    const std::string path = GoldenPath(golden_name);
    if (std::getenv("QOPT_UPDATE_GOLDENS") != nullptr) {
      std::ofstream(path) << masked;
      GTEST_SKIP() << "golden updated: " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden " << path
                           << " (run with QOPT_UPDATE_GOLDENS=1)";
    std::stringstream want;
    want << in.rdbuf();
    EXPECT_EQ(masked, want.str()) << "golden mismatch: " << path;
  }

  /// Pre-order ActualRows() per plan node; plans from different modes have
  /// identical shape (the mode only changes execution), so positions align.
  static void CollectActualRows(const exec::PhysicalPlan* node,
                                const exec::OperatorStatsMap& stats,
                                std::vector<uint64_t>* out) {
    auto it = stats.find(node);
    out->push_back(it != stats.end() ? it->second.ActualRows() : 0);
    for (const exec::PhysPtr& child : node->children) {
      CollectActualRows(child.get(), stats, out);
    }
  }

  QueryResult RunAnalyzed(exec::ExecMode mode) {
    QueryOptions options = Options(mode);
    options.analyze = true;
    Result<QueryResult> r = db_.Query(kThreeJoin, options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(*r) : QueryResult{};
  }

  Database db_;
};

TEST_F(ExplainAnalyzeTest, GoldenRow) {
  CheckGolden(exec::ExecMode::kRow, "explain_analyze_row.golden");
}

TEST_F(ExplainAnalyzeTest, GoldenBatch) {
  CheckGolden(exec::ExecMode::kBatch, "explain_analyze_batch.golden");
}

TEST_F(ExplainAnalyzeTest, GoldenParallel) {
  CheckGolden(exec::ExecMode::kParallel, "explain_analyze_parallel.golden");
}

// act_rows must be identical per operator across all four execution modes:
// instrumentation may never observe different data flow.
TEST_F(ExplainAnalyzeTest, ActualRowsParityAcrossModes) {
  QueryResult row = RunAnalyzed(exec::ExecMode::kRow);
  ASSERT_NE(row.analyzed_plan, nullptr);
  std::vector<uint64_t> want;
  CollectActualRows(row.analyzed_plan.get(), row.op_stats, &want);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(want[0], row.rows.size());  // Root operator feeds the result.

  for (exec::ExecMode mode :
       {exec::ExecMode::kBatch, exec::ExecMode::kParallel}) {
    QueryResult other = RunAnalyzed(mode);
    ASSERT_NE(other.analyzed_plan, nullptr);
    std::vector<uint64_t> got;
    CollectActualRows(other.analyzed_plan.get(), other.op_stats, &got);
    EXPECT_EQ(got, want) << "mode " << static_cast<int>(mode);
  }

  // Naive execution plans a different (syntactic) tree, so per-node
  // positions don't align with the optimized plan — but its instrumented
  // root must still account for every result row.
  QueryOptions naive;
  naive.naive_execution = true;
  naive.analyze = true;
  Result<QueryResult> n = db_.Query(kThreeJoin, naive);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  ASSERT_NE(n->analyzed_plan, nullptr);
  auto root = n->op_stats.find(n->analyzed_plan.get());
  ASSERT_NE(root, n->op_stats.end());
  EXPECT_EQ(root->second.ActualRows(), n->rows.size());
  EXPECT_EQ(n->rows.size(), row.rows.size());
}

// With fresh full statistics and no filters, every estimate is exact and
// every node's q-error must be exactly 1.0.
TEST_F(ExplainAnalyzeTest, QErrorIsOneWhenStatsExact) {
  QueryOptions options;
  options.analyze = true;
  Result<QueryResult> r = db_.Query("SELECT pk, a FROM t0", options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->analyzed_plan, nullptr);
  ASSERT_FALSE(r->op_stats.empty());
  for (const auto& [node, stats] : r->op_stats) {
    EXPECT_DOUBLE_EQ(exec::QError(node->est_rows, stats.ActualRows()), 1.0)
        << "est=" << node->est_rows << " act=" << stats.ActualRows();
  }
}

// Analyze off is the default: no stats map entries, no plan attached.
TEST_F(ExplainAnalyzeTest, NoStatsWithoutAnalyze) {
  Result<QueryResult> r = db_.Query(kThreeJoin);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->op_stats.empty());
  EXPECT_EQ(r->analyzed_plan, nullptr);
}

// Pins the modeled_pages_read divergence contract: serial modes never set
// the flag, any parallel execution does (per-worker LRU pools see
// different access orders), and EXPLAIN ANALYZE surfaces it as a header
// note rather than silently reconciling the counter.
TEST_F(ExplainAnalyzeTest, ParallelPagesDivergenceSurfaced) {
  EXPECT_FALSE(RunAnalyzed(exec::ExecMode::kRow)
                   .exec_stats.parallel_pages_divergent);
  EXPECT_FALSE(RunAnalyzed(exec::ExecMode::kBatch)
                   .exec_stats.parallel_pages_divergent);
  EXPECT_TRUE(RunAnalyzed(exec::ExecMode::kParallel)
                  .exec_stats.parallel_pages_divergent);

  Result<std::string> text =
      db_.ExplainAnalyze(kThreeJoin, Options(exec::ExecMode::kParallel));
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("modeled_pages_read diverges"), std::string::npos);
  Result<std::string> serial =
      db_.ExplainAnalyze(kThreeJoin, Options(exec::ExecMode::kRow));
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial->find("modeled_pages_read diverges"), std::string::npos);
}

// The parallel gather resolves its aggregate's argument programs itself.
// With compilation off it must report them as interpreted on the
// HashAggregate line, exactly as the serial batch aggregate does.
TEST_F(ExplainAnalyzeTest, ParallelHashAggregateShowsExprMode) {
  constexpr char kSql[] = "SELECT t0.b, SUM(t0.c + 1) FROM t0 GROUP BY t0.b";
  auto agg_line = [&](exec::ExecMode mode) {
    QueryOptions options = Options(mode);
    options.compile_expressions = false;
    Result<std::string> text = db_.ExplainAnalyze(kSql, options);
    EXPECT_TRUE(text.ok()) << text.status().ToString();
    std::istringstream lines(text.ok() ? *text : "");
    for (std::string line; std::getline(lines, line);) {
      if (line.find("HashAggregate") != std::string::npos) return line;
    }
    return std::string();
  };
  auto expr_mode = [](const std::string& line) {
    size_t at = line.find("[expr: ");
    return at == std::string::npos ? std::string("<none>")
                                   : line.substr(at, line.find(']', at) - at + 1);
  };
  const std::string batch = agg_line(exec::ExecMode::kBatch);
  const std::string parallel = agg_line(exec::ExecMode::kParallel);
  ASSERT_NE(parallel.find("[parallel]"), std::string::npos) << parallel;
  EXPECT_EQ(expr_mode(batch), "[expr: interpreted]") << batch;
  EXPECT_EQ(expr_mode(parallel), expr_mode(batch)) << parallel;
}

// EXPLAIN ANALYZE as a SQL statement through Query().
TEST_F(ExplainAnalyzeTest, SqlStatementForm) {
  Result<QueryResult> r =
      db_.Query(std::string("EXPLAIN ANALYZE ") + kThreeJoin);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->column_names, std::vector<std::string>{"plan"});
  ASSERT_FALSE(r->rows.empty());
  EXPECT_EQ(r->rows[0][0].AsString().rfind("[cache:", 0), 0u);
  bool saw_analyze = false;
  for (const Row& row : r->rows) {
    if (row[0].AsString().find("act_rows=") != std::string::npos) {
      saw_analyze = true;
    }
  }
  EXPECT_TRUE(saw_analyze);
}

TEST_F(ExplainAnalyzeTest, OptimizerTraceSelinger) {
  QueryOptions options;
  options.trace_optimizer = true;
  Result<QueryResult> r = db_.Query(kThreeJoin, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->optimize_info.trace, nullptr);
  const std::string text = r->optimize_info.trace->ToString();
  EXPECT_NE(text.find("[rewrite] predicate_pushdown applied"),
            std::string::npos);
  EXPECT_NE(text.find("[selinger] dp subset="), std::string::npos);
  EXPECT_NE(text.find("[selinger] dp complete:"), std::string::npos);
  EXPECT_NE(text.find("[opt] chosen cost="), std::string::npos);
  // Tracing must bypass the plan cache: a hit would skip the search.
  EXPECT_EQ(r->optimize_info.plan_cache.outcome,
            opt::PlanCacheInfo::Outcome::kBypass);
}

TEST_F(ExplainAnalyzeTest, OptimizerTraceCascades) {
  QueryOptions options;
  options.trace_optimizer = true;
  options.optimizer.enumerator = opt::EnumeratorKind::kCascades;
  Result<QueryResult> r = db_.Query(kThreeJoin, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->optimize_info.trace, nullptr);
  const std::string text = r->optimize_info.trace->ToString();
  EXPECT_NE(text.find("[cascades] task OptimizeGroup"), std::string::npos);
  EXPECT_NE(text.find("[cascades] rule "), std::string::npos);
  EXPECT_NE(text.find("[cascades] winner group="), std::string::npos);
  EXPECT_NE(text.find("[cascades] search complete:"), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, TraceOffByDefault) {
  Result<QueryResult> r = db_.Query(kThreeJoin);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->optimize_info.trace, nullptr);
}

// Explain() appends the trace when requested.
TEST_F(ExplainAnalyzeTest, ExplainRendersTrace) {
  QueryOptions options;
  options.trace_optimizer = true;
  Result<std::string> text = db_.Explain(kThreeJoin, options);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("--- optimizer trace ---"), std::string::npos);
  EXPECT_NE(text->find("[selinger]"), std::string::npos);
}

// The trace is bounded: events past the cap are counted, not stored.
TEST(OptTraceTest, CapsRetainedEvents) {
  opt::OptTrace trace;
  for (size_t i = 0; i < opt::OptTrace::kMaxEvents + 10; ++i) {
    trace.Add("test", "event");
  }
  EXPECT_EQ(trace.events().size(), opt::OptTrace::kMaxEvents);
  EXPECT_EQ(trace.dropped(), 10u);
  EXPECT_NE(trace.ToString().find("10 events dropped"), std::string::npos);
}

}  // namespace
}  // namespace qopt
