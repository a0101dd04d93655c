// E1 (paper Figure 1): physical operator trees.
//
// Reproduces the figure's plan shape — a merge join of A and B (sorted on
// x) fed into an index nested-loop join with C — by constructing the
// schema the figure implies and showing the optimizer choose (and the
// engine execute) such multi-algorithm operator trees.
#include "bench_util.h"
#include "engine/database.h"
#include "workload/datagen.h"

using namespace qopt;
using namespace qopt::bench;

int main() {
  Banner("E1", "Physical operator trees (Figure 1)",
         "an execution plan composes physical operators (scan, sort, "
         "merge-join, index-scan, index-nested-loop-join) as building "
         "blocks");

  Database db;
  using workload::ColumnSpec;
  // A and B: mid-sized tables joined on x (no index -> sort-merge/hash);
  // C: large table with a clustered index on x (-> index nested loops).
  std::vector<ColumnSpec> ab = {
      {.name = "x", .kind = ColumnSpec::Kind::kUniform, .ndv = 2000},
      {.name = "payload", .kind = ColumnSpec::Kind::kUniform, .ndv = 1000},
  };
  (void)workload::CreateAndLoadTable(&db, "A", ab, 5000, 1);
  (void)workload::CreateAndLoadTable(&db, "B", ab, 5000, 2);
  std::vector<ColumnSpec> c = {
      {.name = "x", .kind = ColumnSpec::Kind::kSequential},
      {.name = "payload", .kind = ColumnSpec::Kind::kUniform, .ndv = 1000},
  };
  (void)workload::CreateAndLoadTable(&db, "C", c, 200000, 3, "x");
  (void)db.CreateIndex("idx_c_x", "C", "x", /*clustered=*/true,
                       /*unique=*/true);
  (void)db.AnalyzeAll();

  const char* sql =
      "SELECT COUNT(*) FROM A, B, C "
      "WHERE A.x = B.x AND A.x = C.x";
  std::printf("Query: %s\n\n", sql);

  // System-R operator set (no hash joins), as in the 1998 figure.
  QueryOptions options;
  options.optimizer.selinger.enable_hash_join = false;
  auto plan = db.Explain(sql, options);
  std::printf("Chosen operator tree:\n%s\n",
              plan.ok() ? plan->c_str() : plan.status().ToString().c_str());

  Stopwatch timer;
  auto result = db.Query(sql, options);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  TablePrinter table({"metric", "value"});
  table.AddRow({"result COUNT(*)", result->rows[0][0].ToString()});
  table.AddRow({"execution ms", Fmt(timer.ElapsedMs())});
  table.AddRow({"rows scanned", FmtInt(result->exec_stats.rows_scanned)});
  table.AddRow({"index lookups", FmtInt(result->exec_stats.index_lookups)});
  table.AddRow({"modeled pages read",
                Fmt(result->exec_stats.modeled_pages_read)});
  table.Print();

  // The unoptimized plan (syntactic order, nested-loop joins) is the
  // correctness oracle: the operator tree must count the same rows.
  QueryOptions naive;
  naive.naive_execution = true;
  Stopwatch naive_timer;
  auto oracle = db.Query(sql, naive);
  if (!oracle.ok()) {
    std::fprintf(stderr, "naive query failed: %s\n",
                 oracle.status().ToString().c_str());
    return 1;
  }
  const Value& got = result->rows[0][0];
  const Value& want = oracle->rows[0][0];
  std::printf("Naive nested-loop plan: COUNT(*) %s in %s ms\n",
              want.ToString().c_str(), Fmt(naive_timer.ElapsedMs()).c_str());
  if (got.Compare(want) != 0) {
    std::fprintf(stderr, "COUNT(*) mismatch: operator tree %s, naive %s\n",
                 got.ToString().c_str(), want.ToString().c_str());
    return 1;
  }

  std::printf("Shape check: the plan composes distinct physical operators "
              "(edges = data flow), as in Figure 1.\n");
  return 0;
}
