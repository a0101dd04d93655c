// E19: vectorized batch execution vs row-at-a-time iteration.
//
// Runs scan -> filter, scan -> filter -> hash join,
// scan -> filter -> hash join -> aggregate, and
// scan -> filter -> project -> distinct -> sort pipelines at several
// predicate selectivities and batch capacities, executing the SAME
// physical plan in batch mode and in row mode, which runs the same
// operators at batch capacity 1. Batching amortizes per-call dispatch and
// per-batch setup across a column-wise batch, so the win is largest on
// cheap-per-row pipelines; both modes produce identical rows and identical
// ExecStats (asserted here on every run).
//
// Usage: bench_vectorized_exec [output.json]
// Writes machine-readable results as JSON (default BENCH_vectorized.json).
#include <fstream>

#include "bench_util.h"
#include "engine/database.h"

using namespace qopt;
using namespace qopt::bench;

namespace {

struct RunResult {
  double ms = 0;
  size_t rows = 0;
  exec::ExecStats stats;
};

RunResult RunOnce(Database& db, const exec::PhysPtr& plan, exec::ExecMode mode,
                  size_t batch_capacity) {
  RunResult r;
  exec::ExecContext ctx;
  ctx.storage = &db.storage();
  ctx.catalog = &db.catalog();
  ctx.mode = mode;
  ctx.batch_capacity = batch_capacity;
  Stopwatch sw;
  std::vector<Row> rows = exec::ExecuteAll(plan, &ctx).value();
  r.ms = sw.ElapsedMs();
  r.rows = rows.size();
  r.stats = ctx.stats;
  return r;
}

/// Measures row and batch mode back to back, interleaving repetitions so a
/// machine-load drift mid-run skews both sides equally; keeps the best rep
/// of each.
void RunPair(Database& db, const exec::PhysPtr& plan, size_t batch_capacity,
             int reps, RunResult* row, RunResult* batch) {
  row->ms = batch->ms = 1e100;
  for (int i = 0; i < reps; ++i) {
    RunResult r = RunOnce(db, plan, exec::ExecMode::kRow, 1);
    if (r.ms < row->ms) *row = r;
    RunResult b = RunOnce(db, plan, exec::ExecMode::kBatch, batch_capacity);
    if (b.ms < batch->ms) *batch = b;
  }
}

bool SameStats(const exec::ExecStats& a, const exec::ExecStats& b) {
  return a.rows_scanned == b.rows_scanned && a.rows_joined == b.rows_joined &&
         a.index_lookups == b.index_lookups &&
         a.subquery_executions == b.subquery_executions &&
         a.page_touches == b.page_touches &&
         a.modeled_pages_read == b.modeled_pages_read;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_vectorized.json";
  Banner("E19", "Vectorized batch execution",
         "batch-at-a-time execution over column batches with selection "
         "vectors amortizes iterator overhead; identical results and "
         "ExecStats to row mode (the same operators at batch capacity 1)");

  constexpr int64_t kFactRows = 200000;
  constexpr int64_t kDimRows = 1000;
  constexpr int kReps = 7;

  // No indexes: equijoins plan as hash joins, keeping the whole pipeline on
  // the vectorized path.
  Database db;
  QOPT_DCHECK(db.Execute("CREATE TABLE fact (id INT PRIMARY KEY, k INT, "
                         "v INT, grp INT)")
                  .ok());
  QOPT_DCHECK(db.Execute("CREATE TABLE dim (id INT PRIMARY KEY, tag STRING)")
                  .ok());
  {
    std::vector<Row> rows;
    rows.reserve(kFactRows);
    for (int64_t i = 0; i < kFactRows; ++i) {
      rows.push_back({Value::Int(i), Value::Int((i * 2654435761) % kDimRows),
                      Value::Int((i * 48271) % 1000), Value::Int(i % 64)});
    }
    QOPT_DCHECK(db.BulkLoad("fact", std::move(rows)).ok());
  }
  {
    std::vector<Row> rows;
    rows.reserve(kDimRows);
    for (int64_t i = 0; i < kDimRows; ++i) {
      rows.push_back({Value::Int(i), Value::String("t" + std::to_string(i))});
    }
    QOPT_DCHECK(db.BulkLoad("dim", std::move(rows)).ok());
  }
  QOPT_DCHECK(db.AnalyzeAll().ok());

  struct Pipeline {
    const char* name;
    const char* sql_fmt;  ///< %d = selectivity cutoff on fact.v in [0,1000).
  };
  const Pipeline kPipelines[] = {
      {"scan_filter", "SELECT f.id, f.v FROM fact f WHERE f.v < %d"},
      {"scan_filter_hashjoin",
       "SELECT f.id, d.tag FROM fact f, dim d "
       "WHERE f.k = d.id AND f.v < %d"},
      {"scan_filter_hashjoin_agg",
       "SELECT f.grp, COUNT(*), SUM(f.v) FROM fact f, dim d "
       "WHERE f.k = d.id AND f.v < %d GROUP BY f.grp"},
      // Plans as Sort(Distinct(Project(TableScan))): row/batch parity of
      // the pass-through Distinct and the materializing Sort.
      {"scan_filter_distinct_sort",
       "SELECT DISTINCT f.grp FROM fact f WHERE f.v < %d ORDER BY f.grp"},
  };
  const int kCutoffs[] = {10, 100, 500};  // ~1%, ~10%, ~50% selectivity
  const size_t kCapacities[] = {64, 256, 1024, 4096};

  TablePrinter table({"pipeline", "sel %", "batch cap", "row ms", "batch ms",
                      "speedup x", "rows", "stats match"});
  std::ofstream json(out_path);
  if (!json) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path);
    return 1;
  }
  json << "{\n  \"bench\": \"vectorized_exec\",\n"
       << "  \"fact_rows\": " << kFactRows << ",\n"
       << "  \"dim_rows\": " << kDimRows << ",\n  \"results\": [";

  bool first = true;
  bool all_match = true;
  for (const Pipeline& p : kPipelines) {
    for (int cutoff : kCutoffs) {
      char sql[512];
      std::snprintf(sql, sizeof(sql), p.sql_fmt, cutoff);
      auto plan = db.PlanQuery(sql);
      QOPT_DCHECK(plan.ok());
      for (size_t cap : kCapacities) {
        RunResult row, batch;
        RunPair(db, *plan, cap, kReps, &row, &batch);
        bool match =
            batch.rows == row.rows && SameStats(batch.stats, row.stats);
        all_match = all_match && match;
        double speedup = row.ms / batch.ms;
        table.AddRow({p.name, FmtInt(cutoff / 10), FmtInt(cap), Fmt(row.ms, 2),
                      Fmt(batch.ms, 2), Fmt(speedup, 2), FmtInt(batch.rows),
                      match ? "yes" : "NO"});
        json << (first ? "" : ",") << "\n    {\"pipeline\": \"" << p.name
             << "\", \"selectivity\": " << Fmt(cutoff / 1000.0, 3)
             << ", \"batch_capacity\": " << cap
             << ", \"row_ms\": " << Fmt(row.ms, 3)
             << ", \"batch_ms\": " << Fmt(batch.ms, 3)
             << ", \"speedup\": " << Fmt(speedup, 3)
             << ", \"rows\": " << batch.rows
             << ", \"stats_match\": " << (match ? "true" : "false") << "}";
        first = false;
      }
    }
  }
  json << "\n  ],\n  \"all_stats_match\": " << (all_match ? "true" : "false")
       << "\n}\n";
  json.close();
  if (!json) {
    std::fprintf(stderr, "error: write to %s failed\n", out_path);
    return 1;
  }

  table.Print();
  std::printf("  results written to %s\n", out_path);
  if (!all_match) {
    std::printf("  ERROR: batch/row divergence detected\n");
    return 1;
  }
  return 0;
}
