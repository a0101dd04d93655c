// E26: compiled expression pipelines vs the interpreter.
//
// Runs expression-heavy pipelines — nested-arithmetic filters, multi-column
// arithmetic projections, expression-argument aggregates, LIKE and IN-list
// predicates — executing the SAME physical plan in batch mode with
// expression compilation on and off. Off, each operator runs the one
// interpreter (EvalExpr) once per live row of every batch. The compiled
// programs run one monomorphic loop per instruction over the column
// vectors (no per-row tree walk, tag dispatch or Value allocation), so the
// win concentrates where per-row expression evaluation dominates. Both
// modes must return byte-identical rows (asserted on every run), and the
// headline pipeline must show >= 2x — the process exits nonzero otherwise,
// making this a CI regression gate.
//
// Usage: bench_compiled_expr [output.json]
// Writes machine-readable results as JSON (default BENCH_compiled_expr.json).
#include <fstream>

#include "bench_util.h"
#include "engine/database.h"

using namespace qopt;
using namespace qopt::bench;

namespace {

constexpr double kGateSpeedup = 2.0;

struct RunResult {
  double ms = 0;
  std::vector<Row> rows;
};

RunResult RunOnce(Database& db, const exec::PhysPtr& plan, bool compiled) {
  RunResult r;
  exec::ExecContext ctx;
  ctx.storage = &db.storage();
  ctx.catalog = &db.catalog();
  ctx.mode = exec::ExecMode::kBatch;
  ctx.compile_expressions = compiled;
  Stopwatch sw;
  r.rows = exec::ExecuteAll(plan, &ctx).value();
  r.ms = sw.ElapsedMs();
  return r;
}

/// Interleaves compiled and interpreted repetitions so machine-load drift
/// skews both sides equally; keeps the best rep of each.
void RunPair(Database& db, const exec::PhysPtr& plan, int reps,
             RunResult* interpreted, RunResult* compiled) {
  interpreted->ms = compiled->ms = 1e100;
  for (int i = 0; i < reps; ++i) {
    RunResult in = RunOnce(db, plan, /*compiled=*/false);
    if (in.ms < interpreted->ms) *interpreted = std::move(in);
    RunResult co = RunOnce(db, plan, /*compiled=*/true);
    if (co.ms < compiled->ms) *compiled = std::move(co);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_compiled_expr.json";
  Banner("E26", "Compiled expression pipelines",
         "lowering predicates/projections/aggregate arguments to flat "
         "type-specialized programs beats the row-at-a-time interpreter "
         ">= 2x on expression-bound pipelines, with byte-identical rows");

  constexpr int64_t kRows = 400000;
  constexpr int kReps = 7;

  Database db;
  QOPT_DCHECK(db.Execute("CREATE TABLE fact (id INT PRIMARY KEY, v INT, "
                         "w INT, grp INT, s STRING)")
                  .ok());
  {
    std::vector<Row> rows;
    rows.reserve(kRows);
    for (int64_t i = 0; i < kRows; ++i) {
      rows.push_back({Value::Int(i), Value::Int((i * 48271) % 1000),
                      Value::Int((i * 2654435761) % 1000),
                      Value::Int(i % 64),
                      Value::String("v" + std::to_string(i % 500))});
    }
    QOPT_DCHECK(db.BulkLoad("fact", std::move(rows)).ok());
  }
  QOPT_DCHECK(db.AnalyzeAll().ok());

  struct Pipeline {
    const char* name;
    const char* sql;
    bool gated;  ///< Participates in the >= 2x headline gate.
  };
  const Pipeline kPipelines[] = {
      // The headline: a deeply nested arithmetic predicate (the shape the
      // compiler exists for) with a selective cutoff, so expression
      // evaluation — not scan or result materialization — dominates.
      {"arith_filter_deep",
       "SELECT f.id FROM fact f WHERE "
       "(f.v + 1) * (f.w + 2) - (f.v - 3) * (f.w - 4) "
       "+ (f.v * 5 - f.w * 6) * (f.v + 7) "
       "- (f.w * 8 + f.v * 9) * (f.w - 10) "
       "+ (f.v + 11) * (f.v + 12) - (f.w + 13) * (f.w + 14) "
       "< -16000000",
       true},
      {"arith_filter",
       "SELECT f.id FROM fact f WHERE (f.v + 3) * 2 - f.w < 7 "
       "AND f.v * 2 + f.w >= 100",
       true},
      {"arith_project",
       "SELECT (f.v + 1) * 2, f.v + f.w, f.v * 3 - f.w, f.v / 4 "
       "FROM fact f WHERE f.v < 900",
       false},
      {"expr_agg",
       "SELECT f.grp, SUM(f.v * 2 + 1), SUM(f.w + f.v), COUNT(*) "
       "FROM fact f GROUP BY f.grp",
       false},
      {"like_filter", "SELECT f.id FROM fact f WHERE f.s LIKE 'v12%'", false},
      {"in_list",
       "SELECT f.id FROM fact f WHERE f.v IN (3, 17, 54, 211, 876)", false},
      {"null_logic",
       "SELECT f.id FROM fact f WHERE (f.v < 500 OR f.w >= 700) "
       "AND f.v IS NOT NULL",
       false},
  };

  TablePrinter table({"pipeline", "interp ms", "compiled ms", "speedup x",
                      "rows", "rows match", "gated"});
  std::ofstream json(out_path);
  if (!json) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path);
    return 1;
  }
  json << "{\n  \"bench\": \"compiled_expr\",\n  \"rows\": " << kRows
       << ",\n  \"gate_speedup\": " << Fmt(kGateSpeedup, 1)
       << ",\n  \"results\": [";

  bool first = true;
  bool all_match = true;
  double best_gated = 0;
  for (const Pipeline& p : kPipelines) {
    auto plan = db.PlanQuery(p.sql);
    QOPT_DCHECK(plan.ok());
    RunResult interpreted, compiled;
    RunPair(db, *plan, kReps, &interpreted, &compiled);
    bool match = compiled.rows == interpreted.rows;
    all_match = all_match && match;
    double speedup = interpreted.ms / compiled.ms;
    if (p.gated) best_gated = std::max(best_gated, speedup);
    table.AddRow({p.name, Fmt(interpreted.ms, 2), Fmt(compiled.ms, 2),
                  Fmt(speedup, 2), FmtInt(compiled.rows.size()),
                  match ? "yes" : "NO", p.gated ? "yes" : "no"});
    json << (first ? "" : ",") << "\n    {\"pipeline\": \"" << p.name
         << "\", \"interpreted_ms\": " << Fmt(interpreted.ms, 3)
         << ", \"compiled_ms\": " << Fmt(compiled.ms, 3)
         << ", \"speedup\": " << Fmt(speedup, 3)
         << ", \"rows\": " << compiled.rows.size()
         << ", \"rows_match\": " << (match ? "true" : "false")
         << ", \"gated\": " << (p.gated ? "true" : "false") << "}";
    first = false;
  }
  bool gate_pass = best_gated >= kGateSpeedup;
  json << "\n  ],\n  \"best_gated_speedup\": " << Fmt(best_gated, 3)
       << ",\n  \"all_rows_match\": " << (all_match ? "true" : "false")
       << ",\n  \"gate_pass\": " << (gate_pass ? "true" : "false") << "\n}\n";
  json.close();
  if (!json) {
    std::fprintf(stderr, "error: write to %s failed\n", out_path);
    return 1;
  }

  table.Print();
  std::printf("  results written to %s\n", out_path);
  if (!all_match) {
    std::printf("  ERROR: compiled/interpreted row divergence detected\n");
    return 1;
  }
  if (!gate_pass) {
    std::printf("  ERROR: best gated speedup %.2fx below the %.1fx gate\n",
                best_gated, kGateSpeedup);
    return 1;
  }
  return 0;
}
