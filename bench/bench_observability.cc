// E23: EXPLAIN ANALYZE observability overhead on the hot execution path.
//
// Runs the fixed three-way join used by the EXPLAIN ANALYZE golden tests
// over a larger dataset in row, batch and parallel modes, three arms per
// rep interleaved (machine-load drift skews all arms equally):
//
//   off_a / off_b  two identical runs with analyze disabled. Their delta is
//                  the measurement noise floor, which bounds the cost of
//                  the instrumentation that remains when analyze is off —
//                  one predictable null-check branch per Init/Next/
//                  NextBatch dispatch, with no per-row work. Acceptance
//                  target: < 3%.
//   on             analyze enabled: every operator counts rows/batches,
//                  reads the wall clock in Init/Next, and materializing
//                  operators track peak memory. This arm documents what
//                  EXPLAIN ANALYZE itself costs; it has no target, only a
//                  reported number.
//
// Usage: bench_observability [output.json]
// Writes machine-readable results as JSON (default BENCH_observability.json).
#include <fstream>

#include "bench_util.h"
#include "engine/database.h"
#include "engine/thread_pool.h"
#include "workload/query_gen.h"

using namespace qopt;
using namespace qopt::bench;

namespace {

struct RunResult {
  double ms = 0;
  size_t rows = 0;
};

constexpr size_t kDop = 4;

RunResult RunOnce(Database& db, const exec::PhysPtr& plan, exec::ExecMode mode,
                  ThreadPool* pool, bool analyze) {
  RunResult r;
  exec::ExecContext ctx;
  ctx.storage = &db.storage();
  ctx.catalog = &db.catalog();
  ctx.mode = mode;
  ctx.analyze = analyze;
  if (mode == exec::ExecMode::kParallel) {
    ctx.dop = kDop;
    ctx.pool = pool;
    ctx.morsel_rows = 4096;
  }
  Stopwatch sw;
  std::vector<Row> rows = exec::ExecuteAll(plan, &ctx).value();
  r.ms = sw.ElapsedMs();
  r.rows = rows.size();
  if (analyze) QOPT_DCHECK(!ctx.op_stats.empty());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_observability.json";
  Banner("E23", "EXPLAIN ANALYZE observability overhead",
         "per-operator runtime stats: target < 3% with analyze off "
         "(null-check branch only); analyze-on cost reported");

  // Join output is ~rows^3 / ndv^2 / 2 (c is uniform over 1000 values, the
  // filter keeps half): ~250k rows per run here.
  constexpr int64_t kRows = 5000;
  constexpr int64_t kNdv = 500;
  // Best-of-N per arm; parallel runs carry scheduler jitter, so N is
  // generous enough for the two identical off arms to converge.
  constexpr int kReps = 17;

  Database db;
  QOPT_DCHECK(
      workload::CreateJoinTables(&db, /*n=*/3, kRows, kNdv, /*seed=*/7).ok());
  QOPT_DCHECK(db.AnalyzeAll().ok());

  const char* kSql =
      "SELECT t0.pk, t2.c FROM t0, t1, t2 "
      "WHERE t0.a = t1.b AND t1.a = t2.b AND t2.c < 500";
  auto plan = db.PlanQuery(kSql);
  QOPT_DCHECK(plan.ok());

  const struct {
    const char* name;
    exec::ExecMode mode;
  } kModes[] = {
      {"row", exec::ExecMode::kRow},
      {"batch", exec::ExecMode::kBatch},
      {"parallel", exec::ExecMode::kParallel},
  };
  // Sized as Database sizes its pool: dop workers are the calling thread
  // plus dop-1 pool threads.
  ThreadPool pool(kDop - 1);

  TablePrinter table({"mode", "off ms", "off noise %", "on ms", "analyze %",
                      "rows"});
  std::ofstream json(out_path);
  if (!json) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path);
    return 1;
  }
  json << "{\n  \"bench\": \"observability_overhead\",\n"
       << "  \"rows_per_table\": " << kRows << ",\n"
       << "  \"query\": \"three-way join, t2.c < 500\",\n  \"results\": [";

  bool first = true;
  double worst_off = 0;
  for (const auto& m : kModes) {
    RunResult off_a, off_b, on;
    off_a.ms = off_b.ms = on.ms = 1e100;
    for (int i = 0; i < kReps; ++i) {
      RunResult a = RunOnce(db, *plan, m.mode, &pool, false);
      if (a.ms < off_a.ms) off_a = a;
      RunResult b = RunOnce(db, *plan, m.mode, &pool, false);
      if (b.ms < off_b.ms) off_b = b;
      RunResult c = RunOnce(db, *plan, m.mode, &pool, true);
      if (c.ms < on.ms) on = c;
    }
    QOPT_DCHECK(off_a.rows == off_b.rows && off_a.rows == on.rows);
    // |off_b - off_a| / off_a: the A/B noise floor with analyze off.
    double base = off_a.ms < off_b.ms ? off_a.ms : off_b.ms;
    double off_noise_pct =
        (off_a.ms > off_b.ms ? off_a.ms - off_b.ms : off_b.ms - off_a.ms) /
        base * 100.0;
    double analyze_pct = (on.ms - base) / base * 100.0;
    if (off_noise_pct > worst_off) worst_off = off_noise_pct;
    table.AddRow({m.name, Fmt(base, 3), Fmt(off_noise_pct, 2), Fmt(on.ms, 3),
                  Fmt(analyze_pct, 2), FmtInt(on.rows)});
    json << (first ? "" : ",") << "\n    {\"mode\": \"" << m.name
         << "\", \"off_ms\": " << Fmt(base, 3)
         << ", \"off_noise_pct\": " << Fmt(off_noise_pct, 2)
         << ", \"on_ms\": " << Fmt(on.ms, 3)
         << ", \"analyze_overhead_pct\": " << Fmt(analyze_pct, 2)
         << ", \"rows\": " << on.rows << "}";
    first = false;
  }
  json << "\n  ],\n  \"worst_off_noise_pct\": " << Fmt(worst_off, 2) << "\n}\n";
  json.close();
  if (!json) {
    std::fprintf(stderr, "error: write to %s failed\n", out_path);
    return 1;
  }

  table.Print();
  std::printf("  worst analyze-off noise: %.2f%%  (target < 3%%)\n",
              worst_off);
  std::printf("  results written to %s\n", out_path);
  return 0;
}
