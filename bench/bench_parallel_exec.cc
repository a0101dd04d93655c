// Morsel-driven parallel execution vs serial batch execution.
//
// Runs the scan -> filter, scan -> filter -> hash join, and
// scan -> filter -> hash join -> aggregate pipelines of
// bench_vectorized_exec in serial batch mode and in parallel mode at
// dop 1/2/4/8, executing the SAME physical plan in both. Parallel mode at
// dop 1 builds the serial batch tree, so its row measures that code path.
// Every run asserts result-set size and exact ExecStats row-counter parity
// with the serial engine (modeled_pages_read is excluded: per-worker
// buffer-pool simulators see different access orders).
//
// Two speedups are reported per cell:
//   wall     = serial wall ms / parallel wall ms. Only meaningful when the
//              machine has spare cores; on a single-CPU host the workers
//              time-slice one core and wall time cannot improve.
//   modeled  = serial thread-CPU ms / parallel critical-path CPU ms, the
//              classic phase-barrier model: each phase costs the CPU of its
//              slowest worker (ExecStats.parallel_critical_cpu_ms). This
//              measures how well morsels split the work regardless of the
//              host's core count; `hardware_threads` in the JSON records
//              the machine so readers can judge which column applies.
// Next to each dop > 1 cell, `host_parallel_x` (bench_util.h's
// HostParallelX) records how many of dop spinning tasks the host ran side
// by side right after the cell's reps: a low wall speedup next to a
// host_parallel_x near 1 is a host-serialized window, not the engine.
//
// Usage: bench_parallel_exec [output.json]
// Writes machine-readable results as JSON (default BENCH_parallel.json).
#include <fstream>
#include <thread>

#include "bench_util.h"
#include "engine/database.h"
#include "engine/thread_pool.h"

using namespace qopt;
using namespace qopt::bench;

namespace {

struct RunResult {
  double wall_ms = 0;
  double cpu_ms = 0;       ///< Serial: calling-thread CPU. Parallel: critical path.
  double worker_cpu = 0;   ///< Parallel only: total CPU across workers.
  size_t rows = 0;
  exec::ExecStats stats;
};

RunResult RunSerial(Database& db, const exec::PhysPtr& plan) {
  RunResult r;
  exec::ExecContext ctx;
  ctx.storage = &db.storage();
  ctx.catalog = &db.catalog();
  ctx.mode = exec::ExecMode::kBatch;
  Stopwatch sw;
  double cpu0 = ThreadCpuMs();
  std::vector<Row> rows = exec::ExecuteAll(plan, &ctx).value();
  r.cpu_ms = ThreadCpuMs() - cpu0;
  r.wall_ms = sw.ElapsedMs();
  r.rows = rows.size();
  r.stats = ctx.stats;
  return r;
}

RunResult RunParallel(Database& db, const exec::PhysPtr& plan, ThreadPool* pool,
                      size_t dop) {
  RunResult r;
  exec::ExecContext ctx;
  ctx.storage = &db.storage();
  ctx.catalog = &db.catalog();
  ctx.mode = exec::ExecMode::kParallel;
  ctx.dop = dop;
  ctx.pool = dop > 1 ? pool : nullptr;
  Stopwatch sw;
  double cpu0 = ThreadCpuMs();
  std::vector<Row> rows = exec::ExecuteAll(plan, &ctx).value();
  double cpu_ms = ThreadCpuMs() - cpu0;
  r.wall_ms = sw.ElapsedMs();
  // dop 1 builds the serial batch tree: no region runs, and the critical
  // path is the calling thread's CPU.
  r.cpu_ms = dop > 1 ? ctx.stats.parallel_critical_cpu_ms : cpu_ms;
  r.worker_cpu = ctx.stats.parallel_worker_cpu_ms;
  r.rows = rows.size();
  r.stats = ctx.stats;
  return r;
}

/// Row counters must agree exactly; modeled_pages_read may not (per-worker
/// buffer-pool simulators).
bool SameRowStats(const exec::ExecStats& a, const exec::ExecStats& b) {
  return a.rows_scanned == b.rows_scanned && a.rows_joined == b.rows_joined &&
         a.index_lookups == b.index_lookups &&
         a.subquery_executions == b.subquery_executions &&
         a.page_touches == b.page_touches;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_parallel.json";
  Banner("E21", "Morsel-driven parallel execution",
         "page-aligned morsels over a shared cursor split scans, hash-join "
         "builds/probes and aggregation across dop workers; identical "
         "results and row stats to the serial batch engine");

  constexpr int64_t kFactRows = 200000;
  constexpr int64_t kDimRows = 1000;
  constexpr int kReps = 5;
  const size_t kDops[] = {1, 2, 4, 8};

  // Same schema and data as bench_vectorized_exec: no indexes, so the
  // equijoins plan as hash joins and the whole pipeline stays morsel-able.
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
    const char* sql;
  };
  // ~50% selectivity: enough surviving rows that every phase has real
  // per-worker work to split.
  const Pipeline kPipelines[] = {
      {"scan_filter", "SELECT f.id, f.v FROM fact f WHERE f.v < 500"},
      {"scan_filter_hashjoin",
       "SELECT f.id, d.tag FROM fact f, dim d "
       "WHERE f.k = d.id AND f.v < 500"},
      {"scan_filter_hashjoin_agg",
       "SELECT f.grp, COUNT(*), SUM(f.v) FROM fact f, dim d "
       "WHERE f.k = d.id AND f.v < 500 GROUP BY f.grp"},
  };

  unsigned hardware = std::thread::hardware_concurrency();

  TablePrinter table({"pipeline", "dop", "serial ms", "par ms", "wall x",
                      "host x", "serial cpu", "crit cpu", "modeled x", "rows",
                      "parity"});
  std::ofstream json(out_path);
  if (!json) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path);
    return 1;
  }
  json << "{\n  \"bench\": \"parallel_exec\",\n"
       << "  \"fact_rows\": " << kFactRows << ",\n"
       << "  \"dim_rows\": " << kDimRows << ",\n"
       << "  \"hardware_threads\": " << hardware << ",\n"
       << "  \"speedup_definition\": \"modeled = serial thread-CPU / "
          "parallel critical-path CPU (max worker per phase); wall speedup "
          "requires spare cores\",\n  \"results\": [";

  bool first = true;
  bool all_match = true;
  bool meets_2x = true;
  for (const Pipeline& p : kPipelines) {
    auto plan = db.PlanQuery(p.sql);
    QOPT_DCHECK(plan.ok());
    for (size_t dop : kDops) {
      // Sized as Database sizes its pool: dop workers are the calling
      // thread plus dop-1 pool threads.
      ThreadPool pool(1);
      pool.EnsureThreads(dop - 1);
      // Interleave serial/parallel reps so machine-load drift skews both
      // sides equally; keep the best rep of each.
      RunResult serial, par;
      serial.wall_ms = par.wall_ms = serial.cpu_ms = par.cpu_ms = 1e100;
      for (int i = 0; i < kReps; ++i) {
        RunResult s = RunSerial(db, *plan);
        if (s.cpu_ms < serial.cpu_ms) serial = s;
        RunResult q = RunParallel(db, *plan, &pool, dop);
        if (q.cpu_ms < par.cpu_ms) par = q;
      }
      const double host_x = dop > 1 ? HostParallelX(dop) : 0;
      bool match =
          par.rows == serial.rows && SameRowStats(par.stats, serial.stats);
      all_match = all_match && match;
      double wall_x = serial.wall_ms / par.wall_ms;
      double modeled_x = serial.cpu_ms / par.cpu_ms;
      if (dop == 4 && modeled_x < 2.0) meets_2x = false;
      table.AddRow({p.name, FmtInt(dop), Fmt(serial.wall_ms, 2),
                    Fmt(par.wall_ms, 2), Fmt(wall_x, 2),
                    dop > 1 ? Fmt(host_x, 2) : "-", Fmt(serial.cpu_ms, 2),
                    Fmt(par.cpu_ms, 2), Fmt(modeled_x, 2), FmtInt(par.rows),
                    match ? "yes" : "NO"});
      json << (first ? "" : ",") << "\n    {\"pipeline\": \"" << p.name
           << "\", \"dop\": " << dop
           << ", \"serial_wall_ms\": " << Fmt(serial.wall_ms, 3)
           << ", \"parallel_wall_ms\": " << Fmt(par.wall_ms, 3)
           << ", \"wall_speedup\": " << Fmt(wall_x, 3);
      if (dop > 1) json << ", \"host_parallel_x\": " << Fmt(host_x, 3);
      json << ", \"serial_cpu_ms\": " << Fmt(serial.cpu_ms, 3)
           << ", \"critical_cpu_ms\": " << Fmt(par.cpu_ms, 3)
           << ", \"worker_cpu_ms\": " << Fmt(par.worker_cpu, 3)
           << ", \"modeled_speedup\": " << Fmt(modeled_x, 3)
           << ", \"rows\": " << par.rows
           << ", \"stats_match\": " << (match ? "true" : "false") << "}";
      first = false;
    }
  }
  json << "\n  ],\n  \"all_stats_match\": " << (all_match ? "true" : "false")
       << ",\n  \"meets_2x_at_dop4\": " << (meets_2x ? "true" : "false")
       << ",\n  \"wall_speedup_meaningful\": "
       << (hardware >= 4 ? "true" : "false") << "\n}\n";
  json.close();
  if (!json) {
    std::fprintf(stderr, "error: write to %s failed\n", out_path);
    return 1;
  }

  table.Print();
  std::printf("  hardware threads: %u\n", hardware);
  std::printf("  results written to %s\n", out_path);
  if (!all_match) {
    std::printf("  ERROR: parallel/serial divergence detected\n");
    return 1;
  }
  if (!meets_2x) {
    std::printf("  ERROR: modeled speedup below 2x at dop=4\n");
    return 1;
  }
  return 0;
}
