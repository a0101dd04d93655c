// E27: the partitioned, spill-capable data plane.
//
// Three claims from docs/DATA_PLANE.md, each measured end to end over a
// skewed star schema with a range-partitioned fact table:
//
//   1. Partition pruning cuts pages read proportionally: an equality
//      predicate on the partition column keeps 1 of N partitions and the
//      scan reads ~1/N of the full scan's modeled pages.
//   2. Spilling degrades, it does not diverge: the same join + sort query
//      returns byte-identical rows under a tiny spill budget (external-sort
//      runs + grace-join partitions on disk) as fully in-memory, and a
//      memory budget that kills the query with spill disabled completes
//      with spill enabled.
//   3. Per-partition parallel scan gives real wall-clock speedup where the
//      host has cores to give: at dop 4 we require wall >= 1.5x when the
//      machine has >= 4 hardware threads; on smaller hosts the wall gate is
//      reported as not applicable and the modeled (critical-path CPU)
//      speedup must meet the same bar. `host_parallel_x` next to it
//      records how many of 4 spinning tasks the host ran side by side.
//
// Usage: bench_data_plane [output.json]
// Writes machine-readable results as JSON (default BENCH_data_plane.json).
#include <cstring>
#include <fstream>
#include <thread>

#include "bench_util.h"
#include "engine/database.h"
#include "engine/thread_pool.h"
#include "workload/star_schema.h"

using namespace qopt;
using namespace qopt::bench;

namespace {

constexpr int kPartitions = 8;
constexpr int64_t kFactRows = 120000;
constexpr int64_t kDimRows = 48;  // divisible by kPartitions: exact ranges

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (a[i][j].Compare(b[i][j]) != 0) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_data_plane.json";
  Banner("E27", "Partitioned, spill-capable data plane",
         "partition pruning cuts pages proportionally; spilling queries "
         "return byte-identical results; per-partition parallel scans give "
         "wall-clock speedup where cores exist");

  // Skewed star schema, range-partitioned fact on d0_id, with a correlated
  // column, no FK indexes (so scans are the only access path and pruning is
  // visible in page counts).
  Database db;
  workload::StarSchemaSpec spec;
  spec.num_dimensions = 2;
  spec.fact_rows = kFactRows;
  spec.dim_rows = kDimRows;
  spec.index_fact_fks = false;
  spec.fact_fk_theta = 0.5;  // Zipf-skewed foreign keys
  spec.fact_partitions = kPartitions;
  spec.correlated_column = true;
  QOPT_DCHECK(workload::BuildStarSchema(&db, spec).ok());

  std::ofstream json(out_path);
  if (!json) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path);
    return 1;
  }
  unsigned hardware = std::thread::hardware_concurrency();
  json << "{\n  \"bench\": \"data_plane\",\n"
       << "  \"fact_rows\": " << kFactRows << ",\n"
       << "  \"partitions\": " << kPartitions << ",\n"
       << "  \"hardware_threads\": " << hardware << ",\n";
  bool ok = true;

  // --- 1. Pruning proportionality -----------------------------------
  // Zipf skew makes partition 0 (low d0_id values) the largest, so probe a
  // mid-range value: proportionality is against the partition's actual
  // page share, which per-partition stats record.
  {
    const char* full_sql = "SELECT COUNT(*) FROM fact f";
    const std::string pruned_sql =
        "SELECT COUNT(*) FROM fact f WHERE f.d0_id = " +
        std::to_string(kDimRows / 2);
    QueryOptions opts;
    auto full = db.Query(full_sql, opts);
    auto pruned = db.Query(pruned_sql, opts);
    QOPT_DCHECK(full.ok() && pruned.ok());
    QueryOptions naive;
    naive.naive_execution = true;
    auto oracle = db.Query(pruned_sql, naive);
    QOPT_DCHECK(oracle.ok());
    bool count_ok = SameRows(pruned.value().rows, oracle.value().rows);

    double full_pages =
        static_cast<double>(full.value().exec_stats.modeled_pages_read);
    double pruned_pages =
        static_cast<double>(pruned.value().exec_stats.modeled_pages_read);
    // Skew means the kept partition is not exactly 1/N of the pages; allow
    // 2x headroom over the uniform share. The point is order-of-magnitude
    // proportionality, not equality.
    bool proportional =
        pruned_pages <= full_pages * (2.0 / kPartitions) + 2 &&
        pruned_pages < full_pages / 2;

    auto explain = db.Explain(pruned_sql, opts);
    bool annotated =
        explain.ok() &&
        explain.value().find("[partitions: 1/" +
                             std::to_string(kPartitions) + "]") !=
            std::string::npos;
    ok = ok && count_ok && proportional && annotated;

    TablePrinter t({"scan", "modeled pages", "share", "correct"});
    t.AddRow({"full", Fmt(full_pages, 0), "1.00", "yes"});
    t.AddRow({"pruned (1/8)", Fmt(pruned_pages, 0),
              Fmt(pruned_pages / full_pages, 2), count_ok ? "yes" : "NO"});
    t.Print();
    std::printf("  EXPLAIN shows [partitions: 1/%d]: %s\n\n", kPartitions,
                annotated ? "yes" : "NO");
    json << "  \"pruning\": {\"full_pages\": " << Fmt(full_pages, 0)
         << ", \"pruned_pages\": " << Fmt(pruned_pages, 0)
         << ", \"kept_partitions\": 1"
         << ", \"proportional\": " << (proportional ? "true" : "false")
         << ", \"explain_annotated\": " << (annotated ? "true" : "false")
         << ", \"count_matches_naive\": " << (count_ok ? "true" : "false")
         << "},\n";
  }

  // --- 2. Spill byte-identical + degradation contract ----------------
  {
    // Join + total-order sort: the grace hash join and the external sort
    // both engage under a tiny per-operator budget.
    const char* sql =
        "SELECT f.id, d0.attr, f.measure FROM fact f, dim0 d0 "
        "WHERE f.d0_id = d0.id AND f.measure < 800 ORDER BY f.id";
    QueryOptions in_mem;  // spill enabled but unarmed: no budget anywhere
    auto baseline = db.Query(sql, in_mem);
    QOPT_DCHECK(baseline.ok());

    QueryOptions spilling;
    spilling.spill.operator_budget_bytes = 48 * 1024;
    auto spilled = db.Query(sql, spilling);
    QOPT_DCHECK(spilled.ok());
    bool identical = SameRows(baseline.value().rows, spilled.value().rows);
    uint64_t runs = spilled.value().exec_stats.spill_runs;
    uint64_t bytes = spilled.value().exec_stats.spill_bytes_written;
    bool really_spilled = runs > 0 && bytes > 0;

    // Degradation contract: a governor memory budget that kills the sort
    // with spill disabled completes (spilling) with spill enabled.
    const char* big_sort =
        "SELECT f.id, f.measure FROM fact f ORDER BY f.measure, f.id "
        "LIMIT 10";
    QueryOptions hard_fail;
    hard_fail.spill.enabled = false;
    hard_fail.governor.max_memory_bytes = 256 * 1024;
    auto failed = db.Query(big_sort, hard_fail);
    bool fails_without_spill =
        !failed.ok() &&
        failed.status().code() == StatusCode::kResourceExhausted;
    QueryOptions degrade;
    degrade.governor.max_memory_bytes = 256 * 1024;
    auto degraded = db.Query(big_sort, degrade);
    bool survives_with_spill =
        degraded.ok() && degraded.value().exec_stats.spill_runs > 0;

    ok = ok && identical && really_spilled && fails_without_spill &&
         survives_with_spill;
    TablePrinter t({"leg", "rows", "spill runs", "spill bytes", "verdict"});
    t.AddRow({"in-memory", FmtInt(baseline.value().rows.size()), "0", "0",
              "baseline"});
    t.AddRow({"spilling (48KiB)", FmtInt(spilled.value().rows.size()),
              FmtInt(runs), FmtInt(bytes),
              identical ? "byte-identical" : "DIVERGED"});
    t.AddRow({"sort, no spill, 256KiB", "-", "-", "-",
              fails_without_spill ? "kResourceExhausted" : "UNEXPECTED"});
    t.AddRow({"sort, spill, 256KiB",
              degraded.ok() ? FmtInt(degraded.value().rows.size()) : "-",
              degraded.ok() ? FmtInt(degraded.value().exec_stats.spill_runs)
                            : "-",
              "-", survives_with_spill ? "completed" : "FAILED"});
    t.Print();
    json << "  \"spill\": {\"rows\": " << baseline.value().rows.size()
         << ", \"byte_identical\": " << (identical ? "true" : "false")
         << ", \"spill_runs\": " << runs
         << ", \"spill_bytes\": " << bytes
         << ", \"fails_without_spill\": "
         << (fails_without_spill ? "true" : "false")
         << ", \"survives_with_spill\": "
         << (survives_with_spill ? "true" : "false") << "},\n";
  }

  // --- 3. Parallel wall-clock speedup over partitioned scans ----------
  {
    // Scan-heavy pipeline over the partitioned fact table; half the
    // partitions survive pruning, and the morsel source hands out ranges
    // of the surviving partitions only.
    const std::string sql =
        "SELECT f.id, f.measure FROM fact f WHERE f.d0_id < " +
        std::to_string(kDimRows / 2) + " AND f.measure < 900";
    constexpr int kReps = 5;
    QueryOptions serial_opts;
    serial_opts.execution_mode = exec::ExecMode::kBatch;
    QueryOptions par_opts;
    par_opts.execution_mode = exec::ExecMode::kParallel;
    par_opts.dop = 4;
    double serial_wall = 1e100, par_wall = 1e100;
    double serial_cpu = 1e100, par_crit = 1e100;
    size_t serial_rows = 0, par_rows = 0;
    for (int i = 0; i < kReps; ++i) {
      // Interleaved so machine-load drift skews both sides equally.
      Stopwatch sw1;
      double c0 = ThreadCpuMs();
      auto s = db.Query(sql, serial_opts);
      double scpu = ThreadCpuMs() - c0;
      double swall = sw1.ElapsedMs();
      QOPT_DCHECK(s.ok());
      serial_rows = s.value().rows.size();
      if (scpu < serial_cpu) serial_cpu = scpu;
      if (swall < serial_wall) serial_wall = swall;
      Stopwatch sw2;
      auto p = db.Query(sql, par_opts);
      double pwall = sw2.ElapsedMs();
      QOPT_DCHECK(p.ok());
      par_rows = p.value().rows.size();
      double crit = p.value().exec_stats.parallel_critical_cpu_ms;
      if (crit > 0 && crit < par_crit) par_crit = crit;
      if (pwall < par_wall) par_wall = pwall;
    }
    // How many of 4 spinning tasks the host ran side by side just now
    // (bench_util.h): tells a host-serialized window from a regression.
    const double host_x = HostParallelX(4);
    bool rows_match = serial_rows == par_rows;
    double wall_x = serial_wall / par_wall;
    double modeled_x = serial_cpu / par_crit;
    // The wall gate needs cores; the modeled gate measures morsel balance
    // on any host. Both are reported, the applicable one is enforced.
    bool wall_gate_applicable = hardware >= 4;
    bool meets_gate =
        wall_gate_applicable ? wall_x >= 1.5 : modeled_x >= 1.5;
    ok = ok && rows_match && meets_gate;

    TablePrinter t({"dop", "serial ms", "par ms", "wall x", "host x",
                    "modeled x", "rows", "parity"});
    t.AddRow({"4", Fmt(serial_wall, 2), Fmt(par_wall, 2), Fmt(wall_x, 2),
              Fmt(host_x, 2), Fmt(modeled_x, 2), FmtInt(par_rows),
              rows_match ? "yes" : "NO"});
    t.Print();
    std::printf("  hardware threads: %u (wall gate %s)\n\n", hardware,
                wall_gate_applicable ? "applies" : "not applicable");
    json << "  \"parallel\": {\"dop\": 4"
         << ", \"serial_wall_ms\": " << Fmt(serial_wall, 3)
         << ", \"parallel_wall_ms\": " << Fmt(par_wall, 3)
         << ", \"wall_speedup\": " << Fmt(wall_x, 3)
         << ", \"host_parallel_x\": " << Fmt(host_x, 3)
         << ", \"modeled_speedup\": " << Fmt(modeled_x, 3)
         << ", \"wall_gate_applicable\": "
         << (wall_gate_applicable ? "true" : "false")
         << ", \"meets_speedup_gate\": " << (meets_gate ? "true" : "false")
         << ", \"rows_match\": " << (rows_match ? "true" : "false")
         << "},\n";
  }

  json << "  \"all_pass\": " << (ok ? "true" : "false") << "\n}\n";
  json.close();
  if (!json) {
    std::fprintf(stderr, "error: write to %s failed\n", out_path);
    return 1;
  }
  std::printf("  results written to %s\n", out_path);
  if (!ok) {
    std::printf("  ERROR: a data-plane claim failed\n");
    return 1;
  }
  return 0;
}
