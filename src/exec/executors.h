// Volcano-style iterator execution engine (paper Section 2: "physical
// operators are pieces of code used as building blocks for execution"),
// vectorized: the iterator yields batches of rows.
//
// Each PhysicalPlan node maps to an Executor producing RowBatches via
// Init()/NextBatch(). Init() may be called again to rescan (used by the
// Apply operator, which re-executes its inner subtree per outer tuple — the
// tuple-iteration semantics of §4.2.2).
//
// NextBatch() is the only way rows leave an operator. Each executor carries
// a batch capacity set by the builder: the context's capacity, or 1 in the
// subtrees that must not read ahead of their consumer (see ExecMode). A
// child never has a larger capacity than its parent, so an operator may
// hand its child's batch straight on. At capacity 1 every operator runs
// row-at-a-time, so every mode produces identical results and identical
// ExecStats.
#ifndef QOPT_EXEC_EXECUTORS_H_
#define QOPT_EXEC_EXECUTORS_H_

#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "engine/governor.h"
#include "engine/metrics.h"
#include "exec/expr_eval.h"
#include "exec/physical_plan.h"
#include "exec/row_batch.h"
#include "storage/spill.h"
#include "storage/storage.h"

namespace qopt {
class ThreadPool;
}

namespace qopt::exec {

/// Execution mode for an executor tree. All modes build the same operators;
/// they differ in batch capacity and parallelism. kBatch runs at
/// `ExecContext::batch_capacity`, except that the subtrees below Apply
/// (tuple iteration), index nested-loops (per-outer-row probes) and Limit
/// (early termination) run at capacity 1, so no operator reads ahead of its
/// consumer and observed ExecStats stay exact. kRow runs every operator at
/// capacity 1 (the row-at-a-time baseline). kParallel with dop > 1
/// additionally runs maximal eligible subtrees (table scans, filters,
/// projections, hash joins, a root hash aggregate) morsel-parallel across
/// `ExecContext::dop` workers, gathering at the subtree root; the rest of
/// the plan, and the whole plan at dop 1, runs exactly as kBatch.
enum class ExecMode { kRow, kBatch, kParallel };

/// Observed execution counters, used to validate the cost model (E17).
struct ExecStats {
  double modeled_pages_read = 0;  ///< Buffer-pool MISSES (modeled I/O).
  uint64_t page_touches = 0;      ///< All page accesses, hit or miss.
  uint64_t rows_scanned = 0;      ///< Base rows read by scans.
  uint64_t index_lookups = 0;
  uint64_t rows_joined = 0;       ///< Join output rows.
  uint64_t subquery_executions = 0;  ///< Apply inner re-executions.
  // Spill instrumentation (external sort runs + grace-join partitions).
  uint64_t spill_runs = 0;           ///< Spill files written.
  uint64_t spill_bytes_written = 0;  ///< Total bytes spilled to disk.
  // Parallel-mode instrumentation (zero in serial modes). Thread CPU time
  // measures the true work split even when workers time-share cores, so
  // the bench can report a machine-independent modeled speedup:
  // serial CPU / critical path.
  // Both cover the gather's region phases only: ExecuteAll's pooled row
  // build after the drain is in neither.
  double parallel_worker_cpu_ms = 0;    ///< Σ worker CPU over all phases.
  double parallel_critical_cpu_ms = 0;  ///< Σ over phases of max worker CPU.
  /// True once any morsel-parallel region ran: the workers' private LRU
  /// buffer-pool simulators see different access orders than the serial
  /// modes' single pool, so `modeled_pages_read` is not comparable against
  /// a serial run of the same query. Every other counter stays exact
  /// (`page_touches`, `rows_scanned`, ... are access counts, not pool
  /// state). Surfaced in the EXPLAIN ANALYZE footer; pinned by
  /// tests/integration/explain_analyze_test.cc.
  bool parallel_pages_divergent = false;
};

/// Per-operator runtime statistics recorded when ExecContext::analyze is
/// set (EXPLAIN ANALYZE). Keyed by plan node, never stored on the plan
/// itself: plans are shared (plan cache, parallel worker trees), stats are
/// per-execution.
struct OperatorStats {
  uint64_t inits = 0;        ///< Init calls (rescans under Apply count).
  uint64_t rows_out = 0;     ///< Rows produced to the parent.
  uint64_t batches_out = 0;  ///< Batches produced.
  uint64_t next_calls = 0;   ///< NextBatch invocations.
  uint64_t wall_ns = 0;      ///< Inclusive wall time (children included).
  uint64_t peak_mem_bytes = 0;  ///< Modeled materialization high-water mark.
  // Parallel mode: worker executor trees share this node's plan pointer;
  // their per-worker stats are merged into these separate fields at the
  // gather barrier so the serial fields are never double-counted.
  uint64_t worker_rows_out = 0;
  uint64_t worker_wall_ns = 0;       ///< Σ across workers (not wall time).
  uint64_t worker_peak_mem_bytes = 0;
  uint32_t workers = 0;              ///< Workers that executed this node.
  // Expression slots this node evaluated with a compiled program vs. the
  // interpreter (EXPLAIN ANALYZE renders these as "[expr: ...]").
  uint32_t expr_compiled = 0;
  uint32_t expr_fallback = 0;
  // Spill events attributed to this operator (EXPLAIN ANALYZE renders
  // these as "[spill: N runs, B bytes]").
  uint64_t spill_runs = 0;
  uint64_t spill_bytes = 0;

  /// Actual output cardinality: the serially-observed count when this node
  /// ran on the main context, else the merged per-worker count.
  uint64_t ActualRows() const {
    return rows_out > 0 ? rows_out : worker_rows_out;
  }
};

/// Stats per plan node. Value-pointer stability (node-based map) lets each
/// executor cache its entry across NextBatch calls.
using OperatorStatsMap = std::unordered_map<const PhysicalPlan*, OperatorStats>;

/// q-error of a cardinality estimate (Datta et al.: the divergence metric
/// for optimizer quality): max(est/act, act/est) with both sides clamped to
/// >= 1 so exact small counts and empty results behave. 1.0 iff exact.
inline double QError(double est_rows, uint64_t act_rows) {
  double e = est_rows > 1.0 ? est_rows : 1.0;
  double a = act_rows > 1 ? static_cast<double>(act_rows) : 1.0;
  return e > a ? e / a : a / e;
}

/// LRU buffer-pool simulator: execution counts a modeled page read only on
/// a miss, mirroring the buffer-utilization modeling the paper calls out
/// as key to accurate cost estimation (§5.2, after [40]).
class BufferPoolSim {
 public:
  explicit BufferPoolSim(size_t capacity = 512) : capacity_(capacity) {}

  /// Accesses `page_key`; returns true on a miss (page was not resident).
  bool Touch(uint64_t page_key) {
    auto it = map_.find(page_key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return false;
    }
    lru_.push_front(page_key);
    map_[page_key] = lru_.begin();
    if (map_.size() > capacity_) {
      map_.erase(lru_.back());
      lru_.pop_back();
    }
    return true;
  }

  /// Page-key namespaces.
  static uint64_t DataPage(int table_id, uint64_t page) {
    return (1ULL << 62) | (static_cast<uint64_t>(table_id) << 40) | page;
  }
  static uint64_t IndexPage(int index_id, uint64_t page) {
    return (2ULL << 62) | (static_cast<uint64_t>(index_id) << 40) | page;
  }

 private:
  size_t capacity_;
  std::list<uint64_t> lru_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> map_;
};

/// Shared execution state: storage handles, correlated parameters and
/// counters.
struct ExecContext {
  Storage* storage = nullptr;
  const Catalog* catalog = nullptr;
  ParamMap params;
  ExecStats stats;
  BufferPoolSim buffer_pool;
  /// Executor-tree construction mode (see ExecMode).
  ExecMode mode = ExecMode::kRow;
  /// Rows per RowBatch for the executors that run at full capacity (see
  /// ExecMode); the builder gives every other executor capacity 1.
  size_t batch_capacity = kDefaultBatchCapacity;
  /// Degree of parallelism under ExecMode::kParallel: number of workers
  /// per parallel region (clamped to ThreadPool::kMaxThreads). dop=1 builds
  /// the serial kBatch tree, with no gather.
  size_t dop = 1;
  /// Worker threads for parallel regions; null runs all workers on the
  /// calling thread (still morsel-partitioned — useful for tests).
  ThreadPool* pool = nullptr;
  /// Target rows per scan morsel (rounded up to page boundaries).
  size_t morsel_rows = 4096;
  /// Per-query resource governor (deadline + row/memory budgets); null when
  /// the query runs ungoverned. Shared with the optimizer for this query.
  ResourceGovernor* governor = nullptr;
  /// Sticky first error. NextBatch() returns false (end of stream) and
  /// records the cause here, because the iterator signature cannot carry a
  /// Status; ExecuteAll surfaces it as the query's Result.
  Status status;
  /// EXPLAIN ANALYZE: when set, every executor records OperatorStats into
  /// `op_stats` (keyed by plan node). Off by default — the only cost then
  /// is one predictable branch per Init/NextBatch dispatch.
  bool analyze = false;
  OperatorStatsMap op_stats;
  /// Compile expressions to vectorized programs, in every mode
  /// (QueryOptions::compile_expressions). Off forces the interpreter
  /// everywhere, which is the parity oracle.
  bool compile_expressions = true;
  /// Optional metric handles (owned by the engine's MetricsRegistry).
  MetricsRegistry::Counter* expr_compiled_metric = nullptr;
  MetricsRegistry::Counter* expr_fallback_metric = nullptr;
  MetricsRegistry::Histogram* expr_compile_ns = nullptr;
  /// Wall time ExecuteAll spends building the result rows, per query.
  MetricsRegistry::Histogram* materialize_ns = nullptr;
  /// Resolved spill policy (see SpillConfig). When `spill.armed`, the
  /// spill-capable materializing operators (Sort, hash join) run in memory
  /// until their working set crosses `spill.budget_bytes`, then degrade to
  /// their external variants instead of failing with kResourceExhausted on
  /// the governor's byte budget.
  SpillConfig spill;
  MetricsRegistry::Counter* spill_runs_metric = nullptr;
  MetricsRegistry::Counter* spill_bytes_metric = nullptr;
  MetricsRegistry::Histogram* spill_run_bytes = nullptr;

  /// Records an access to `page_key`, counting a modeled read on miss.
  void TouchPage(uint64_t page_key) {
    ++stats.page_touches;
    if (buffer_pool.Touch(page_key)) stats.modeled_pages_read += 1;
  }

  /// Records `s` as the query error if none is set yet (first error wins).
  void Fail(Status s) {
    if (status.ok()) status = std::move(s);
  }

  /// Records `s` if it is an error; true iff it is OK.
  bool Check(Status s) {
    if (s.ok()) return true;
    Fail(std::move(s));
    return false;
  }

  /// True once any executor has failed; drains the rest of the tree fast.
  bool Failed() const { return !status.ok(); }

  /// Cooperative governor tick from a hot row loop: on deadline expiry,
  /// records the error and returns false so the caller can end its stream.
  bool GovernorTick(uint64_t rows = 1) {
    if (governor == nullptr) return true;
    Status s = governor->Tick(rows);
    if (s.ok()) return true;
    Fail(std::move(s));
    return false;
  }

  /// Charges a materialization (hash build, sort buffer, agg table, ...)
  /// against the governor budgets; false (with the error recorded) on
  /// exhaustion.
  bool GovernorCharge(uint64_t rows, uint64_t bytes) {
    if (governor == nullptr) return true;
    Status s = governor->ChargeMaterialized(rows, bytes);
    if (s.ok()) return true;
    Fail(std::move(s));
    return false;
  }
};

/// Modeled in-memory footprint of a row of `num_cols` values for governor
/// accounting: a flat per-value estimate, deliberately coarse — budgets
/// bound magnitude, not exact allocator bytes. Column pruning makes widths
/// vary per plan; every charge goes through this one formula.
inline uint64_t ModeledRowBytes(size_t num_cols) {
  return 16 + 24 * static_cast<uint64_t>(num_cols);
}
inline uint64_t ModeledRowBytes(const Row& row) {
  return ModeledRowBytes(row.size());
}

/// Modeled footprint of one hash-aggregation group: its key row plus a flat
/// per-accumulator estimate. The governor charge of every new group.
inline uint64_t ModeledGroupBytes(size_t key_cols, size_t num_aggs) {
  constexpr uint64_t kAccBytes = 48;
  return ModeledRowBytes(key_cols) +
         kAccBytes * static_cast<uint64_t>(num_aggs);
}

/// Iterator-model operator producing batches.
///
/// The public Init/NextBatch entry points are non-virtual dispatchers
/// (template method): when ExecContext::analyze is off they forward
/// straight to the virtual *Impl hooks, and when it is on they additionally
/// record OperatorStats (rows/batches out, inclusive wall time) around the
/// hook. Subclasses implement InitImpl/NextBatchImpl and call the *public*
/// methods on their children, so instrumentation covers every operator
/// boundary exactly once — including the parallel worker trees, which are
/// built from the same classes.
class Executor {
 public:
  Executor(const PhysicalPlan* plan, ExecContext* ctx)
      : plan_(plan), ctx_(ctx), batch_capacity_(ctx->batch_capacity) {
    for (size_t i = 0; i < plan->output_cols.size(); ++i) {
      colmap_[plan->output_cols[i].id] = static_cast<int>(i);
    }
  }
  virtual ~Executor() = default;

  /// (Re)opens the operator; idempotent, used for rescans.
  void Init() {
    if (!ctx_->analyze) {
      InitImpl();
      return;
    }
    ostats_ = &ctx_->op_stats[plan_];
    ++ostats_->inits;
    mem_bytes_ = 0;  // rescans rebuild materialized state from scratch
    auto t0 = std::chrono::steady_clock::now();
    InitImpl();
    ostats_->wall_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  /// Produces the next batch of at most the executor's capacity rows; false
  /// at end of stream. A true return may carry zero live rows (a fully
  /// filtered batch) — consumers must loop.
  bool NextBatch(RowBatch* out) {
    if (ostats_ == nullptr) return NextBatchImpl(out);
    auto t0 = std::chrono::steady_clock::now();
    bool ok = NextBatchImpl(out);
    ostats_->wall_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    ++ostats_->next_calls;
    if (ok) {
      ++ostats_->batches_out;
      ostats_->rows_out += out->ActiveSize();
    }
    return ok;
  }

  const PhysicalPlan& plan() const { return *plan_; }
  const ColMap& colmap() const { return colmap_; }

  /// Sets the most rows one NextBatch() call returns; `ctx->batch_capacity`
  /// unless the builder lowers it (to 1 where read-ahead would show in
  /// ExecStats).
  void set_batch_capacity(size_t capacity) { batch_capacity_ = capacity; }

 protected:
  virtual void InitImpl() = 0;
  virtual bool NextBatchImpl(RowBatch* out) = 0;

  /// Moves `rows`, from `*pos` on, into `out` until it is full: the output
  /// of the operators that materialize their result before emitting it
  /// (sort, hash aggregate, the parallel gather under an aggregate root).
  /// False once every row is out.
  /// Each row's storage is freed as it goes out, so the emitted part of
  /// `rows` does not stay allocated beside the consumer's copy.
  bool EmitRows(std::vector<Row>* rows, size_t* pos, RowBatch* out) {
    if (ctx_->Failed() || *pos >= rows->size()) return false;
    out->Reset(plan_->output_cols.size(), batch_capacity_);
    while (!out->full() && *pos < rows->size()) {
      out->AppendRow(Row(std::move((*rows)[(*pos)++])));
    }
    return true;
  }

  /// Records whether one of this operator's expression slots runs compiled
  /// or interpreted (EXPLAIN ANALYZE only). Call once per slot per Init,
  /// right after resolving the program.
  void RecordExprMode(bool compiled) {
    if (ostats_ == nullptr) return;
    if (compiled) {
      ++ostats_->expr_compiled;
    } else {
      ++ostats_->expr_fallback;
    }
  }

  /// Records `runs` spill files totalling `bytes` written by this operator:
  /// query-level ExecStats, the engine's spill.* metrics, and (under
  /// EXPLAIN ANALYZE) this operator's stats entry.
  void RecordSpill(uint64_t runs, uint64_t bytes) {
    ctx_->stats.spill_runs += runs;
    ctx_->stats.spill_bytes_written += bytes;
    if (ctx_->spill_runs_metric != nullptr) ctx_->spill_runs_metric->Add(runs);
    if (ctx_->spill_bytes_metric != nullptr) {
      ctx_->spill_bytes_metric->Add(bytes);
    }
    if (ctx_->spill_run_bytes != nullptr && runs > 0) {
      ctx_->spill_run_bytes->Record(bytes / runs);
    }
    if (ostats_ != nullptr) {
      ostats_->spill_runs += runs;
      ostats_->spill_bytes += bytes;
    }
  }

  /// Flushes spill files this operator wrote and records the non-empty ones
  /// as spill runs; false (with the error recorded) on an I/O failure.
  bool SealSpillFiles(const std::vector<std::unique_ptr<SpillFile>>& files) {
    for (const std::unique_ptr<SpillFile>& f : files) {
      if (!ctx_->Check(f->FinishWrite())) return false;
      if (f->rows() > 0) RecordSpill(1, f->bytes_written());
    }
    return true;
  }

  /// Accounts `bytes` of modeled materialized state (hash build, sort
  /// buffer, agg table) toward this operator's peak-memory stat. Call next
  /// to the matching GovernorCharge; no-op unless EXPLAIN ANALYZE is on.
  /// The running sum resets on Init (rescans rebuild state).
  void ChargeMem(uint64_t bytes) {
    if (ostats_ == nullptr) return;
    mem_bytes_ += bytes;
    if (mem_bytes_ > ostats_->peak_mem_bytes) {
      ostats_->peak_mem_bytes = mem_bytes_;
    }
  }

  /// Charges one held row (a hash-set entry, a buffered input row) to the
  /// governor and to this operator's peak memory; false (with the error
  /// recorded) on exhaustion.
  bool ChargeRow(const Row& row) {
    if (!ctx_->GovernorCharge(1, ModeledRowBytes(row))) return false;
    ChargeMem(ModeledRowBytes(row));
    return true;
  }

  const PhysicalPlan* plan_;
  ExecContext* ctx_;
  ColMap colmap_;
  size_t batch_capacity_;

 private:
  OperatorStats* ostats_ = nullptr;  ///< Set by Init when analyze is on.
  uint64_t mem_bytes_ = 0;           ///< Modeled bytes since last Init.
};

/// Builds the executor tree for `plan`, honoring `ctx->mode`.
std::unique_ptr<Executor> BuildExecutor(const PhysPtr& plan, ExecContext* ctx);

/// Runs `plan` to completion and returns all rows, or the error recorded on
/// `ctx` (cancellation, budget exhaustion, injected faults). The root is
/// driven batch-at-a-time in every mode, and each batch is charged to the
/// governor as it arrives. Without a pool each batch's rows are built as
/// it arrives. With a pool (dop > 1) the batches are kept until the drain
/// ends, sparse ones compacted (BufferBatch), and their rows are then
/// moved into a presized result on the pool, at most dop tasks over
/// contiguous batch ranges; row order is the drain order either way. The
/// build's wall time goes to `ctx->materialize_ns`.
Result<std::vector<Row>> ExecuteAll(const PhysPtr& plan, ExecContext* ctx);

/// The vectorized operators (scan, filter, project, hash join) that run at
/// full batch capacity under ExecMode::kBatch (mirrors the builder's
/// capacity rules; used by EXPLAIN's [batch] markers). Spill never changes
/// the set: a hash join decides at run time, when its build crosses the
/// spill budget, to go grace (DESIGN.md §3.13).
std::unordered_set<const PhysicalPlan*> BatchModeNodes(const PhysPtr& plan);

/// The roots of the maximal subtrees that run morsel-parallel under
/// ExecMode::kParallel at dop > 1 (mirrors the builder's region-selection
/// rules; used by EXPLAIN). Spill-independent, as BatchModeNodes: a region
/// whose build phase crosses the spill budget reruns on the serial batch
/// tree.
std::unordered_set<const PhysicalPlan*> ParallelRegionRoots(
    const PhysPtr& plan);

}  // namespace qopt::exec

#endif  // QOPT_EXEC_EXECUTORS_H_
