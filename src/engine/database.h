// Database: the top-level facade tying together catalog, storage,
// statistics, parser, binder, optimizer and executor.
#ifndef QOPT_ENGINE_DATABASE_H_
#define QOPT_ENGINE_DATABASE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/governor.h"
#include "engine/metrics.h"
#include "engine/plan_cache.h"
#include "engine/thread_pool.h"
#include "exec/executors.h"
#include "optimizer/optimizer.h"
#include "stats/feedback.h"
#include "stats/stats_builder.h"

namespace qopt {

namespace plan {
struct QueryFingerprint;
}  // namespace plan

class Session;
struct ServingOptions;
struct ServingState;

/// Per-query knobs.
struct QueryOptions {
  opt::OptimizerOptions optimizer;
  /// Bypass the optimizer entirely: execute the bound logical plan 1:1
  /// (syntactic join order, nested-loop joins, tuple-iteration subqueries).
  /// The correctness oracle for tests and the "unoptimized" baseline for
  /// benchmarks.
  bool naive_execution = false;
  /// Execution engine mode (see exec::ExecMode). Every mode builds the same
  /// operators. kBatch (default) runs them over RowBatches of
  /// `batch_capacity` rows, except at capacity 1 under Apply, index
  /// nested-loops and Limit, where read-ahead would change the work done.
  /// kRow runs everything at capacity 1 (row-at-a-time). kParallel adds
  /// morsel-parallel regions at dop > 1. All modes return identical results
  /// and identical ExecStats (parallel regions: but for modeled_pages_read).
  exec::ExecMode execution_mode = exec::ExecMode::kBatch;
  /// Compile bound predicates, projections and aggregate arguments into
  /// flat type-specialized programs, in every execution mode, falling back
  /// to the interpreter per expression for shapes the compiler does not
  /// cover (CASE, correlated columns, ...).
  /// Results are byte-identical either way — the interpreter stays the
  /// parity oracle; disable to force interpretation everywhere.
  /// Plan-affecting (compiled programs are cached on the physical plan).
  bool compile_expressions = true;
  /// Rows per batch outside the capacity-1 subtrees (ignored by kRow).
  size_t batch_capacity = exec::kDefaultBatchCapacity;
  /// Degree of parallelism under ExecMode::kParallel (workers per parallel
  /// region, clamped to ThreadPool::kMaxThreads); dop 1 runs as kBatch.
  /// Ignored in serial modes.
  size_t dop = 4;
  /// Target rows per scan morsel under ExecMode::kParallel.
  size_t morsel_rows = 4096;
  /// Resource governance (deadline, row/memory budgets), enforced across
  /// both optimization and execution. Defaults to unlimited; see
  /// GovernorOptions::ServiceDefaults() for production-style caps.
  GovernorOptions governor;
  /// Spill-to-disk degradation for materializing operators (external sort,
  /// grace hash join). Arms when enabled and a memory budget exists to
  /// degrade against — an explicit operator_budget_bytes here, or the
  /// governor's max_memory_bytes (a quarter of it per operator, 64 KiB
  /// floor). Armed operators keep their working set under the budget by
  /// writing sorted runs / build+probe partitions to temporary files
  /// instead of failing with kResourceExhausted; results are identical.
  /// Not plan-affecting (excluded from the plan-cache options digest) —
  /// the same plan executes spilled or in-memory. See docs/DATA_PLANE.md.
  SpillOptions spill;
  /// Reuse compiled plans across queries through the fingerprint-keyed
  /// plan cache (compile once, execute many). Entries are validated
  /// against the catalog schema epoch and per-table statistics versions on
  /// every hit, and never reuse a plan compiled with different literal
  /// types or optimizer settings. Disable to force a fresh optimization.
  bool use_plan_cache = true;
  /// When a cached fingerprint keeps missing because one numeric range
  /// literal varies, also compile a parametric piecewise-optimal plan
  /// (§7.4) over that literal so later executions pick the interval's plan
  /// instead of re-optimizing. Requires statistics on the compared column.
  bool plan_cache_parametric = true;
  /// EXPLAIN ANALYZE: record per-operator runtime statistics (rows/batches
  /// produced, wall time, peak memory on materializing operators) during
  /// execution. QueryResult then carries the plan and the stats map so the
  /// annotated plan can be rendered. Off by default — the instrumented
  /// dispatch costs one branch per operator call when disabled.
  bool analyze = false;
  /// Record an optimizer trace (rewrite firings, DP-table expansions,
  /// Cascades tasks) into OptimizeInfo::trace. Forces a plan-cache bypass:
  /// a cache hit would skip the search being traced.
  bool trace_optimizer = false;
  /// Cardinality feedback (§5: estimation is the optimizer's weakest link):
  /// consult the database's feedback store of observed fragment
  /// cardinalities during estimation, and — when `analyze` is also set —
  /// harvest this query's observed cardinalities back into the store after
  /// execution. Ignored under naive execution (the correctness oracle must
  /// not depend on execution history). Plan-affecting (digested into the
  /// plan-cache key), so feedback-on and feedback-off plans never collide.
  bool use_feedback = true;
  /// Global in-flight budget shared across concurrent queries (the serving
  /// layer's SharedResourcePool); the query's governor mirrors its
  /// materialization charges into it and fails with kUnavailable when the
  /// *server* (not this query) is over budget. Set by Session::Query; raw
  /// Database::Query callers normally leave it null. Not plan-affecting
  /// (excluded from the plan-cache options digest).
  SharedResourcePool* shared_pool = nullptr;
};

/// A query's results plus diagnostics.
struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<Row> rows;
  exec::ExecStats exec_stats;
  opt::OptimizeInfo optimize_info;
  /// QueryOptions::analyze only: the executed physical plan and the
  /// per-operator runtime statistics collected while running it (keyed by
  /// plan node; the shared plan pointer keeps the keys alive).
  exec::PhysPtr analyzed_plan;
  exec::OperatorStatsMap op_stats;

  /// Pretty-printed table (for examples / debugging).
  std::string ToString(size_t max_rows = 25) const;
};

/// An embedded SQL database with a cost-based optimizer.
///
/// Concurrency model: queries (Query / PlanQuery / Explain) may run from
/// any number of threads. Each query plans, validates the plan cache and
/// executes against an immutable catalog snapshot acquired up front; DDL
/// and ANALYZE serialize on an internal mutex, mutate the live catalog and
/// publish a fresh snapshot (copy-on-write), so they can run alongside
/// readers. Data-plane writes (INSERT / BulkLoad) mutate unsynchronized
/// table contents and must not run concurrently with queries — route them
/// through a Session, which drains in-flight queries via exclusive
/// admission first (see engine/session.h).
class Database {
 public:
  Database();
  ~Database();

  // --- DDL / DML (SQL) ---

  /// Executes CREATE TABLE / CREATE INDEX / CREATE VIEW / INSERT.
  Status Execute(const std::string& sql);

  // --- Programmatic DDL / loading (workload generators) ---

  Result<int> CreateTable(const std::string& name,
                          std::vector<ColumnDef> columns,
                          int primary_key = -1);
  /// Creates a range- or hash-partitioned table (see PartitionSpec).
  Result<int> CreateTable(const std::string& name,
                          std::vector<ColumnDef> columns, int primary_key,
                          PartitionSpec partition);
  Result<int> CreateIndex(const std::string& name, const std::string& table,
                          const std::string& column, bool clustered = false,
                          bool unique = false);
  Status AddForeignKey(const std::string& table, const std::string& column,
                       const std::string& ref_table,
                       const std::string& ref_column);
  Status BulkLoad(const std::string& table, std::vector<Row> rows);

  /// Collects statistics for one table / all tables (paper §5.1).
  Status Analyze(const std::string& table,
                 const stats::StatsOptions& options = {});
  Status AnalyzeAll(const stats::StatsOptions& options = {});

  // --- Queries ---

  /// Parses, binds, optimizes and executes a SELECT.
  Result<QueryResult> Query(const std::string& sql,
                            const QueryOptions& options = {});

  /// Returns the physical plan chosen for `sql` without executing it.
  Result<exec::PhysPtr> PlanQuery(const std::string& sql,
                                  const QueryOptions& options = {},
                                  opt::OptimizeInfo* info = nullptr,
                                  std::vector<std::string>* names = nullptr);

  /// EXPLAIN: rendered physical plan with cost annotations.
  Result<std::string> Explain(const std::string& sql,
                              const QueryOptions& options = {});

  /// EXPLAIN ANALYZE: executes `sql` with per-operator instrumentation and
  /// renders the plan annotated with actual rows, q-error, wall time and
  /// peak memory per node (plus the optimizer trace when
  /// options.trace_optimizer is set).
  Result<std::string> ExplainAnalyze(const std::string& sql,
                                     const QueryOptions& options = {});

  /// Binds `sql` to a logical plan (tests / tooling).
  Result<plan::BoundQuery> BindSql(const std::string& sql,
                                   int* next_rel_id = nullptr);

  // --- Serving (sessions, admission control) ---

  /// Installs the serving policy (admission limits, shared budgets, session
  /// query defaults). Call before opening sessions; reconfiguring while
  /// queries are in flight is refused. OpenSession() installs the default
  /// policy automatically if none was configured.
  Status ConfigureServing(const ServingOptions& options);

  /// Opens a client session (lightweight handle; one per client thread).
  Session OpenSession();

  /// Serving machinery for introspection (admission counters, shared pool),
  /// or nullptr before the first ConfigureServing/OpenSession.
  ServingState* serving() { return serving_.get(); }
  const ServingState* serving() const { return serving_.get(); }

  /// The current immutable catalog snapshot (what new queries plan
  /// against). Snapshots are replaced, never mutated, on DDL/ANALYZE.
  std::shared_ptr<const Catalog> CatalogSnapshot() const;

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  Storage& storage() { return storage_; }

  /// The database's plan cache (shared by Query / PlanQuery / Explain).
  PlanCache& plan_cache() { return plan_cache_; }
  const PlanCache& plan_cache() const { return plan_cache_; }

  /// The cardinality-feedback store: observed plan-fragment cardinalities
  /// harvested from executed queries (QueryOptions::use_feedback +
  /// analyze), consulted by the selectivity estimator on later queries.
  stats::CardinalityFeedbackStore& feedback_store() { return feedback_store_; }
  const stats::CardinalityFeedbackStore& feedback_store() const {
    return feedback_store_;
  }

  /// Engine-wide observability metrics: query counts, compile / execute
  /// latency histograms, plan-cache and thread-pool gauges. See
  /// docs/OBSERVABILITY.md for the catalog.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  /// All metrics as a JSON object (SHOW METRICS returns the same samples
  /// as rows).
  std::string MetricsJson() const { return metrics_.ToJson(); }

 private:
  friend class Session;

  /// Query() body; the public wrapper records the per-query metrics
  /// (success / failure counters, governor trips).
  Result<QueryResult> QueryInternal(const std::string& sql,
                                    const QueryOptions& options);

  /// The snapshot a starting query plans and executes against. Carries the
  /// "catalog.snapshot" fault point (simulated acquisition failure).
  Result<std::shared_ptr<const Catalog>> AcquireQuerySnapshot() const;

  /// Post-execution cardinality-feedback pass (use_feedback + analyze):
  /// harvests observed fragment cardinalities from the executed plan into
  /// the store, auto-ANALYZEs drifted tables, and evicts a cached plan
  /// whose observed cost diverged from its estimate. Advisory throughout —
  /// never fails the query.
  void HarvestFeedbackAfterQuery(const exec::PhysPtr& plan,
                                 const exec::OperatorStatsMap& op_stats,
                                 const Catalog& snapshot,
                                 const QueryOptions& options,
                                 QueryResult* result);

  /// Re-clones the live catalog and publishes it as the current snapshot.
  /// Caller must hold ddl_mu_.
  void PublishSnapshotLocked();

  /// Analyze body shared by Analyze / AnalyzeAll; caller holds ddl_mu_ and
  /// publishes the snapshot after all tables are done.
  Status AnalyzeLocked(const std::string& table,
                       const stats::StatsOptions& options);

  /// PlanQuery with an optional shared governor (one instance spans
  /// planning and execution of a query). `catalog` is the query's snapshot.
  Result<exec::PhysPtr> PlanQueryWithGovernor(
      const std::string& sql, const Catalog& catalog,
      const QueryOptions& options, opt::OptimizeInfo* info,
      std::vector<std::string>* names, const ResourceGovernor* governor);

  /// Plans one parsed SELECT through the plan cache: fingerprint, lookup,
  /// epoch validation, parameter rebinding on hits, compile-and-insert on
  /// misses. Annotates `stmt`'s literals with parameter slots in place.
  Result<exec::PhysPtr> PlanSelectWithGovernor(
      ast::SelectStatement* stmt, const Catalog& catalog,
      const QueryOptions& options, opt::OptimizeInfo* info,
      std::vector<std::string>* names, const ResourceGovernor* governor);

  /// Bind + (naive-translate | optimize) — the cache-free compile path.
  /// `bound_root` (optional) receives the bound logical plan.
  Result<exec::PhysPtr> CompileSelect(const ast::SelectStatement& stmt,
                                      const Catalog& catalog,
                                      const QueryOptions& options,
                                      opt::OptimizeInfo* info,
                                      std::vector<std::string>* names,
                                      const ResourceGovernor* governor,
                                      plan::LogicalPtr* bound_root = nullptr);

  /// True if `entry` was compiled under `catalog`'s schema epoch and the
  /// statistics version of every table it reads.
  static bool CacheEntryCurrent(const CachedPlan& entry,
                                const Catalog& catalog);

  /// Attempts to compile a parametric piecewise plan over the query's
  /// range parameter and attach it to `entry` (marks the attempt either
  /// way). Restores `stmt` before returning.
  void MaybeAttachParametric(ast::SelectStatement* stmt,
                             const Catalog& catalog,
                             const QueryOptions& options,
                             const plan::QueryFingerprint& fp,
                             const plan::LogicalPtr& bound_root,
                             CachedPlan* entry);

  /// Live catalog: the single mutable copy, touched only under ddl_mu_.
  /// Its TableDef/IndexDef addresses are stable (unique_ptr-backed), so
  /// Storage and long-lived index structures may point into it.
  Catalog catalog_;
  /// Serializes DDL / ANALYZE / programmatic loading against each other.
  /// Never held while planning or executing queries.
  std::mutex ddl_mu_;
  /// Current published snapshot; guarded by snapshot_mu_ (pointer swap
  /// only — the pointee is immutable).
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const Catalog> catalog_snapshot_;
  Storage storage_;
  PlanCache plan_cache_;
  /// Observed fragment cardinalities shared by every query on this database
  /// (thread-safe; see stats/feedback.h).
  stats::CardinalityFeedbackStore feedback_store_;
  /// Worker threads for ExecMode::kParallel, created lazily on the first
  /// parallel query and reused (grow-only) across queries. `pool_mu_`
  /// guards the lazy creation/growth so concurrent Query() calls are safe.
  std::unique_ptr<ThreadPool> pool_;
  std::mutex pool_mu_;
  /// Serving machinery (admission controller, shared pool, session ids);
  /// created by ConfigureServing / first OpenSession.
  std::unique_ptr<ServingState> serving_;
  MetricsRegistry metrics_;
  // Hot-path metric handles, resolved once in the constructor (GetCounter
  // takes the registry mutex; these pointers are stable).
  MetricsRegistry::Counter* queries_ok_ = nullptr;
  MetricsRegistry::Counter* queries_failed_ = nullptr;
  MetricsRegistry::Counter* queries_shed_ = nullptr;
  MetricsRegistry::Counter* governor_trips_ = nullptr;
  MetricsRegistry::Counter* optimizer_degraded_ = nullptr;
  MetricsRegistry::Counter* feedback_drift_analyzes_ = nullptr;
  MetricsRegistry::Counter* feedback_plan_evictions_ = nullptr;
  MetricsRegistry::Histogram* compile_ns_ = nullptr;
  MetricsRegistry::Histogram* execute_ns_ = nullptr;
  MetricsRegistry::Histogram* materialize_ns_ = nullptr;
  MetricsRegistry::Counter* expr_compiled_ = nullptr;
  MetricsRegistry::Counter* expr_fallback_ = nullptr;
  MetricsRegistry::Histogram* expr_compile_ns_ = nullptr;
  MetricsRegistry::Counter* spill_runs_ = nullptr;
  MetricsRegistry::Counter* spill_bytes_ = nullptr;
  MetricsRegistry::Histogram* spill_run_bytes_ = nullptr;
};

/// Direct 1:1 translation of a logical plan to executors (no optimization);
/// exposed for tests and benchmarks.
Result<exec::PhysPtr> NaivePhysicalPlan(const plan::LogicalPtr& op,
                                        const Catalog& catalog);

}  // namespace qopt

#endif  // QOPT_ENGINE_DATABASE_H_
