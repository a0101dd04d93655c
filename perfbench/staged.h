// Traced execution of one read statement through the engine's public layer
// functions, so that each layer's time can be seen from outside the engine.
//
// The staged path repeats what Session::Query -> Database::Query does, call
// by call: shared admission, parser::Parse, plan::FingerprintQuery, the
// plan-cache protocol (lookup, epoch check, exact and parametric reuse,
// insert), plan::Bind, opt::Optimizer::Optimize and exec::ExecuteAll. Each
// call is a span under the statement's root span. Two probes run after the
// root span has ended, under the same statement id, so they do not count in
// the statement's time:
//  - a second RuleEngine::Rewrite of the bound plan. Optimize rewrites
//    internally, so enumeration time is Optimize minus this probe.
//  - exec::BuildExecutor plus a drain of the root's NextBatch that builds no
//    result rows. ExecuteAll minus build and drain is result
//    materialization.
#ifndef QOPT_PERFBENCH_STAGED_H_
#define QOPT_PERFBENCH_STAGED_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "engine/thread_pool.h"

namespace qopt::perfbench {

/// One traced interval. Spans of one statement share `stmt`; `parent` is
/// the id of the enclosing span, 0 for a statement root or a probe.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t stmt = 0;
  int64_t start_ns = 0;  ///< Since the tracer's epoch.
  int64_t end_ns = 0;
};

/// In-memory span buffer of one client thread; written out after the run.
class Tracer {
 public:
  Tracer(Clock::time_point epoch, uint64_t client)
      : epoch_(epoch), next_id_((client << 40) + 1) {}

  /// Opens a span; returns its index in spans().
  size_t Start(const char* name, uint64_t parent, uint64_t stmt) {
    spans_.push_back({name, next_id_++, parent, stmt, Now(), 0});
    return spans_.size() - 1;
  }
  /// Closes span `index`; returns its duration in milliseconds.
  double End(size_t index) {
    Span& s = spans_[index];
    s.end_ns = Now();
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  uint64_t id(size_t index) const { return spans_[index].id; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_;
  uint64_t next_id_;
  std::vector<Span> spans_;
};

/// Layer figures of one staged statement. A layer that did not run reads 0.
struct StagedResult {
  Status status;
  std::vector<Row> rows;
  double statement_ms = 0;   ///< Root span.
  double attributed_ms = 0;  ///< Sum of the root's direct child spans.
  double admit_ms = 0;
  double parse_us = 0;
  double fingerprint_us = 0;
  double bind_us = 0;
  double rewrite_us = 0;  ///< Rewrite probe.
  double optimize_us = 0;
  double execute_all_ms = 0;
  bool compiled = false;  ///< Bound and optimized here (cache miss or bypass).
  bool degraded = false;
  uint64_t rewrite_applications = 0;
  uint64_t plans_costed = 0;
  uint64_t governor_trips = 0;
  exec::ExecStats exec_stats;  ///< Of ExecuteAll.
  bool probed = false;         ///< The drain probe ran.
  double build_us = 0;
  double drain_ms = 0;
  double critical_cpu_ms = 0;  ///< Parallel critical-path CPU of the drain.
};

/// Runs read statements on the staged path. Thread-safe: one runner serves
/// every client of a workload.
class StagedRunner {
 public:
  explicit StagedRunner(Database* db);
  StagedRunner(const StagedRunner&) = delete;
  StagedRunner& operator=(const StagedRunner&) = delete;

  /// Runs `q` as statement `stmt`, recording spans into `tracer`; with
  /// `drain_probe`, also runs the build + drain probe.
  StagedResult Run(const PoolQuery& q, uint64_t stmt, bool drain_probe,
                   Tracer* tracer);

 private:
  /// What the probes need from the statement.
  struct Compiled {
    QueryOptions options;
    std::shared_ptr<const Catalog> snapshot;
    plan::LogicalPtr bound;  ///< Null on a plan-cache hit.
    int bound_rel_id = 0;
    exec::PhysPtr plan;
  };

  Status Body(const std::string& sql, uint64_t stmt, uint64_t root,
              Tracer* tracer, StagedResult* r, Compiled* c);
  void Probes(const Compiled& c, bool drain_probe, uint64_t stmt,
              Tracer* tracer, StagedResult* r);
  /// Database::QueryInternal's execution-context set-up.
  void Configure(const QueryOptions& o, const Catalog* catalog,
                 ResourceGovernor* governor, bool engine_metrics,
                 exec::ExecContext* ctx);

  Database* db_;
  ServingState* serving_;
  MetricsRegistry::Counter* expr_compiled_;
  MetricsRegistry::Counter* expr_fallback_;
  MetricsRegistry::Histogram* expr_compile_ns_;
  MetricsRegistry::Counter* spill_runs_;
  MetricsRegistry::Counter* spill_bytes_;
  MetricsRegistry::Histogram* spill_run_bytes_;
  std::mutex pool_mu_;
  std::unique_ptr<ThreadPool> pool_;  ///< Guarded by pool_mu_ on creation.
};

}  // namespace qopt::perfbench

#endif  // QOPT_PERFBENCH_STAGED_H_
