// Morsel-driven parallel execution (DESIGN.md §3.8).
//
// The builder wraps each maximal parallel-eligible subtree — table-scan
// leaves, filters, projections, hash joins whose probe side is eligible,
// optionally capped by one hash aggregate — in a ParallelGatherExec. The
// gather runs the region in phases over ctx->dop workers:
//
//   1. Build phases, deepest join first. An eligible build side is drained
//      morsel-parallel into per-worker columnar partitions that are
//      concatenated in worker order and finalized into a shared
//      JoinBuildState (partitioned build with merge); an ineligible build
//      side is drained serially on the calling thread with the ordinary
//      batch tree.
//   2. The final pipeline: every worker runs its own executor tree over
//      the region — morsel scans pulling page-aligned ranges from shared
//      cursors, probe-only hash joins over the shared build states. Each
//      worker keeps its output batches whole (compacting sparse ones); at
//      the gather barrier they are concatenated in worker order and then
//      handed to the gather's parent one by one, by move. Under an
//      aggregate root the workers fill per-worker partial aggregation
//      states instead, merged at the barrier and finalized into rows.
//
// Each worker owns an ExecContext (stats, buffer-pool simulator, sticky
// status) and shares the query's governor; worker stats are summed into
// the main context at the barrier, so every ExecStats row counter is
// exactly equal to the serial modes' — each base row is scanned once, each
// probe row probed once. The only serial/parallel divergence is
// modeled_pages_read: per-worker LRU pools see different access orders.
// On any worker failure (governor trip, injected fault) a shared abort
// flag drains the morsel cursors so all workers unwind promptly; the first
// failing worker's status (in worker order) becomes the query error.
//
// Spill is decided at run time here too. With spill armed, each build
// phase adds its modeled bytes to one shared atomic count; once that count
// crosses the spill budget (exactly when the serial batch join's build
// would), the attempt is abandoned through the same abort flag, its
// partial state and worker stats are dropped, and the region reruns on the
// serial batch tree, whose hash join spills.
#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/thread_pool.h"
#include "exec/agg_state.h"
#include "exec/executors_internal.h"
#include "exec/hash_join_state.h"
#include "exec/morsel.h"

namespace qopt::exec::internal {

bool ParallelEligible(const PhysicalPlan& plan) {
  switch (plan.kind) {
    case PhysOpKind::kTableScan:
      return true;
    case PhysOpKind::kFilter:
    case PhysOpKind::kProject:
    case PhysOpKind::kHashJoin:
      // A hash join's probe side must be eligible (it carries the morsel
      // scan); its build side is handled either way by a build phase.
      return ParallelEligible(*plan.children[0]);
    default:
      return false;
  }
}

namespace {

class ParallelGatherExec : public Executor {
 public:
  ParallelGatherExec(const PhysPtr& plan, ExecContext* ctx)
      : Executor(plan.get(), ctx),
        root_(plan),
        agg_root_(plan->kind == PhysOpKind::kHashAggregate),
        pipeline_root_(agg_root_ ? plan->children[0] : plan) {}

  void InitImpl() override {
    batches_.clear();
    next_batch_ = 0;
    groups_.clear();
    pos_ = 0;
    if (ctx_->Failed()) return;
    dop_ = std::clamp<size_t>(ctx_->dop, 1, ThreadPool::kMaxThreads);
    abort_.store(false, std::memory_order_relaxed);
    spill_fallback_.store(false);
    // What the main context held before the attempt, restored should a
    // build phase cross the spill budget (the serial build drains write
    // to it directly).
    const ExecStats stats_before = ctx_->stats;
    OperatorStatsMap op_stats_before;
    if (ctx_->analyze && ctx_->spill.armed) op_stats_before = ctx_->op_stats;
    states_.clear();
    sources_.clear();
    wctx_.clear();
    for (size_t w = 0; w < dop_; ++w) {
      auto wc = std::make_unique<ExecContext>();
      wc->storage = ctx_->storage;
      wc->catalog = ctx_->catalog;
      wc->params = ctx_->params;
      wc->mode = ExecMode::kBatch;
      wc->batch_capacity = ctx_->batch_capacity;
      wc->morsel_rows = ctx_->morsel_rows;
      wc->analyze = ctx_->analyze;
      wc->governor = ctx_->governor;  // thread-safe; shared trip semantics
      wc->compile_expressions = ctx_->compile_expressions;
      wc->expr_compiled_metric = ctx_->expr_compiled_metric;
      wc->expr_fallback_metric = ctx_->expr_fallback_metric;
      wc->expr_compile_ns = ctx_->expr_compile_ns;
      wc->spill = ctx_->spill;
      wc->spill_runs_metric = ctx_->spill_runs_metric;
      wc->spill_bytes_metric = ctx_->spill_bytes_metric;
      wc->spill_run_bytes = ctx_->spill_run_bytes;
      wctx_.push_back(std::move(wc));
    }
    RunBuildPhases(pipeline_root_);
    if (!Aborted()) RunFinalPhase();
    if (spill_fallback_.load() && !ctx_->Failed() &&
        std::all_of(wctx_.begin(), wctx_.end(),
                    [](const auto& wc) { return wc->status.ok(); })) {
      RunSerialFallback(stats_before, op_stats_before);
      return;
    }
    for (const std::unique_ptr<ExecContext>& wc : wctx_) {
      ctx_->stats.modeled_pages_read += wc->stats.modeled_pages_read;
      ctx_->stats.page_touches += wc->stats.page_touches;
      ctx_->stats.rows_scanned += wc->stats.rows_scanned;
      ctx_->stats.index_lookups += wc->stats.index_lookups;
      ctx_->stats.rows_joined += wc->stats.rows_joined;
      ctx_->stats.subquery_executions += wc->stats.subquery_executions;
    }
    // Per-worker LRU pools see different access orders, so the summed
    // modeled_pages_read is not comparable to the serial modes' — surface
    // that explicitly rather than pretending the number reconciles.
    ctx_->stats.parallel_pages_divergent = true;
    if (ctx_->analyze) {
      // Worker trees share plan-node pointers with the main tree; merge
      // their per-operator stats into the worker_* side channel so the
      // gather's own (empty) counts are never conflated with them.
      for (const std::unique_ptr<ExecContext>& wc : wctx_) {
        for (const auto& [node, ws] : wc->op_stats) {
          OperatorStats& os = ctx_->op_stats[node];
          os.worker_rows_out += ws.rows_out;
          os.worker_wall_ns += ws.wall_ns;
          os.worker_peak_mem_bytes =
              std::max(os.worker_peak_mem_bytes, ws.peak_mem_bytes);
          // Every worker resolves the same (cached) programs, so a max —
          // not a sum — reflects the per-node expression mode.
          os.expr_compiled = std::max(os.expr_compiled, ws.expr_compiled);
          os.expr_fallback = std::max(os.expr_fallback, ws.expr_fallback);
          if (ws.inits > 0) ++os.workers;
        }
      }
    }
    for (const std::unique_ptr<ExecContext>& wc : wctx_) {
      if (!wc->status.ok()) {
        ctx_->Fail(wc->status);
        break;
      }
    }
    wctx_.clear();
  }

  /// Hands out the buffered batches by move, then (under an aggregate
  /// root that did not fall back) the finalized groups.
  bool NextBatchImpl(RowBatch* out) override {
    if (next_batch_ >= batches_.size()) return EmitRows(&groups_, &pos_, out);
    if (ctx_->Failed()) return false;
    *out = std::move(batches_[next_batch_++]);
    QOPT_DCHECK(out->num_rows() <= batch_capacity_);
    return true;
  }

 private:
  bool Aborted() const {
    return abort_.load(std::memory_order_relaxed) || ctx_->Failed();
  }

  static int KeyPos(const PhysPtr& node, ColumnId key) {
    int pos = node->FindOutput(key);
    QOPT_DCHECK(pos >= 0);
    return pos;
  }

  static TypeId KeyType(const PhysPtr& node, ColumnId key) {
    return node->output_cols[static_cast<size_t>(KeyPos(node, key))].type;
  }

  /// Runs `body(w)` for every worker w with a barrier at the end, timing
  /// each worker's thread-CPU contribution (sum and per-phase max feed the
  /// parallel ExecStats fields).
  void RunPhase(const std::function<void(size_t)>& body) {
    if (Aborted()) return;
    std::vector<double> cpu(dop_, 0.0);
    auto timed = [&](size_t w) {
      double t0 = ThreadCpuMs();
      body(w);
      cpu[w] = ThreadCpuMs() - t0;
    };
    if (ctx_->pool != nullptr && dop_ > 1) {
      ctx_->pool->ParallelFor(dop_, timed);
    } else {
      for (size_t w = 0; w < dop_; ++w) timed(w);
    }
    double critical = 0;
    for (double c : cpu) {
      ctx_->stats.parallel_worker_cpu_ms += c;
      critical = std::max(critical, c);
    }
    ctx_->stats.parallel_critical_cpu_ms += critical;
  }

  /// Creates the shared morsel cursor of every table scan on `node`'s
  /// pipeline spine (filters, projections, join probe sides). Build sides
  /// get theirs when their own phase runs.
  void RegisterSources(const PhysPtr& node) {
    switch (node->kind) {
      case PhysOpKind::kTableScan: {
        const Table* table = ctx_->storage->GetTable(node->table_id);
        QOPT_DCHECK(table != nullptr);
        std::unique_ptr<MorselSource> src;
        if (node->total_partitions > 0 &&
            node->total_partitions == table->num_partitions()) {
          // Pruned partitioned scan: morsels cover only the surviving
          // partitions' row ranges (partition-major clustering makes each
          // partition a contiguous range).
          std::vector<std::pair<size_t, size_t>> ranges;
          ranges.reserve(node->partitions.size());
          for (int p : node->partitions) {
            ranges.push_back(table->PartitionRange(p));
          }
          src = std::make_unique<MorselSource>(ranges, table->num_rows(),
                                               table->num_pages(),
                                               ctx_->morsel_rows);
        } else {
          src = std::make_unique<MorselSource>(
              table->num_rows(), table->num_pages(), ctx_->morsel_rows);
        }
        src->set_abort_flag(&abort_);
        sources_[node.get()] = std::move(src);
        break;
      }
      case PhysOpKind::kFilter:
      case PhysOpKind::kProject:
      case PhysOpKind::kHashJoin:
        RegisterSources(node->children[0]);
        break;
      default:
        break;
    }
  }

  /// One worker's executor tree over a region pipeline: morsel scans over
  /// the shared cursors, probe-only joins over the shared build states.
  std::unique_ptr<Executor> BuildWorkerTree(const PhysPtr& node,
                                            ExecContext* wc) {
    switch (node->kind) {
      case PhysOpKind::kTableScan:
        return NewMorselScanExec(node.get(), wc,
                                 sources_.at(node.get()).get());
      case PhysOpKind::kFilter:
        return NewBatchFilterExec(node.get(), wc,
                                  BuildWorkerTree(node->children[0], wc));
      case PhysOpKind::kProject:
        return NewBatchProjectExec(node.get(), wc,
                                   BuildWorkerTree(node->children[0], wc));
      case PhysOpKind::kHashJoin:
        return NewBatchHashProbeExec(node.get(), wc,
                                     BuildWorkerTree(node->children[0], wc),
                                     states_.at(node.get()));
      default:
        QOPT_DCHECK(false);
        return nullptr;
    }
  }

  /// Materializes the build sides of every hash join in the region,
  /// deepest first, into shared JoinBuildStates.
  void RunBuildPhases(const PhysPtr& node) {
    if (Aborted()) return;
    switch (node->kind) {
      case PhysOpKind::kFilter:
      case PhysOpKind::kProject:
        RunBuildPhases(node->children[0]);
        break;
      case PhysOpKind::kHashJoin: {
        RunBuildPhases(node->children[0]);
        const PhysPtr& build = node->children[1];
        auto state = std::make_shared<JoinBuildState>();
        size_t rwidth = build->output_cols.size();
        state->build_cols.assign(rwidth, {});
        state->rk = static_cast<size_t>(KeyPos(build, node->right_key));
        size_t hint = ReserveHint(build->est_rows);
        for (std::vector<Value>& col : state->build_cols) col.reserve(hint);
        const bool parallel_build = ParallelEligible(*build);
        if (parallel_build) RunBuildPhases(build);  // nested build-side joins
        build_bytes_.store(0);
        if (parallel_build) {
          ParallelBuild(build, state.get());
        } else {
          SerialBuild(build, state.get());
        }
        if (!Aborted()) {
          state->Finalize(KeyType(node->children[0], node->left_key),
                          KeyType(build, node->right_key));
        }
        if (ctx_->analyze && !state->build_cols.empty()) {
          // The shared build happens outside any single worker's executor
          // tree; attribute its modeled footprint to the join node so
          // EXPLAIN ANALYZE shows the build memory in parallel mode too.
          uint64_t bytes =
              state->build_cols[0].size() * ModeledRowBytes(rwidth);
          OperatorStats& os = ctx_->op_stats[node.get()];
          os.peak_mem_bytes = std::max(os.peak_mem_bytes, bytes);
        }
        states_[node.get()] = std::move(state);
        break;
      }
      default:
        break;
    }
  }

  /// Appends `batch`'s live rows with non-NULL keys to columnar `cols`,
  /// charging the governor ModeledRowBytes per row (row bookkeeping only
  /// when spill-armed, as in the serial batch join).
  /// Shared by the serial and parallel build drains. False when the drain
  /// must stop: a governor trip, or the build's shared byte count crossing
  /// the spill budget, which flags the region for the serial fallback.
  bool AppendBuildRows(RowBatch* batch, size_t rk, size_t rwidth,
                       ExecContext* wc,
                       std::vector<std::vector<Value>>* cols) {
    const SpillConfig& sp = ctx_->spill;
    const uint64_t row_bytes = ModeledRowBytes(rwidth);
    uint64_t appended = 0;
    for (size_t k = 0; k < batch->ActiveSize(); ++k) {
      uint32_t r = batch->ActiveIndex(k);
      if (batch->At(rk, r).is_null()) continue;  // NULL keys never match
      if (!wc->GovernorCharge(1, sp.armed ? 0 : row_bytes)) return false;
      for (size_t c = 0; c < rwidth; ++c) {
        (*cols)[c].push_back(std::move(batch->column(c)[r]));
      }
      ++appended;
    }
    if (!sp.armed) return true;
    // The serial join spills once its build exceeds the budget with more
    // than one row buffered, i.e. once its bytes exceed max(budget, one
    // row): the same test on the total here makes the fallback fire
    // exactly when the serial tree would spill.
    const uint64_t bytes = appended * row_bytes;
    const uint64_t total = build_bytes_.fetch_add(bytes) + bytes;
    if (total <= std::max(sp.budget_bytes, row_bytes)) return true;
    spill_fallback_.store(true);
    abort_.store(true, std::memory_order_relaxed);
    return false;
  }

  /// Partitioned parallel build: workers drain morsels of the eligible
  /// build subtree into private columnar partitions, concatenated in
  /// worker order at the barrier (so the merged layout is a permutation of
  /// the serial build only across workers, never within one).
  void ParallelBuild(const PhysPtr& build, JoinBuildState* state) {
    if (Aborted()) return;
    size_t rwidth = build->output_cols.size();
    RegisterSources(build);
    std::vector<std::vector<std::vector<Value>>> parts(dop_);
    RunPhase([&](size_t w) {
      parts[w].assign(rwidth, {});
      ExecContext* wc = wctx_[w].get();
      std::unique_ptr<Executor> tree = BuildWorkerTree(build, wc);
      tree->Init();
      RowBatch b;
      while (!wc->Failed() && tree->NextBatch(&b) &&
             AppendBuildRows(&b, state->rk, rwidth, wc, &parts[w])) {
      }
      if (wc->Failed()) abort_.store(true, std::memory_order_relaxed);
    });
    for (size_t w = 0; w < dop_; ++w) {
      for (size_t c = 0; c < rwidth; ++c) {
        std::vector<Value>& dst = state->build_cols[c];
        dst.insert(dst.end(),
                   std::make_move_iterator(parts[w][c].begin()),
                   std::make_move_iterator(parts[w][c].end()));
      }
    }
  }

  /// Serial drain of an ineligible build side on the calling thread, with
  /// the ordinary batch tree (stats land directly on the main context).
  void SerialBuild(const PhysPtr& build, JoinBuildState* state) {
    std::unique_ptr<Executor> tree = BuildBatchTree(build, ctx_);
    tree->Init();
    RowBatch b;
    while (!ctx_->Failed() && tree->NextBatch(&b) &&
           AppendBuildRows(&b, state->rk, build->output_cols.size(), ctx_,
                           &state->build_cols)) {
    }
    if (ctx_->Failed()) abort_.store(true, std::memory_order_relaxed);
  }

  /// Reruns the region on the serial batch tree after a build phase
  /// crossed the spill budget; its hash join then spills at run time. The
  /// abandoned attempt's worker stats are dropped and the main context's
  /// stats restored to `stats_before`/`op_stats_before`, so row counters
  /// equal a serial run's. Its buffer-pool touches are not undone, so
  /// modeled pages stay flagged divergent, and its governor row charges
  /// are not refunded. Its output batches go to the same `batches_`
  /// buffer the parallel pipeline fills, also under an aggregate root.
  void RunSerialFallback(const ExecStats& stats_before,
                         const OperatorStatsMap& op_stats_before) {
    wctx_.clear();
    states_.clear();
    sources_.clear();
    ctx_->stats = stats_before;
    ctx_->stats.parallel_pages_divergent = true;
    OperatorStats root_before;
    if (ctx_->analyze) {
      for (auto& [node, os] : ctx_->op_stats) {
        auto it = op_stats_before.find(node);
        os = it == op_stats_before.end() ? OperatorStats{} : it->second;
      }
      root_before = ctx_->op_stats[plan_];
    }
    std::unique_ptr<Executor> tree = BuildBatchTree(root_, ctx_);
    tree->Init();
    RowBatch b;
    while (!ctx_->Failed() && tree->NextBatch(&b)) BufferBatch(&b, &batches_);
    if (ctx_->analyze) {
      // The serial root shares this gather's plan node, whose dispatcher
      // already counts the region's inits, output and time: keep only the
      // root's memory, spill and expression stats from the rerun.
      OperatorStats& os = ctx_->op_stats[plan_];
      os.inits = root_before.inits;
      os.rows_out = root_before.rows_out;
      os.batches_out = root_before.batches_out;
      os.next_calls = root_before.next_calls;
      os.wall_ns = root_before.wall_ns;
    }
  }

  void RunFinalPhase() {
    RegisterSources(pipeline_root_);
    if (agg_root_) {
      RunAggPhase();
      return;
    }
    std::vector<std::vector<RowBatch>> outs(dop_);
    RunPhase([&](size_t w) {
      ExecContext* wc = wctx_[w].get();
      std::unique_ptr<Executor> tree = BuildWorkerTree(pipeline_root_, wc);
      tree->Init();
      RowBatch b;
      while (!wc->Failed() && tree->NextBatch(&b)) BufferBatch(&b, &outs[w]);
      if (wc->Failed()) abort_.store(true, std::memory_order_relaxed);
    });
    for (std::vector<RowBatch>& o : outs) {
      std::move(o.begin(), o.end(), std::back_inserter(batches_));
    }
  }

  /// Per-worker partial aggregation over the pipeline: one GroupTable per
  /// worker, merged in worker order at the barrier (AggAcc::MergeFrom;
  /// DISTINCT partials merge by re-accumulation, so cross-worker duplicates
  /// collapse exactly). Workers sharing a group each charge their partial —
  /// the budget bounds real memory, which partials really occupy.
  void RunAggPhase() {
    const AggPrograms progs = ResolveAggPrograms(
        plan_, ctx_, [this](bool c) { RecordExprMode(c); });
    std::vector<GroupTable> partials;
    partials.reserve(dop_);
    for (size_t w = 0; w < dop_; ++w) partials.emplace_back(*plan_);
    RunPhase([&](size_t w) {
      ExecContext* wc = wctx_[w].get();
      std::unique_ptr<Executor> tree = BuildWorkerTree(pipeline_root_, wc);
      tree->Init();
      partials[w].Drain(tree.get(), progs, wc);
      if (wc->Failed()) abort_.store(true, std::memory_order_relaxed);
    });
    if (Aborted()) return;
    GroupTable& merged = partials[0];
    for (size_t w = 1; w < dop_; ++w) merged.MergeFrom(std::move(partials[w]));
    if (ctx_->analyze) {
      // The merged table lives on the gather, not inside a worker tree;
      // attribute its modeled footprint to the aggregate node.
      OperatorStats& os = ctx_->op_stats[plan_];
      os.peak_mem_bytes = std::max(os.peak_mem_bytes, merged.bytes());
    }
    groups_ = merged.Finalize();
  }

  PhysPtr root_;
  bool agg_root_ = false;
  PhysPtr pipeline_root_;
  size_t dop_ = 1;
  std::atomic<bool> abort_{false};
  /// Set when a build phase crossed the spill budget (see AppendBuildRows).
  std::atomic<bool> spill_fallback_{false};
  /// Modeled bytes of the current build phase, summed across workers.
  std::atomic<uint64_t> build_bytes_{0};
  std::vector<std::unique_ptr<ExecContext>> wctx_;
  std::unordered_map<const PhysicalPlan*, std::unique_ptr<MorselSource>>
      sources_;
  std::unordered_map<const PhysicalPlan*, std::shared_ptr<JoinBuildState>>
      states_;
  /// The region's output batches in worker order (the serial fallback's
  /// too), handed out by move.
  std::vector<RowBatch> batches_;
  size_t next_batch_ = 0;
  /// The parallel aggregate's finalized groups, emitted through EmitRows.
  std::vector<Row> groups_;
  size_t pos_ = 0;
};

}  // namespace

std::unique_ptr<Executor> NewParallelGatherExec(const PhysPtr& plan,
                                                ExecContext* ctx) {
  return std::make_unique<ParallelGatherExec>(plan, ctx);
}

}  // namespace qopt::exec::internal
