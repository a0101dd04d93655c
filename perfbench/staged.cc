#include "staged.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "engine/parametric.h"
#include "engine/plan_cache.h"
#include "optimizer/rewrite/rule_engine.h"
#include "parser/parser.h"
#include "plan/binder.h"
#include "plan/fingerprint.h"

namespace qopt::perfbench {

namespace {

/// FNV-1a digest of the plan-affecting options, field for field the
/// engine's plan-cache key digest (engine/database.cc), so the staged path
/// reads and fills the cache entries the engine's warm-up made. Should the
/// two drift apart, the staged path keeps working against entries of its
/// own, and the traced hit ratio shows the extra misses.
class OptionsDigest {
 public:
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= static_cast<uint8_t>(v >> (i * 8));
      h_ *= 1099511628211ULL;
    }
  }
  void B(bool b) { U64(b ? 1 : 0); }
  void D(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    U64(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

uint64_t PlanDigest(const QueryOptions& o) {
  OptionsDigest d;
  d.U64(static_cast<uint64_t>(o.optimizer.enumerator));
  const opt::SelingerOptions& s = o.optimizer.selinger;
  d.B(s.bushy);
  d.B(s.defer_cartesian);
  d.B(s.use_interesting_orders);
  d.B(s.enable_index_scan);
  d.B(s.enable_seq_scan);
  d.B(s.enable_nl_join);
  d.B(s.enable_merge_join);
  d.B(s.enable_hash_join);
  d.B(s.enable_index_nl_join);
  d.U64(s.max_dp_entries);
  const opt::cascades::CascadesOptions& c = o.optimizer.cascades;
  d.B(c.allow_cartesian);
  d.B(c.enable_nl_join);
  d.B(c.enable_merge_join);
  d.B(c.enable_hash_join);
  d.B(c.enable_index_nl_join);
  d.U64(c.max_tasks);
  d.U64(c.max_memo_exprs);
  const cost::CostParams& p = o.optimizer.cost_params;
  d.D(p.seq_page_io);
  d.D(p.random_page_io);
  d.D(p.cpu_tuple);
  d.D(p.cpu_compare);
  d.D(p.cpu_hash);
  d.D(p.buffer_pool_pages);
  d.D(p.sort_merge_fanin);
  d.B(o.optimizer.enable_rewrites);
  d.B(o.optimizer.use_alternatives);
  d.B(o.use_feedback);
  d.U64(static_cast<uint64_t>(o.execution_mode));
  d.B(o.compile_expressions);
  d.U64(o.dop);
  return d.value();
}

/// Database::CacheEntryCurrent.
bool EntryCurrent(const CachedPlan& entry, const Catalog& catalog) {
  if (entry.catalog_version != catalog.version()) return false;
  for (const auto& [table_id, stats_version] : entry.table_stats) {
    const TableDef* table = catalog.GetTable(table_id);
    if (table == nullptr || table->stats_version != stats_version) {
      return false;
    }
  }
  return true;
}

bool ParamsEqualExcept(const std::vector<Value>& a, const std::vector<Value>& b,
                       int except) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (static_cast<int>(i) != except && a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace

StagedRunner::StagedRunner(Database* db) : db_(db), serving_(db->serving()) {
  MetricsRegistry& m = db->metrics();
  expr_compiled_ = m.GetCounter("expr.compiled");
  expr_fallback_ = m.GetCounter("expr.fallback");
  expr_compile_ns_ = m.GetHistogram("expr.compile_ns");
  spill_runs_ = m.GetCounter("spill.runs");
  spill_bytes_ = m.GetCounter("spill.bytes_written");
  spill_run_bytes_ = m.GetHistogram("spill.run_bytes");
}

StagedResult StagedRunner::Run(const PoolQuery& q, uint64_t stmt,
                               bool drain_probe, Tracer* tracer) {
  StagedResult r;
  const size_t root = tracer->Start("statement", 0, stmt);
  const uint64_t root_id = tracer->id(root);
  // Session::Query: serving defaults for an unlimited governor, then a
  // shared admission slot held until the statement (and its probes) ends.
  QueryOptions options = q.options;
  if (options.governor.Unlimited()) {
    options.governor = serving_->options.query_defaults;
  }
  options.shared_pool = serving_->pool.enabled() ? &serving_->pool : nullptr;
  const size_t admit = tracer->Start("session.admit", root_id, stmt);
  Status admitted = serving_->admission.AdmitShared(
      Clock::now() +
      std::chrono::milliseconds(serving_->options.max_queue_wait_ms));
  r.admit_ms = tracer->End(admit);
  if (!admitted.ok()) {
    r.status = admitted;
    r.statement_ms = tracer->End(root);
    return r;
  }
  Compiled c;
  c.options = options;
  r.status = Body(q.sql, stmt, root_id, tracer, &r, &c);
  r.statement_ms = tracer->End(root);
  const std::vector<Span>& spans = tracer->spans();
  for (size_t i = root + 1; i < spans.size(); ++i) {
    if (spans[i].parent == root_id) {
      r.attributed_ms +=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    }
  }
  if (r.status.ok()) Probes(c, drain_probe, stmt, tracer, &r);
  serving_->admission.ReleaseShared();
  return r;
}

Status StagedRunner::Body(const std::string& sql, uint64_t stmt,
                          uint64_t root, Tracer* t, StagedResult* r,
                          Compiled* c) {
  auto span = [&](const char* name) { return t->Start(name, root, stmt); };
  size_t s = span("parser.Parse");
  Result<ast::Statement> parsed = parser::Parse(sql);
  r->parse_us = 1e3 * t->End(s);
  if (!parsed.ok()) return parsed.status();
  if (parsed->kind != ast::Statement::Kind::kSelect) {
    return Status::InvalidArgument("the staged path runs SELECT only");
  }
  ast::SelectStatement* select = parsed->select.get();
  c->snapshot = db_->CatalogSnapshot();
  const Catalog& catalog = *c->snapshot;

  s = span("plan.FingerprintQuery");
  plan::QueryFingerprint fp;
  const bool fingerprinted =
      plan::FingerprintQuery(select, catalog, &fp).ok();
  r->fingerprint_us = 1e3 * t->End(s);

  const QueryOptions session_options = c->options;
  stats::FeedbackContext fctx;
  if (c->options.use_feedback && !c->options.naive_execution) {
    fctx.store = &db_->feedback_store();
    c->options.optimizer.feedback = &fctx;
  }
  const QueryOptions& o = c->options;
  ResourceGovernor governor(o.governor, o.shared_pool);
  const ResourceGovernor* planning_governor =
      governor.enabled() ? &governor : nullptr;

  PlanCache& cache = db_->plan_cache();
  const bool use_cache = fingerprinted && o.use_plan_cache &&
                         !o.naive_execution && !o.trace_optimizer;
  const PlanCacheKey key{fp.hash, PlanDigest(o)};
  std::shared_ptr<const CachedPlan> prior;
  bool invalidated = false;
  if (use_cache) {
    s = span("engine.plan_cache.Lookup");
    prior = cache.Lookup(key);
    if (prior != nullptr && !EntryCurrent(*prior, catalog)) {
      cache.Erase(key);
      cache.RecordInvalidation();
      invalidated = true;
      prior = nullptr;
    } else if (prior != nullptr && prior->params == fp.params) {
      cache.RecordHit();
      c->plan = prior->plan;
    } else if (prior != nullptr && prior->parametric != nullptr &&
               o.plan_cache_parametric &&
               ParamsEqualExcept(prior->params, fp.params,
                                 prior->parametric_param)) {
      const int k = prior->parametric_param;
      const PlanInterval& piece =
          prior->parametric->Choose(fp.params[k].AsNumeric());
      c->plan = RebindPlanParam(piece.plan, k, fp.params[k]);
      cache.RecordHit();
    }
    t->End(s);
  }
  if (c->plan == nullptr && prior != nullptr &&
      !prior->parametric_attempted && o.plan_cache_parametric &&
      fp.range_param >= 0) {
    // Second miss on a shape whose range literal varies: the engine now
    // compiles a piecewise plan (§7.4) and caches it. That fill is internal
    // to the engine, so it runs through Database::PlanQuery as one span.
    s = span("engine.plan_cache.ParametricFill");
    Result<exec::PhysPtr> filled = db_->PlanQuery(sql, session_options);
    t->End(s);
    if (!filled.ok()) return filled.status();
    c->plan = *filled;
  }
  if (c->plan == nullptr) {
    if (use_cache && !invalidated) cache.RecordMiss();
    s = span("plan.Bind");
    int next_rel_id = 0;
    Result<plan::BoundQuery> bound = plan::Bind(*select, catalog, &next_rel_id);
    r->bind_us = 1e3 * t->End(s);
    if (!bound.ok()) return bound.status();
    c->bound = bound->root;
    c->bound_rel_id = next_rel_id;

    s = span("optimizer.Optimize");
    opt::OptimizeInfo info;
    opt::Optimizer optimizer(catalog, o.optimizer);
    Result<exec::PhysPtr> planned =
        optimizer.Optimize(bound->root, &next_rel_id, &info, planning_governor);
    r->optimize_us = 1e3 * t->End(s);
    if (!planned.ok()) return planned.status();
    c->plan = *planned;
    r->compiled = true;
    r->degraded = info.degraded;
    r->plans_costed = info.selinger_counters.join_plans_costed +
                      info.cascades_counters.impl_plans_costed;
    for (const auto& [rule, n] : info.rewrite_applications) {
      r->rewrite_applications += static_cast<uint64_t>(n);
    }
    if (use_cache && !info.degraded) {
      s = span("engine.plan_cache.Insert");
      auto entry = std::make_shared<CachedPlan>();
      entry->plan = c->plan;
      entry->output_names = bound->output_names;
      entry->params = fp.params;
      entry->catalog_version = catalog.version();
      std::set<int> tables;
      CollectPlanTables(*c->plan, &tables);
      for (int table_id : tables) {
        const TableDef* table = catalog.GetTable(table_id);
        entry->table_stats.emplace_back(
            table_id, table != nullptr ? table->stats_version : 0);
      }
      entry->approx_bytes = EstimatePlanBytes(*c->plan) + 256;
      if (prior != nullptr) {
        entry->parametric_attempted = prior->parametric_attempted;
      }
      entry->info = info;
      cache.Insert(key, std::move(entry));
      t->End(s);
    }
  }

  s = span("exec.ExecuteAll");
  exec::ExecContext ctx;
  Configure(o, &catalog, &governor, /*engine_metrics=*/true, &ctx);
  Result<std::vector<Row>> rows = exec::ExecuteAll(c->plan, &ctx);
  r->execute_all_ms = t->End(s);
  r->governor_trips = governor.trip_count();
  if (!rows.ok()) return rows.status();
  r->rows = std::move(*rows);
  r->exec_stats = ctx.stats;
  return Status::OK();
}

void StagedRunner::Probes(const Compiled& c, bool drain_probe, uint64_t stmt,
                          Tracer* t, StagedResult* r) {
  if (c.bound != nullptr) {
    const size_t s = t->Start("probe.optimizer.Rewrite", 0, stmt);
    int rel_id = c.bound_rel_id;
    opt::RuleEngine::Default().Rewrite(c.bound->Clone(), *c.snapshot, &rel_id,
                                       /*budget=*/256);
    r->rewrite_us = 1e3 * t->End(s);
  }
  if (!drain_probe) return;
  // No shared pool: the probe's charges must not count against the server.
  ResourceGovernor governor(c.options.governor);
  exec::ExecContext ctx;
  Configure(c.options, c.snapshot.get(), &governor, /*engine_metrics=*/false,
            &ctx);
  size_t s = t->Start("probe.exec.BuildExecutor", 0, stmt);
  std::unique_ptr<exec::Executor> root = exec::BuildExecutor(c.plan, &ctx);
  r->build_us = 1e3 * t->End(s);
  s = t->Start("probe.exec.NextBatch", 0, stmt);
  root->Init();
  exec::RowBatch batch;
  while (!ctx.Failed() && root->NextBatch(&batch)) {
  }
  r->drain_ms = t->End(s);
  r->probed = true;
  r->critical_cpu_ms = ctx.stats.parallel_critical_cpu_ms;
}

void StagedRunner::Configure(const QueryOptions& o, const Catalog* catalog,
                             ResourceGovernor* governor, bool engine_metrics,
                             exec::ExecContext* ctx) {
  ctx->storage = &db_->storage();
  ctx->catalog = catalog;
  ctx->mode = o.execution_mode;
  ctx->batch_capacity = o.batch_capacity;
  ctx->compile_expressions = o.compile_expressions;
  if (governor->enabled()) ctx->governor = governor;
  if (engine_metrics) {
    ctx->expr_compiled_metric = expr_compiled_;
    ctx->expr_fallback_metric = expr_fallback_;
    ctx->expr_compile_ns = expr_compile_ns_;
  }
  if (o.spill.enabled &&
      (o.spill.operator_budget_bytes > 0 || o.governor.max_memory_bytes > 0)) {
    ctx->spill.armed = true;
    ctx->spill.budget_bytes =
        o.spill.operator_budget_bytes > 0
            ? o.spill.operator_budget_bytes
            : std::max<uint64_t>(o.governor.max_memory_bytes / 4, 64 * 1024);
    ctx->spill.partitions = o.spill.partitions;
    ctx->spill.merge_fanin = o.spill.merge_fanin;
    ctx->spill.dir = o.spill.dir;
    if (engine_metrics) {
      ctx->spill_runs_metric = spill_runs_;
      ctx->spill_bytes_metric = spill_bytes_;
      ctx->spill_run_bytes = spill_run_bytes_;
    }
  }
  if (o.execution_mode == exec::ExecMode::kParallel) {
    ctx->dop = std::clamp<size_t>(o.dop, 1, ThreadPool::kMaxThreads);
    ctx->morsel_rows = o.morsel_rows;
    if (ctx->dop > 1) {
      std::lock_guard<std::mutex> lock(pool_mu_);
      if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(1);
      pool_->EnsureThreads(ctx->dop - 1);
      ctx->pool = pool_.get();
    }
  }
}

}  // namespace qopt::perfbench
