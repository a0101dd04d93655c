#include "engine/database.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>

#include "engine/parametric.h"
#include "engine/session.h"
#include "exec/feedback_harvest.h"
#include "parser/parser.h"
#include "plan/binder.h"
#include "plan/fingerprint.h"
#include "testing/fault_injection.h"

namespace qopt {

Database::Database() : storage_(&catalog_) {
  // Publish the empty-schema snapshot so queries racing the first DDL see a
  // consistent (empty) catalog rather than a null pointer.
  catalog_snapshot_ = std::shared_ptr<const Catalog>(catalog_.Clone());
  // Hot-path handles resolved once; gauges read the existing authoritative
  // counters (plan-cache stats, thread-pool atomics) at export time so the
  // hot paths carry no double bookkeeping.
  queries_ok_ = metrics_.GetCounter("queries.ok");
  queries_failed_ = metrics_.GetCounter("queries.failed");
  governor_trips_ = metrics_.GetCounter("governor.trips");
  optimizer_degraded_ = metrics_.GetCounter("optimizer.degraded");
  compile_ns_ = metrics_.GetHistogram("query.compile_ns");
  execute_ns_ = metrics_.GetHistogram("query.execute_ns");
  materialize_ns_ = metrics_.GetHistogram("query.materialize_ns");
  expr_compiled_ = metrics_.GetCounter("expr.compiled");
  expr_fallback_ = metrics_.GetCounter("expr.fallback");
  expr_compile_ns_ = metrics_.GetHistogram("expr.compile_ns");
  spill_runs_ = metrics_.GetCounter("spill.runs");
  spill_bytes_ = metrics_.GetCounter("spill.bytes_written");
  spill_run_bytes_ = metrics_.GetHistogram("spill.run_bytes");
  metrics_.RegisterGauge("plan_cache.hits",
                         [this] { return plan_cache_.stats().hits; });
  metrics_.RegisterGauge("plan_cache.misses",
                         [this] { return plan_cache_.stats().misses; });
  metrics_.RegisterGauge("plan_cache.evictions",
                         [this] { return plan_cache_.stats().evictions; });
  metrics_.RegisterGauge("plan_cache.invalidations", [this] {
    return plan_cache_.stats().invalidations;
  });
  metrics_.RegisterGauge("plan_cache.inserts",
                         [this] { return plan_cache_.stats().inserts; });
  metrics_.RegisterGauge("plan_cache.entries", [this] {
    return static_cast<uint64_t>(plan_cache_.stats().entries);
  });
  metrics_.RegisterGauge("plan_cache.bytes", [this] {
    return static_cast<uint64_t>(plan_cache_.stats().bytes);
  });
  metrics_.RegisterGauge("thread_pool.tasks_submitted",
                         [this]() -> uint64_t {
                           std::lock_guard<std::mutex> lock(pool_mu_);
                           return pool_ != nullptr ? pool_->tasks_submitted()
                                                   : 0;
                         });
  metrics_.RegisterGauge("thread_pool.tasks_stolen", [this]() -> uint64_t {
    std::lock_guard<std::mutex> lock(pool_mu_);
    return pool_ != nullptr ? pool_->tasks_stolen() : 0;
  });
  metrics_.RegisterGauge("thread_pool.queue_depth", [this]() -> uint64_t {
    std::lock_guard<std::mutex> lock(pool_mu_);
    return pool_ != nullptr ? pool_->QueueDepth() : 0;
  });
  queries_shed_ = metrics_.GetCounter("queries.shed");
  feedback_drift_analyzes_ = metrics_.GetCounter("feedback.drift_analyzes");
  feedback_plan_evictions_ = metrics_.GetCounter("feedback.plan_evictions");
  metrics_.RegisterGauge("feedback.hits",
                         [this] { return feedback_store_.stats().hits; });
  metrics_.RegisterGauge("feedback.misses",
                         [this] { return feedback_store_.stats().misses; });
  metrics_.RegisterGauge("feedback.entries", [this] {
    return static_cast<uint64_t>(feedback_store_.stats().entries);
  });
}

// Out of line: ServingState is incomplete in the header.
Database::~Database() = default;

std::shared_ptr<const Catalog> Database::CatalogSnapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return catalog_snapshot_;
}

Result<std::shared_ptr<const Catalog>> Database::AcquireQuerySnapshot() const {
  QOPT_FAULT_POINT("catalog.snapshot");
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return catalog_snapshot_;
}

void Database::PublishSnapshotLocked() {
  std::shared_ptr<const Catalog> fresh(catalog_.Clone());
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  catalog_snapshot_ = std::move(fresh);
}

Status Database::ConfigureServing(const ServingOptions& options) {
  std::lock_guard<std::mutex> ddl(ddl_mu_);
  if (serving_ != nullptr && serving_->admission.in_flight() > 0) {
    return Status::InvalidArgument(
        "cannot reconfigure serving while queries are in flight");
  }
  // The new state's gauges re-register under the same names, replacing the
  // old state's callbacks before it is destroyed.
  serving_ = std::make_unique<ServingState>(options, &metrics_);
  return Status::OK();
}

Session Database::OpenSession() {
  {
    std::lock_guard<std::mutex> ddl(ddl_mu_);
    if (serving_ == nullptr) {
      serving_ = std::make_unique<ServingState>(ServingOptions(), &metrics_);
    }
  }
  serving_->sessions_opened.fetch_add(1, std::memory_order_relaxed);
  return Session(this, serving_.get(),
                 serving_->next_session_id.fetch_add(
                     1, std::memory_order_relaxed));
}

Status Database::Execute(const std::string& sql) {
  QOPT_ASSIGN_OR_RETURN(ast::Statement stmt, parser::Parse(sql));
  switch (stmt.kind) {
    case ast::Statement::Kind::kCreateTable: {
      const ast::CreateTableStatement& ct = *stmt.create_table;
      std::vector<ColumnDef> cols;
      int pk = -1;
      for (size_t i = 0; i < ct.columns.size(); ++i) {
        cols.push_back({ct.columns[i].first, ct.columns[i].second});
        if (ct.columns[i].first == ct.primary_key) pk = static_cast<int>(i);
      }
      std::lock_guard<std::mutex> ddl(ddl_mu_);
      QOPT_ASSIGN_OR_RETURN(int table_id,
                            catalog_.CreateTable(ct.name, cols, pk));
      storage_.EnsureTable(catalog_.GetTable(table_id));
      // Publish even when a foreign-key clause fails below: the table is
      // already live, and the snapshot must reflect the catalog as it is.
      Status fk_status;
      for (const auto& fk : ct.foreign_keys) {
        fk_status = catalog_.AddForeignKey(ct.name, fk.column, fk.ref_table,
                                           fk.ref_column);
        if (!fk_status.ok()) break;
      }
      PublishSnapshotLocked();
      return fk_status;
    }
    case ast::Statement::Kind::kCreateIndex: {
      const ast::CreateIndexStatement& ci = *stmt.create_index;
      std::lock_guard<std::mutex> ddl(ddl_mu_);
      QOPT_ASSIGN_OR_RETURN(int id, catalog_.CreateIndex(ci.name, ci.table,
                                                         ci.column,
                                                         ci.clustered,
                                                         ci.unique));
      storage_.RegisterIndex(catalog_.GetIndex(id));
      PublishSnapshotLocked();
      return Status::OK();
    }
    case ast::Statement::Kind::kCreateView: {
      std::lock_guard<std::mutex> ddl(ddl_mu_);
      QOPT_RETURN_IF_ERROR(catalog_.CreateView(stmt.create_view->name,
                                               stmt.create_view->body_sql));
      PublishSnapshotLocked();
      return Status::OK();
    }
    case ast::Statement::Kind::kInsert: {
      const ast::InsertStatement& ins = *stmt.insert;
      // ddl_mu_ serializes the catalog lookup and the write against DDL;
      // concurrency with *queries* is the session layer's job (INSERT is
      // admitted exclusively there — table contents are unsynchronized).
      std::lock_guard<std::mutex> ddl(ddl_mu_);
      const TableDef* def = catalog_.GetTable(ins.table);
      if (def == nullptr) {
        return Status::NotFound("no table '" + ins.table + "'");
      }
      Table* table = storage_.GetTable(def->id);
      const size_t first_new = table->num_rows();
      Status st;
      for (const std::vector<Value>& row : ins.rows) {
        st = table->Append(row);
        if (!st.ok()) break;
      }
      // The rows appended before a failing one stay, so the indexes must
      // cover them either way.
      storage_.IndexAppendedRows(def->id, first_new);
      return st;
    }
    case ast::Statement::Kind::kSelect:
    case ast::Statement::Kind::kExplain:
    case ast::Statement::Kind::kShowMetrics:
      return Status::InvalidArgument(
          "use Query()/Explain() for SELECT / SHOW METRICS statements");
  }
  return Status::Internal("unhandled statement");
}

Result<int> Database::CreateTable(const std::string& name,
                                  std::vector<ColumnDef> columns,
                                  int primary_key) {
  std::lock_guard<std::mutex> ddl(ddl_mu_);
  QOPT_ASSIGN_OR_RETURN(int id,
                        catalog_.CreateTable(name, std::move(columns),
                                             primary_key));
  storage_.EnsureTable(catalog_.GetTable(id));
  PublishSnapshotLocked();
  return id;
}

Result<int> Database::CreateTable(const std::string& name,
                                  std::vector<ColumnDef> columns,
                                  int primary_key, PartitionSpec partition) {
  std::lock_guard<std::mutex> ddl(ddl_mu_);
  QOPT_ASSIGN_OR_RETURN(
      int id, catalog_.CreateTable(name, std::move(columns), primary_key,
                                   std::move(partition)));
  storage_.EnsureTable(catalog_.GetTable(id));
  PublishSnapshotLocked();
  return id;
}

Result<int> Database::CreateIndex(const std::string& name,
                                  const std::string& table,
                                  const std::string& column, bool clustered,
                                  bool unique) {
  std::lock_guard<std::mutex> ddl(ddl_mu_);
  QOPT_ASSIGN_OR_RETURN(
      int id, catalog_.CreateIndex(name, table, column, clustered, unique));
  storage_.RegisterIndex(catalog_.GetIndex(id));
  PublishSnapshotLocked();
  return id;
}

Status Database::AddForeignKey(const std::string& table,
                               const std::string& column,
                               const std::string& ref_table,
                               const std::string& ref_column) {
  std::lock_guard<std::mutex> ddl(ddl_mu_);
  QOPT_RETURN_IF_ERROR(
      catalog_.AddForeignKey(table, column, ref_table, ref_column));
  PublishSnapshotLocked();
  return Status::OK();
}

Status Database::BulkLoad(const std::string& table, std::vector<Row> rows) {
  // Serialized against DDL only; loads must not race queries (the serving
  // layer's exclusive admission is the guard). No snapshot publish: data
  // loads change table contents, not catalog metadata.
  std::lock_guard<std::mutex> ddl(ddl_mu_);
  const TableDef* def = catalog_.GetTable(table);
  if (def == nullptr) return Status::NotFound("no table '" + table + "'");
  storage_.GetTable(def->id)->AppendUnchecked(std::move(rows));
  storage_.InvalidateIndexes(def->id);
  return Status::OK();
}

Status Database::AnalyzeLocked(const std::string& table,
                               const stats::StatsOptions& options) {
  const TableDef* def = catalog_.GetTable(table);
  if (def == nullptr) return Status::NotFound("no table '" + table + "'");
  Table* t = storage_.GetTable(def->id);
  TableDef* mutable_def = catalog_.GetMutableTable(def->id);
  mutable_def->stats = stats::BuildTableStats(*t, options);
  // New statistics mean previously cached plans were costed against a
  // different data distribution; the version bump invalidates them lazily.
  ++mutable_def->stats_version;
  return Status::OK();
}

Status Database::Analyze(const std::string& table,
                         const stats::StatsOptions& options) {
  std::lock_guard<std::mutex> ddl(ddl_mu_);
  QOPT_RETURN_IF_ERROR(AnalyzeLocked(table, options));
  // Readers in flight keep their snapshot (and its stats); the next query
  // admits against the freshly analyzed catalog.
  PublishSnapshotLocked();
  return Status::OK();
}

Status Database::AnalyzeAll(const stats::StatsOptions& options) {
  std::lock_guard<std::mutex> ddl(ddl_mu_);
  for (size_t i = 0; i < catalog_.num_tables(); ++i) {
    const TableDef* def = catalog_.GetTable(static_cast<int>(i));
    QOPT_RETURN_IF_ERROR(AnalyzeLocked(def->name, options));
  }
  PublishSnapshotLocked();
  return Status::OK();
}

Result<plan::BoundQuery> Database::BindSql(const std::string& sql,
                                           int* next_rel_id) {
  QOPT_ASSIGN_OR_RETURN(ast::Statement stmt, parser::Parse(sql));
  if (stmt.kind != ast::Statement::Kind::kSelect &&
      stmt.kind != ast::Statement::Kind::kExplain) {
    return Status::InvalidArgument("expected a SELECT statement");
  }
  int local = 0;
  // Best-effort literal-slot annotation so every bound plan — whichever
  // path produced it — carries param_index for the plan cache.
  plan::QueryFingerprint fp;
  (void)plan::FingerprintQuery(stmt.select.get(), catalog_, &fp);
  return plan::Bind(*stmt.select, catalog_,
                    next_rel_id != nullptr ? next_rel_id : &local);
}

Result<exec::PhysPtr> Database::PlanQuery(const std::string& sql,
                                          const QueryOptions& options,
                                          opt::OptimizeInfo* info,
                                          std::vector<std::string>* names) {
  QOPT_ASSIGN_OR_RETURN(std::shared_ptr<const Catalog> snapshot,
                        AcquireQuerySnapshot());
  QueryOptions opts = options;
  stats::FeedbackContext fctx;
  if (opts.use_feedback && !opts.naive_execution) {
    fctx.store = &feedback_store_;
    opts.optimizer.feedback = &fctx;
  }
  ResourceGovernor governor(opts.governor, opts.shared_pool);
  return PlanQueryWithGovernor(sql, *snapshot, opts, info, names,
                               governor.enabled() ? &governor : nullptr);
}

namespace {

/// FNV-1a digest of the plan-affecting configuration: optimizer settings,
/// cost parameters, execution mode and dop. Governor limits are excluded —
/// they only ever degrade plans, and degraded plans are never cached.
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

uint64_t PlanAffectingOptionsDigest(const QueryOptions& o) {
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

bool ParamsEqualExcept(const std::vector<Value>& a, const std::vector<Value>& b,
                       int except) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (static_cast<int>(i) == except) continue;
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// Applies `fn` to every bound expression tree in the operator tree.
void WalkLogicalExprs(const plan::LogicalPtr& op,
                      const std::function<void(const plan::BExpr&)>& fn) {
  if (op == nullptr) return;
  if (op->predicate != nullptr) fn(op->predicate);
  for (const plan::BExpr& e : op->proj_exprs) {
    if (e != nullptr) fn(e);
  }
  for (const plan::BExpr& e : op->group_by) {
    if (e != nullptr) fn(e);
  }
  for (const plan::AggItem& a : op->aggs) {
    if (a.arg != nullptr) fn(a.arg);
  }
  for (const plan::LogicalPtr& child : op->children) {
    WalkLogicalExprs(child, fn);
  }
}

/// table_id of the kGet with `rel_id` in the bound tree, or -1.
int FindRelTable(const plan::LogicalPtr& op, int rel_id) {
  if (op == nullptr) return -1;
  if (op->kind == plan::LogicalOpKind::kGet && op->rel_id == rel_id) {
    return op->table_id;
  }
  for (const plan::LogicalPtr& child : op->children) {
    int t = FindRelTable(child, rel_id);
    if (t >= 0) return t;
  }
  return -1;
}

// Finds the AST literal annotated with parameter slot `param_index`,
// searching every clause including nested queries; nullptr if absent.
ast::Expr* FindParamLiteral(ast::SelectStatement* stmt, int param_index);

ast::Expr* FindParamLiteral(ast::Expr* e, int param_index) {
  if (e == nullptr) return nullptr;
  if (e->kind == ast::ExprKind::kLiteral) {
    return e->param_index == param_index ? e : nullptr;
  }
  if (ast::Expr* hit = FindParamLiteral(e->child.get(), param_index)) {
    return hit;
  }
  if (ast::Expr* hit = FindParamLiteral(e->rhs.get(), param_index)) {
    return hit;
  }
  for (ast::ExprPtr& a : e->args) {
    if (ast::Expr* hit = FindParamLiteral(a.get(), param_index)) return hit;
  }
  if (e->subquery != nullptr) {
    return FindParamLiteral(e->subquery.get(), param_index);
  }
  return nullptr;
}

ast::Expr* FindParamLiteral(ast::TableRef* ref, int param_index) {
  if (ref == nullptr) return nullptr;
  if (ast::Expr* hit = FindParamLiteral(ref->on.get(), param_index)) {
    return hit;
  }
  if (ast::Expr* hit = FindParamLiteral(ref->left.get(), param_index)) {
    return hit;
  }
  if (ast::Expr* hit = FindParamLiteral(ref->right.get(), param_index)) {
    return hit;
  }
  if (ref->derived != nullptr) {
    return FindParamLiteral(ref->derived.get(), param_index);
  }
  return nullptr;
}

ast::Expr* FindParamLiteral(ast::SelectStatement* stmt, int param_index) {
  if (stmt == nullptr) return nullptr;
  for (ast::SelectItem& item : stmt->items) {
    if (ast::Expr* hit = FindParamLiteral(item.expr.get(), param_index)) {
      return hit;
    }
  }
  for (ast::TableRefPtr& ref : stmt->from) {
    if (ast::Expr* hit = FindParamLiteral(ref.get(), param_index)) return hit;
  }
  if (ast::Expr* hit = FindParamLiteral(stmt->where.get(), param_index)) {
    return hit;
  }
  for (ast::ExprPtr& g : stmt->group_by) {
    if (ast::Expr* hit = FindParamLiteral(g.get(), param_index)) return hit;
  }
  if (ast::Expr* hit = FindParamLiteral(stmt->having.get(), param_index)) {
    return hit;
  }
  for (ast::OrderItem& o : stmt->order_by) {
    if (ast::Expr* hit = FindParamLiteral(o.expr.get(), param_index)) {
      return hit;
    }
  }
  return FindParamLiteral(stmt->union_next.get(), param_index);
}

}  // namespace

Result<exec::PhysPtr> Database::PlanQueryWithGovernor(
    const std::string& sql, const Catalog& catalog,
    const QueryOptions& options, opt::OptimizeInfo* info,
    std::vector<std::string>* names, const ResourceGovernor* governor) {
  QOPT_ASSIGN_OR_RETURN(ast::Statement stmt, parser::Parse(sql));
  if (stmt.kind != ast::Statement::Kind::kSelect &&
      stmt.kind != ast::Statement::Kind::kExplain) {
    return Status::InvalidArgument("expected a SELECT statement");
  }
  return PlanSelectWithGovernor(stmt.select.get(), catalog, options, info,
                                names, governor);
}

Result<exec::PhysPtr> Database::CompileSelect(
    const ast::SelectStatement& stmt, const Catalog& catalog,
    const QueryOptions& options, opt::OptimizeInfo* info,
    std::vector<std::string>* names, const ResourceGovernor* governor,
    plan::LogicalPtr* bound_root) {
  int next_rel_id = 0;
  QOPT_ASSIGN_OR_RETURN(plan::BoundQuery bound,
                        plan::Bind(stmt, catalog, &next_rel_id));
  if (names != nullptr) *names = bound.output_names;
  if (bound_root != nullptr) *bound_root = bound.root;
  opt::OptTrace* trace = nullptr;
  if (options.trace_optimizer && info != nullptr) {
    info->trace = std::make_shared<opt::OptTrace>();
    trace = info->trace.get();
  }
  stats::FeedbackContext* fctx = options.optimizer.feedback;
  if (fctx != nullptr && trace != nullptr && !fctx->trace) {
    fctx->trace = [trace](const std::string& msg) {
      trace->Add("feedback", msg);
    };
  }
  if (options.naive_execution) {
    // Normalize + push predicates down (System-R evaluates predicates as
    // early as possible even in the unoptimized plan), but keep syntactic
    // join order, nested-loop joins and tuple-iteration subqueries.
    if (governor != nullptr) {
      QOPT_RETURN_IF_ERROR(governor->CheckDeadline());
    }
    opt::RewriteResult rr = opt::RuleEngine::NormalizeOnly().Rewrite(
        bound.root, catalog, &next_rel_id, /*budget=*/256, trace);
    return NaivePhysicalPlan(rr.plan, catalog);
  }
  opt::Optimizer optimizer(catalog, options.optimizer);
  Result<exec::PhysPtr> plan =
      optimizer.Optimize(bound.root, &next_rel_id, info, governor);
  if (fctx != nullptr && info != nullptr) {
    info->feedback_lookups = fctx->lookups;
    info->feedback_hits = fctx->hits;
  }
  return plan;
}

bool Database::CacheEntryCurrent(const CachedPlan& entry,
                                 const Catalog& catalog) {
  if (entry.catalog_version != catalog.version()) return false;
  for (const auto& [table_id, stats_version] : entry.table_stats) {
    const TableDef* table = catalog.GetTable(table_id);
    if (table == nullptr || table->stats_version != stats_version) {
      return false;
    }
  }
  return true;
}

Result<exec::PhysPtr> Database::PlanSelectWithGovernor(
    ast::SelectStatement* stmt, const Catalog& catalog,
    const QueryOptions& options, opt::OptimizeInfo* info,
    std::vector<std::string>* names, const ResourceGovernor* governor) {
  using Outcome = opt::PlanCacheInfo::Outcome;
  opt::OptimizeInfo local_info;
  if (info == nullptr) info = &local_info;

  // Fingerprint first: it also annotates the statement's literals with the
  // parameter slots that every later stage (binder, access paths, cache
  // rebinding) keys on.
  plan::QueryFingerprint fp;
  bool fingerprinted = plan::FingerprintQuery(stmt, catalog, &fp).ok();
  if (fingerprinted) {
    info->plan_cache.fingerprint = fp.hash;
    info->plan_cache.fingerprint_hex = fp.HexHash();
  }
  // trace_optimizer bypasses the cache: a hit would skip the very search
  // being traced.
  if (!fingerprinted || !options.use_plan_cache || options.naive_execution ||
      options.trace_optimizer) {
    info->plan_cache.outcome = Outcome::kBypass;
    return CompileSelect(*stmt, catalog, options, info, names, governor);
  }

  const PlanCacheKey key{fp.hash, PlanAffectingOptionsDigest(options)};
  Outcome outcome = Outcome::kMiss;
  std::shared_ptr<const CachedPlan> prior = plan_cache_.Lookup(key);
  if (prior != nullptr) {
    if (!CacheEntryCurrent(*prior, catalog)) {
      // Schema or statistics epoch moved: the plan may be arbitrarily
      // wrong (missing index, stale costs). Drop it and recompile.
      plan_cache_.Erase(key);
      plan_cache_.RecordInvalidation();
      outcome = Outcome::kInvalidated;
      prior = nullptr;
    } else if (prior->params == fp.params) {
      // Identical literal vector: the compiled plan applies verbatim.
      plan_cache_.RecordHit();
      opt::PlanCacheInfo cache_info = info->plan_cache;
      *info = prior->info;
      info->plan_cache = cache_info;
      info->plan_cache.outcome = Outcome::kHit;
      if (names != nullptr) *names = prior->output_names;
      return prior->plan;
    } else if (prior->parametric != nullptr && options.plan_cache_parametric &&
               ParamsEqualExcept(prior->params, fp.params,
                                 prior->parametric_param)) {
      // Only the range literal changed: let the parametric plan choose the
      // interval (§7.4 choose-plan) and rebind its piece to the literal.
      const int k = prior->parametric_param;
      const Value& incoming = fp.params[k];
      const PlanInterval& piece =
          prior->parametric->Choose(incoming.AsNumeric());
      exec::PhysPtr rebound = RebindPlanParam(piece.plan, k, incoming);
      plan_cache_.RecordHit();
      opt::PlanCacheInfo cache_info = info->plan_cache;
      *info = prior->info;
      info->plan_cache = cache_info;
      info->plan_cache.outcome = Outcome::kHitParametric;
      info->plan_cache.parametric_interval = static_cast<int>(
          &piece - prior->parametric->intervals.data());
      info->plan_cache.parametric_piece_count =
          static_cast<int>(prior->parametric->intervals.size());
      info->plan_cache.parametric_lo = piece.lo;
      info->plan_cache.parametric_hi = piece.hi;
      if (names != nullptr) *names = prior->output_names;
      return rebound;
    }
    // Same shape but different frozen constants and no usable parametric
    // plan: recompile; the fresh entry replaces the stale-constant one.
  }
  if (outcome == Outcome::kMiss) plan_cache_.RecordMiss();

  plan::LogicalPtr bound_root;
  std::vector<std::string> compiled_names;
  QOPT_ASSIGN_OR_RETURN(
      exec::PhysPtr plan,
      CompileSelect(*stmt, catalog, options, info, &compiled_names, governor,
                    &bound_root));
  if (names != nullptr) *names = compiled_names;
  info->plan_cache.outcome = outcome;
  // A degraded compile reflects a search budget, not the query: caching it
  // would pin the inferior plan past the moment budgets allow better.
  if (info->degraded) return plan;

  auto entry = std::make_shared<CachedPlan>();
  entry->plan = plan;
  entry->output_names = compiled_names;
  entry->params = fp.params;
  entry->catalog_version = catalog.version();
  std::set<int> tables;
  CollectPlanTables(*plan, &tables);
  for (int table_id : tables) {
    const TableDef* table = catalog.GetTable(table_id);
    entry->table_stats.emplace_back(
        table_id, table != nullptr ? table->stats_version : 0);
  }
  entry->approx_bytes = EstimatePlanBytes(*plan) + 256;
  if (options.plan_cache_parametric && fp.range_param >= 0 &&
      prior != nullptr && !prior->parametric_attempted) {
    // Second miss on this shape with a varying range literal: the workload
    // has demonstrated parameter variation, so invest in the parametric
    // sweep now. One-shot queries never reach here and never pay for it.
    MaybeAttachParametric(stmt, catalog, options, fp, bound_root,
                          entry.get());
  } else if (prior != nullptr) {
    entry->parametric_attempted = prior->parametric_attempted;
  }
  entry->info = *info;
  plan_cache_.Insert(key, std::move(entry));
  return plan;
}

void Database::MaybeAttachParametric(ast::SelectStatement* stmt,
                                     const Catalog& catalog,
                                     const QueryOptions& options,
                                     const plan::QueryFingerprint& fp,
                                     const plan::LogicalPtr& bound_root,
                                     CachedPlan* entry) {
  entry->parametric_attempted = true;
  const int k = fp.range_param;
  if (bound_root == nullptr) return;
  // The sweep range comes from the compared column's statistics; find the
  // `col <op> ?k` comparison in the bound tree to learn which column.
  ColumnId col;
  bool found = false;
  WalkLogicalExprs(bound_root, [&](const plan::BExpr& root) {
    std::function<void(const plan::BExpr&)> visit =
        [&](const plan::BExpr& e) {
          if (e == nullptr || found) return;
          if (e->kind == plan::BoundKind::kBinary && e->children.size() == 2) {
            const plan::BExpr& a = e->children[0];
            const plan::BExpr& b = e->children[1];
            if (a != nullptr && b != nullptr) {
              if (a->kind == plan::BoundKind::kColumn &&
                  b->kind == plan::BoundKind::kLiteral &&
                  b->param_index == k) {
                col = a->column;
                found = true;
                return;
              }
              if (b->kind == plan::BoundKind::kColumn &&
                  a->kind == plan::BoundKind::kLiteral &&
                  a->param_index == k) {
                col = b->column;
                found = true;
                return;
              }
            }
          }
          for (const plan::BExpr& child : e->children) visit(child);
        };
    visit(root);
  });
  if (!found) return;
  int table_id = FindRelTable(bound_root, col.rel);
  if (table_id < 0) return;
  const TableDef* table = catalog.GetTable(table_id);
  if (table == nullptr || table->stats == nullptr) return;
  const stats::ColumnStats* cstats = table->stats->column(col.col);
  if (cstats == nullptr || cstats->min.is_null() || cstats->max.is_null() ||
      !IsNumeric(cstats->min.type()) || !IsNumeric(cstats->max.type())) {
    return;
  }
  // Clamp the sweep to the non-negative domain: a negative sample renders
  // as unary minus over a positive literal, changing the expression shape
  // the cached pieces would later be rebound through.
  double lo = std::max(0.0, cstats->min.AsNumeric());
  double hi = cstats->max.AsNumeric();
  if (hi <= lo) return;

  ast::Expr* lit = FindParamLiteral(stmt, k);
  if (lit == nullptr) return;
  const Value original = lit->literal;
  auto sql_for = [stmt, lit](double v) {
    lit->literal = Value::Double(v);
    return stmt->ToString();
  };
  ParametricOptions popts;
  popts.lo = lo;
  popts.hi = hi;
  // A coarser boundary than the analysis default: the fill happens on a
  // live query, and near a crossover the competing plans cost about the
  // same anyway, so precision there buys little.
  popts.refine_tolerance = 0.01;
  popts.query_options = options;
  popts.query_options.use_plan_cache = false;  // No self-referential sweeps.
  Result<ParametricPlan> swept = ParametricOptimize(this, sql_for, popts);
  lit->literal = original;
  if (!swept.ok() || swept->intervals.empty()) return;
  // Soundness screen: every piece must expose slot k as a substitutable
  // site (a surviving literal or a single-contributor scan bound) and must
  // not have absorbed k into a multi-predicate bound — otherwise rebinding
  // cannot reproduce the query's semantics for a new literal.
  size_t extra_bytes = 0;
  for (const PlanInterval& piece : swept->intervals) {
    if (piece.plan == nullptr) return;
    std::set<int> have, absorbed;
    CollectPlanParamIndices(*piece.plan, &have);
    CollectAbsorbedParamIndices(*piece.plan, &absorbed);
    if (have.count(k) == 0 || absorbed.count(k) != 0) return;
    // A partially pruned scan froze a literal-derived partition list into
    // the piece; rebinding the literal cannot recompute it.
    if (PlanHasPartialPartitionPrune(*piece.plan)) return;
    extra_bytes += EstimatePlanBytes(*piece.plan);
  }
  entry->parametric =
      std::make_shared<const ParametricPlan>(*std::move(swept));
  entry->parametric_param = k;
  entry->approx_bytes += extra_bytes;
}

namespace {

/// Splits rendered plan/trace text into one-column result rows.
QueryResult TextToResult(const std::string& text) {
  QueryResult result;
  result.column_names = {"plan"};
  std::string line;
  for (char c : text) {
    if (c == '\n') {
      result.rows.push_back({Value::String(line)});
      line.clear();
    } else {
      line += c;
    }
  }
  if (!line.empty()) result.rows.push_back({Value::String(line)});
  return result;
}

std::chrono::steady_clock::time_point Now() {
  return std::chrono::steady_clock::now();
}

uint64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Now() - since)
          .count());
}

}  // namespace

Result<QueryResult> Database::Query(const std::string& sql,
                                    const QueryOptions& options) {
  Result<QueryResult> result = QueryInternal(sql, options);
  if (result.ok()) {
    queries_ok_->Add();
    if (result->optimize_info.degraded) optimizer_degraded_->Add();
  } else {
    queries_failed_->Add();
    StatusCode code = result.status().code();
    if (code == StatusCode::kCancelled ||
        code == StatusCode::kResourceExhausted) {
      // The *query's* own limits tripped (deadline, per-query budget).
      governor_trips_->Add();
    } else if (code == StatusCode::kUnavailable) {
      // The *server* was saturated (shared pool); distinct from a governor
      // trip — the same query would succeed on an idle server.
      queries_shed_->Add();
    }
  }
  return result;
}

Result<QueryResult> Database::QueryInternal(const std::string& sql,
                                            const QueryOptions& options) {
  QOPT_ASSIGN_OR_RETURN(ast::Statement stmt, parser::Parse(sql));
  if (stmt.kind == ast::Statement::Kind::kShowMetrics) {
    QueryResult metrics_result;
    metrics_result.column_names = {"metric", "kind", "value"};
    for (const MetricsRegistry::Sample& s : metrics_.Snapshot()) {
      metrics_result.rows.push_back(
          {Value::String(s.name), Value::String(s.kind),
           Value::Int(static_cast<int64_t>(s.value))});
    }
    return metrics_result;
  }
  if (stmt.kind == ast::Statement::Kind::kExplain) {
    // EXPLAIN [ANALYZE] SELECT ... returns the rendered (and for ANALYZE,
    // executed and stats-annotated) plan as a one-column result.
    const std::string select_sql = stmt.select->ToString();
    QOPT_ASSIGN_OR_RETURN(std::string text,
                          stmt.explain_analyze
                              ? ExplainAnalyze(select_sql, options)
                              : Explain(select_sql, options));
    return TextToResult(text);
  }
  if (stmt.kind != ast::Statement::Kind::kSelect) {
    return Status::InvalidArgument("expected a SELECT statement");
  }
  QueryResult result;
  // The snapshot pins a consistent catalog for the query's whole life:
  // planning, plan-cache validation and execution all see the same schema
  // and statistics even while DDL/ANALYZE publish newer snapshots.
  QOPT_ASSIGN_OR_RETURN(std::shared_ptr<const Catalog> snapshot,
                        AcquireQuerySnapshot());
  // Cardinality feedback: the context rides on the optimizer options into
  // estimation; after a successful instrumented execution the observed
  // fragment cardinalities are harvested back into the shared store.
  QueryOptions opts = options;
  stats::FeedbackContext fctx;
  const bool feedback_active = opts.use_feedback && !opts.naive_execution;
  if (feedback_active) {
    fctx.store = &feedback_store_;
    opts.optimizer.feedback = &fctx;
  }
  // One governor instance spans planning and execution, so a deadline set
  // in QueryOptions bounds the whole query, not each phase separately. The
  // shared pool (if any) makes its charges visible server-wide.
  ResourceGovernor governor(opts.governor, opts.shared_pool);
  std::chrono::steady_clock::time_point compile_start = Now();
  QOPT_ASSIGN_OR_RETURN(
      exec::PhysPtr plan,
      PlanSelectWithGovernor(stmt.select.get(), *snapshot, opts,
                             &result.optimize_info, &result.column_names,
                             governor.enabled() ? &governor : nullptr));
  compile_ns_->Record(ElapsedNs(compile_start));
  exec::ExecContext ctx;
  ctx.storage = &storage_;
  ctx.catalog = snapshot.get();
  ctx.mode = opts.execution_mode;
  ctx.batch_capacity = opts.batch_capacity;
  ctx.analyze = opts.analyze;
  ctx.compile_expressions = opts.compile_expressions;
  ctx.expr_compiled_metric = expr_compiled_;
  ctx.expr_fallback_metric = expr_fallback_;
  ctx.expr_compile_ns = expr_compile_ns_;
  ctx.materialize_ns = materialize_ns_;
  if (governor.enabled()) ctx.governor = &governor;
  // Spill resolution: arm when enabled and there is a budget to degrade
  // against — an explicit per-operator budget, or a quarter of the
  // governor's byte budget (64 KiB floor) so four materializing operators
  // fit. Not plan-affecting: the same plan runs spilled or in-memory.
  if (opts.spill.enabled &&
      (opts.spill.operator_budget_bytes > 0 ||
       opts.governor.max_memory_bytes > 0)) {
    ctx.spill.armed = true;
    ctx.spill.budget_bytes =
        opts.spill.operator_budget_bytes > 0
            ? opts.spill.operator_budget_bytes
            : std::max<uint64_t>(opts.governor.max_memory_bytes / 4,
                                 64 * 1024);
    ctx.spill.partitions = opts.spill.partitions;
    ctx.spill.merge_fanin = opts.spill.merge_fanin;
    ctx.spill.dir = opts.spill.dir;
    ctx.spill_runs_metric = spill_runs_;
    ctx.spill_bytes_metric = spill_bytes_;
    ctx.spill_run_bytes = spill_run_bytes_;
  }
  if (opts.execution_mode == exec::ExecMode::kParallel) {
    ctx.dop = std::clamp<size_t>(opts.dop, 1, ThreadPool::kMaxThreads);
    ctx.morsel_rows = opts.morsel_rows;
    if (ctx.dop > 1) {
      // dop workers = the calling thread + dop-1 pool threads. The mutex
      // makes the lazy pool creation safe under concurrent Query() calls.
      std::lock_guard<std::mutex> lock(pool_mu_);
      if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(1);
      pool_->EnsureThreads(ctx.dop - 1);
      ctx.pool = pool_.get();
    }
  }
  std::chrono::steady_clock::time_point exec_start = Now();
  QOPT_ASSIGN_OR_RETURN(result.rows, exec::ExecuteAll(plan, &ctx));
  execute_ns_->Record(ElapsedNs(exec_start));
  result.exec_stats = ctx.stats;
  if (feedback_active && opts.analyze) {
    HarvestFeedbackAfterQuery(plan, ctx.op_stats, *snapshot, opts, &result);
  }
  if (opts.analyze) {
    result.analyzed_plan = plan;
    result.op_stats = std::move(ctx.op_stats);
  }
  return result;
}

void Database::HarvestFeedbackAfterQuery(const exec::PhysPtr& plan,
                                         const exec::OperatorStatsMap& op_stats,
                                         const Catalog& snapshot,
                                         const QueryOptions& options,
                                         QueryResult* result) {
  std::vector<stats::FeedbackObservation> observations =
      exec::HarvestFeedback(plan.get(), op_stats, snapshot);
  if (observations.empty()) return;
  opt::OptTrace* qtrace = result->optimize_info.trace.get();
  // Advisory: a failed harvest insert (e.g. an injected fault) must never
  // fail the query that already executed successfully.
  Status recorded = feedback_store_.RecordBatch(observations);
  if (qtrace != nullptr) {
    qtrace->Add("feedback",
                recorded.ok()
                    ? "harvested " + std::to_string(observations.size()) +
                          " fragment observation(s)"
                    : "harvest dropped: " + recorded.message());
  }
  if (!recorded.ok()) return;
  // Drift: tables whose median fragment q-error crossed the threshold are
  // re-ANALYZEd now; the stats_version bump lazily invalidates every cached
  // plan reading them.
  for (int table_id : feedback_store_.TakeTablesNeedingAnalyze()) {
    const TableDef* table = snapshot.GetTable(table_id);
    if (table == nullptr) continue;
    if (Analyze(table->name).ok()) {
      feedback_drift_analyzes_->Add();
      if (qtrace != nullptr) {
        qtrace->Add("feedback", "drift detected: auto-ANALYZE " + table->name);
      }
    }
  }
  // Plan regression: a cached plan whose observed cardinalities diverged
  // far from its estimates is evicted; the next execution re-optimizes
  // against the corrected feedback.
  using Outcome = opt::PlanCacheInfo::Outcome;
  const opt::PlanCacheInfo& pc = result->optimize_info.plan_cache;
  if (pc.outcome != Outcome::kHit && pc.outcome != Outcome::kHitParametric) {
    return;
  }
  double worst = 0;
  for (const stats::FeedbackObservation& o : observations) {
    if (o.est_rows < 0) continue;
    worst = std::max(
        worst, exec::QError(o.est_rows, static_cast<uint64_t>(o.act_rows)));
  }
  if (worst <= feedback_store_.options().regression_threshold) return;
  plan_cache_.Erase({pc.fingerprint, PlanAffectingOptionsDigest(options)});
  feedback_plan_evictions_->Add();
  if (qtrace != nullptr) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "plan regression: qerror=%.1f > %.1f, cached plan evicted",
                  worst, feedback_store_.options().regression_threshold);
    qtrace->Add("feedback", buf);
  }
}

namespace {

/// The "[cache: ...]" / "[degraded: ...]" header shared by EXPLAIN and
/// EXPLAIN ANALYZE.
std::string ExplainHeader(const opt::OptimizeInfo& info) {
  const opt::PlanCacheInfo& pc = info.plan_cache;
  std::string header =
      "[cache: " + std::string(opt::PlanCacheOutcomeName(pc.outcome));
  if (!pc.fingerprint_hex.empty()) header += " fp=" + pc.fingerprint_hex;
  if (pc.outcome == opt::PlanCacheInfo::Outcome::kHitParametric) {
    char buf[96];
    std::snprintf(buf, sizeof buf, " interval %d/%d [%g, %g]",
                  pc.parametric_interval + 1, pc.parametric_piece_count,
                  pc.parametric_lo, pc.parametric_hi);
    header += buf;
  }
  header += "]\n";
  if (info.feedback_hits > 0) {
    header += "[feedback: hits=" + std::to_string(info.feedback_hits) +
              " lookups=" + std::to_string(info.feedback_lookups) + "]\n";
  }
  if (info.degraded) {
    header += "[degraded: " + info.degraded_reason + "]\n";
  }
  return header;
}

/// Mode banner + rendered plan with the per-mode node markers (and, for
/// EXPLAIN ANALYZE, the per-node runtime annotations).
std::string RenderPlanText(const exec::PhysPtr& plan,
                           const QueryOptions& options,
                           const exec::PlanAnnotations* annotations) {
  if (options.execution_mode == exec::ExecMode::kParallel &&
      options.dop > 1) {
    // Mark the morsel-parallel region roots plus the vectorized operators
    // the serial remainder of the plan will use.
    std::unordered_set<const exec::PhysicalPlan*> batch_nodes =
        exec::BatchModeNodes(plan);
    std::unordered_set<const exec::PhysicalPlan*> parallel_roots =
        exec::ParallelRegionRoots(plan);
    return "execution mode: parallel (dop " + std::to_string(options.dop) +
           "; region roots marked [parallel], vectorized operators " +
           "[batch])\n" +
           plan->ToString(0, &batch_nodes, &parallel_roots, annotations);
  }
  if (options.execution_mode != exec::ExecMode::kRow) {
    // Batch mode, and parallel at dop 1 (which builds the serial batch
    // tree): mark the vectorized operators that run at full capacity; the
    // subtrees under Apply, index nested-loops and Limit run at capacity 1.
    std::unordered_set<const exec::PhysicalPlan*> batch_nodes =
        exec::BatchModeNodes(plan);
    return "execution mode: batch (capacity " +
           std::to_string(options.batch_capacity) +
           "; vectorized operators marked [batch])\n" +
           plan->ToString(0, &batch_nodes, nullptr, annotations);
  }
  return plan->ToString(0, nullptr, nullptr, annotations);
}

/// Formats one node's EXPLAIN ANALYZE annotation from its runtime stats.
std::string AnalyzeAnnotation(const exec::PhysicalPlan& node,
                              const exec::OperatorStats& os) {
  uint64_t act = os.ActualRows();
  char buf[192];
  std::snprintf(buf, sizeof buf,
                " [analyze: est_rows=%.0f act_rows=%llu qerror=%.2f "
                "wall_ns=%llu",
                node.est_rows, static_cast<unsigned long long>(act),
                exec::QError(node.est_rows, act),
                static_cast<unsigned long long>(os.wall_ns));
  std::string out = buf;
  uint64_t mem = std::max(os.peak_mem_bytes, os.worker_peak_mem_bytes);
  if (mem > 0) {
    std::snprintf(buf, sizeof buf, " mem=%lluB",
                  static_cast<unsigned long long>(mem));
    out += buf;
  }
  if (os.workers > 0) {
    std::snprintf(buf, sizeof buf, " workers=%u worker_wall_ns=%llu",
                  os.workers,
                  static_cast<unsigned long long>(os.worker_wall_ns));
    out += buf;
  }
  out += "]";
  if (os.spill_runs > 0) {
    // Spill degradation: runs (sorted runs or grace-join partition files)
    // and bytes this operator wrote to temporary spill storage.
    std::snprintf(buf, sizeof buf, " [spill: %llu runs, %lluB]",
                  static_cast<unsigned long long>(os.spill_runs),
                  static_cast<unsigned long long>(os.spill_bytes));
    out += buf;
  }
  if (os.expr_compiled > 0 || os.expr_fallback > 0) {
    // Expression mode of this operator's predicates/projections/agg args:
    // all compiled, all interpreted (fallback), or a mix per expression.
    const char* mode = os.expr_fallback == 0
                           ? "compiled"
                           : (os.expr_compiled == 0 ? "interpreted" : "mixed");
    out += " [expr: ";
    out += mode;
    out += "]";
  }
  return out;
}

/// Annotation strings for every node in `plan`. Nodes absent from the
/// stats map never ran (e.g. pruned by an empty input) and are marked so.
exec::PlanAnnotations BuildAnalyzeAnnotations(
    const exec::PhysicalPlan* plan, const exec::OperatorStatsMap& stats) {
  exec::PlanAnnotations ann;
  std::function<void(const exec::PhysicalPlan*)> visit =
      [&](const exec::PhysicalPlan* node) {
        if (node == nullptr) return;
        auto it = stats.find(node);
        ann[node] = it != stats.end() ? AnalyzeAnnotation(*node, it->second)
                                      : " [analyze: not executed]";
        for (const exec::PhysPtr& child : node->children) {
          visit(child.get());
        }
      };
  visit(plan);
  return ann;
}

}  // namespace

Result<std::string> Database::Explain(const std::string& sql,
                                      const QueryOptions& options) {
  opt::OptimizeInfo info;
  QOPT_ASSIGN_OR_RETURN(exec::PhysPtr plan, PlanQuery(sql, options, &info));
  std::string out = ExplainHeader(info) + RenderPlanText(plan, options,
                                                         nullptr);
  if (info.trace != nullptr) {
    out += "--- optimizer trace ---\n" + info.trace->ToString();
  }
  return out;
}

Result<std::string> Database::ExplainAnalyze(const std::string& sql,
                                             const QueryOptions& options) {
  QueryOptions opts = options;
  opts.analyze = true;
  // QueryInternal, not Query: when reached through Query("EXPLAIN ANALYZE
  // ..."), the outer wrapper already counts the statement once.
  QOPT_ASSIGN_OR_RETURN(QueryResult result, QueryInternal(sql, opts));
  exec::PlanAnnotations ann =
      BuildAnalyzeAnnotations(result.analyzed_plan.get(), result.op_stats);
  std::string out = ExplainHeader(result.optimize_info);
  if (result.exec_stats.parallel_pages_divergent) {
    out += "[note: modeled_pages_read diverges under parallel execution "
           "(per-worker buffer pools)]\n";
  }
  out += RenderPlanText(result.analyzed_plan, opts, &ann);
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "totals: rows=%zu modeled_pages_read=%llu\n",
                result.rows.size(),
                static_cast<unsigned long long>(
                    result.exec_stats.modeled_pages_read));
  out += buf;
  if (result.optimize_info.trace != nullptr) {
    out += "--- optimizer trace ---\n" + result.optimize_info.trace->ToString();
  }
  return out;
}

Result<exec::PhysPtr> NaivePhysicalPlan(const plan::LogicalPtr& op,
                                        const Catalog& catalog) {
  using plan::LogicalOpKind;
  switch (op->kind) {
    case LogicalOpKind::kGet: {
      const TableDef* table = catalog.GetTable(op->table_id);
      QOPT_DCHECK(table != nullptr);
      return exec::MakeTableScan(op->table_id, op->rel_id, op->alias,
                                 op->get_cols, nullptr);
    }
    case LogicalOpKind::kFilter: {
      QOPT_ASSIGN_OR_RETURN(exec::PhysPtr child,
                            NaivePhysicalPlan(op->children[0], catalog));
      return exec::MakeFilterExec(std::move(child), op->predicate);
    }
    case LogicalOpKind::kProject: {
      QOPT_ASSIGN_OR_RETURN(exec::PhysPtr child,
                            NaivePhysicalPlan(op->children[0], catalog));
      return exec::MakeProjectExec(std::move(child), op->proj_exprs,
                                   op->proj_cols);
    }
    case LogicalOpKind::kJoin: {
      QOPT_ASSIGN_OR_RETURN(exec::PhysPtr left,
                            NaivePhysicalPlan(op->children[0], catalog));
      QOPT_ASSIGN_OR_RETURN(exec::PhysPtr right,
                            NaivePhysicalPlan(op->children[1], catalog));
      return exec::MakeNestedLoopJoin(op->join_type, std::move(left),
                                      std::move(right), op->predicate);
    }
    case LogicalOpKind::kAggregate: {
      QOPT_ASSIGN_OR_RETURN(exec::PhysPtr child,
                            NaivePhysicalPlan(op->children[0], catalog));
      std::vector<ColumnId> group_cols;
      for (const plan::BExpr& g : op->group_by) group_cols.push_back(g->column);
      return exec::MakeHashAggregate(std::move(child), group_cols, op->aggs,
                                     op->OutputCols());
    }
    case LogicalOpKind::kDistinct: {
      QOPT_ASSIGN_OR_RETURN(exec::PhysPtr child,
                            NaivePhysicalPlan(op->children[0], catalog));
      return exec::MakeDistinctExec(std::move(child));
    }
    case LogicalOpKind::kSort: {
      QOPT_ASSIGN_OR_RETURN(exec::PhysPtr child,
                            NaivePhysicalPlan(op->children[0], catalog));
      return exec::MakeSortExec(std::move(child), op->sort_keys);
    }
    case LogicalOpKind::kLimit: {
      QOPT_ASSIGN_OR_RETURN(exec::PhysPtr child,
                            NaivePhysicalPlan(op->children[0], catalog));
      return exec::MakeLimitExec(std::move(child), op->limit);
    }
    case LogicalOpKind::kApply: {
      QOPT_ASSIGN_OR_RETURN(exec::PhysPtr left,
                            NaivePhysicalPlan(op->children[0], catalog));
      QOPT_ASSIGN_OR_RETURN(exec::PhysPtr right,
                            NaivePhysicalPlan(op->children[1], catalog));
      return exec::MakeApplyExec(op->apply_type, std::move(left),
                                 std::move(right), op->predicate,
                                 op->correlated_cols, op->scalar_output,
                                 op->scalar_type);
    }
    case LogicalOpKind::kUnion: {
      std::vector<exec::PhysPtr> children;
      for (const plan::LogicalPtr& c : op->children) {
        QOPT_ASSIGN_OR_RETURN(exec::PhysPtr child,
                              NaivePhysicalPlan(c, catalog));
        children.push_back(std::move(child));
      }
      return exec::MakeUnionAllExec(std::move(children), op->proj_cols);
    }
    case LogicalOpKind::kExcept:
    case LogicalOpKind::kIntersect: {
      QOPT_ASSIGN_OR_RETURN(exec::PhysPtr left,
                            NaivePhysicalPlan(op->children[0], catalog));
      QOPT_ASSIGN_OR_RETURN(exec::PhysPtr right,
                            NaivePhysicalPlan(op->children[1], catalog));
      return exec::MakeSetOpExec(op->kind == plan::LogicalOpKind::kExcept
                                     ? exec::PhysOpKind::kHashExcept
                                     : exec::PhysOpKind::kHashIntersect,
                                 std::move(left), std::move(right),
                                 op->proj_cols);
    }
  }
  return Status::Internal("unhandled logical operator");
}

}  // namespace qopt
