#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "optimizer/join_common.h"
#include "plan/query_graph.h"

namespace qopt::opt {

using plan::BExpr;
using plan::JoinType;
using plan::LogicalOp;
using plan::LogicalOpKind;
using plan::LogicalPtr;
using plan::SortKey;
using stats::RelStats;

namespace {

/// A planned subtree: physical plan + cumulative cost + derived stats.
struct Planned {
  exec::PhysPtr plan;
  cost::Cost cost;
  RelStats stats;
};

class PlannerImpl {
 public:
  PlannerImpl(const Catalog& catalog, const OptimizerOptions& options,
              const cost::CostModel& model, OptimizeInfo* info,
              const ResourceGovernor* governor = nullptr,
              OptTrace* trace = nullptr)
      : catalog_(catalog),
        options_(options),
        model_(model),
        info_(info),
        governor_(governor),
        trace_(trace) {}

  /// Degradation state accumulated across the current candidate's join
  /// blocks; the facade resets per candidate and records the winner's.
  void ResetDegraded() {
    degraded_ = false;
    degraded_reason_.clear();
  }
  bool degraded() const { return degraded_; }
  const std::string& degraded_reason() const { return degraded_reason_; }

  Result<Planned> Plan(const LogicalPtr& op,
                       const std::vector<SortKey>& required_order) {
    // Inner-join blocks go through the join enumerator (access-path
    // selection for single relations included).
    if (plan::IsJoinBlock(*op)) {
      return PlanJoinBlock(op, required_order);
    }
    switch (op->kind) {
      case LogicalOpKind::kFilter:
        return PlanFilter(op);
      case LogicalOpKind::kProject:
        return PlanProject(op);
      case LogicalOpKind::kAggregate:
        return PlanAggregate(op);
      case LogicalOpKind::kJoin:
        return PlanNonInnerJoin(op);
      case LogicalOpKind::kApply:
        return PlanApply(op);
      case LogicalOpKind::kDistinct:
        return PlanDistinct(op);
      case LogicalOpKind::kSort:
        return PlanSort(op);
      case LogicalOpKind::kLimit:
        return PlanLimit(op);
      case LogicalOpKind::kUnion:
        return PlanUnion(op);
      case LogicalOpKind::kExcept:
      case LogicalOpKind::kIntersect:
        return PlanSetOp(op);
      default:
        return Status::Internal("unplannable operator");
    }
  }

 private:
  Result<Planned> PlanJoinBlock(const LogicalPtr& op,
                                const std::vector<SortKey>& required_order) {
    QOPT_ASSIGN_OR_RETURN(plan::QueryGraph graph,
                          plan::ExtractQueryGraph(op));
    Planned out;
    if (options_.enumerator == EnumeratorKind::kSelinger) {
      SelingerOptimizer selinger(catalog_, model_, options_.selinger);
      selinger.set_governor(governor_);
      selinger.set_trace(trace_);
      selinger.set_feedback(options_.feedback);
      QOPT_ASSIGN_OR_RETURN(out.plan,
                            selinger.OptimizeJoinBlock(graph, required_order));
      out.stats = selinger.result_stats();
      if (info_ != nullptr) {
        AccumulateSelinger(selinger.counters());
      }
      NoteDegraded(selinger.degraded(), selinger.degraded_reason());
    } else {
      cascades::CascadesOptimizer casc(catalog_, model_, options_.cascades);
      casc.set_governor(governor_);
      casc.set_trace(trace_);
      casc.set_feedback(options_.feedback);
      QOPT_ASSIGN_OR_RETURN(out.plan,
                            casc.OptimizeJoinBlock(graph, required_order));
      out.stats = casc.result_stats();
      if (info_ != nullptr) {
        AccumulateCascades(casc.counters());
      }
      NoteDegraded(casc.degraded(), casc.degraded_reason());
    }
    out.cost = out.plan->est_cost;
    return out;
  }

  void NoteDegraded(bool degraded, const std::string& reason) {
    if (!degraded) return;
    if (!degraded_) {
      degraded_ = true;
      degraded_reason_ = reason;
    }
  }

  void AccumulateSelinger(const SelingerCounters& c) {
    info_->selinger_counters.join_plans_costed += c.join_plans_costed;
    info_->selinger_counters.subsets_expanded += c.subsets_expanded;
    info_->selinger_counters.candidates_pruned += c.candidates_pruned;
    info_->selinger_counters.candidates_retained += c.candidates_retained;
  }

  void AccumulateCascades(const cascades::CascadesCounters& c) {
    auto& t = info_->cascades_counters;
    t.optimize_group_tasks += c.optimize_group_tasks;
    t.winner_cache_hits += c.winner_cache_hits;
    t.rules_applied += c.rules_applied;
    t.impl_plans_costed += c.impl_plans_costed;
    t.pruned_by_bound += c.pruned_by_bound;
    t.groups += c.groups;
    t.logical_exprs += c.logical_exprs;
  }

  Result<Planned> PlanFilter(const LogicalPtr& op) {
    QOPT_ASSIGN_OR_RETURN(Planned child, Plan(op->children[0], {}));
    Planned out;
    out.stats = cost::ApplyPredicateStats(child.stats, op->predicate);
    std::vector<BExpr> conjuncts;
    plan::SplitConjuncts(op->predicate, &conjuncts);
    // Rank ordering (§7.2): cheap selective conjuncts short-circuit first.
    conjuncts = cost::OrderConjunctsByRank(std::move(conjuncts), child.stats);
    out.cost = child.cost + model_.Filter(child.stats.rows,
                                          static_cast<int>(conjuncts.size()));
    out.plan = exec::MakeFilterExec(child.plan,
                                    plan::MakeConjunction(conjuncts));
    out.plan->output_order = child.plan->output_order;
    Annotate(&out);
    return out;
  }

  Result<Planned> PlanProject(const LogicalPtr& op) {
    QOPT_ASSIGN_OR_RETURN(Planned child, Plan(op->children[0], {}));
    Planned out;
    out.stats.rows = child.stats.rows;
    for (size_t i = 0; i < op->proj_exprs.size(); ++i) {
      const BExpr& e = op->proj_exprs[i];
      stats::ColumnStatsView view;
      if (e->kind == plan::BoundKind::kColumn) {
        if (const stats::ColumnStatsView* cs = child.stats.column(e->column)) {
          view = *cs;
        }
      } else {
        view.ndv = std::max(1.0, child.stats.rows / 10.0);
      }
      out.stats.columns[op->proj_cols[i].id] = view;
    }
    out.cost = child.cost + model_.Project(
                                child.stats.rows,
                                static_cast<int>(op->proj_exprs.size()));
    out.plan = exec::MakeProjectExec(child.plan, op->proj_exprs,
                                     op->proj_cols);
    // Order survives projection for keys passed through as plain columns.
    std::vector<SortKey> order;
    for (const SortKey& k : child.plan->output_order) {
      bool passed = false;
      for (size_t i = 0; i < op->proj_exprs.size(); ++i) {
        if (op->proj_exprs[i]->kind == plan::BoundKind::kColumn &&
            op->proj_exprs[i]->column == k.column) {
          order.push_back({op->proj_cols[i].id, k.ascending});
          passed = true;
          break;
        }
      }
      if (!passed) break;
    }
    out.plan->output_order = std::move(order);
    Annotate(&out);
    return out;
  }

  Result<Planned> PlanAggregate(const LogicalPtr& op) {
    std::vector<ColumnId> group_cols;
    std::vector<SortKey> group_order;
    for (const BExpr& g : op->group_by) {
      group_cols.push_back(g->column);
      group_order.push_back({g->column, true});
    }
    std::vector<plan::OutputCol> out_cols = op->OutputCols();

    // Candidate 1: unordered child + hash aggregation.
    QOPT_ASSIGN_OR_RETURN(Planned hash_child, Plan(op->children[0], {}));
    double groups = stats::AggregateStats(hash_child.stats, group_cols).rows;
    cost::Cost hash_cost =
        hash_child.cost + model_.HashAggregate(hash_child.stats.rows, groups);

    // Candidate 2 (interesting orders, §3): child ordered on the grouping
    // columns + streaming aggregation. Only worth trying for join blocks,
    // where the enumerator can exploit orderings.
    bool try_stream = !group_order.empty();
    Planned stream_child;
    cost::Cost stream_cost;
    bool have_stream = false;
    if (try_stream) {
      auto stream = Plan(op->children[0], group_order);
      // Only usable if the child actually delivers the grouping order
      // (join blocks enforce it; other operators may ignore the request).
      if (stream.ok() &&
          PhysOrderSatisfies(stream->plan->output_order, group_order)) {
        stream_child = std::move(stream).value();
        stream_cost = stream_child.cost +
                      model_.StreamAggregate(stream_child.stats.rows);
        have_stream = true;
      }
    }

    Planned out;
    if (have_stream && stream_cost.total() < hash_cost.total()) {
      out.stats = stats::AggregateStats(stream_child.stats, group_cols);
      out.cost = stream_cost;
      out.plan = exec::MakeStreamAggregate(stream_child.plan, group_cols,
                                           op->aggs, out_cols);
      out.plan->output_order = group_order;
    } else {
      out.stats = stats::AggregateStats(hash_child.stats, group_cols);
      out.cost = hash_cost;
      out.plan = exec::MakeHashAggregate(hash_child.plan, group_cols,
                                         op->aggs, out_cols);
    }
    for (const plan::AggItem& a : op->aggs) {
      stats::ColumnStatsView view;
      view.ndv = std::max(1.0, out.stats.rows / 2.0);
      out.stats.columns[a.output] = view;
    }
    Annotate(&out);
    return out;
  }

  /// True if `op` is Filter*/Get; outputs the Get and the residual filter.
  static bool MatchFilteredGet(const LogicalPtr& op, const LogicalOp** get,
                               BExpr* filter) {
    const LogicalOp* cur = op.get();
    std::vector<BExpr> preds;
    while (cur->kind == LogicalOpKind::kFilter) {
      preds.push_back(cur->predicate);
      cur = cur->children[0].get();
    }
    if (cur->kind != LogicalOpKind::kGet) return false;
    *get = cur;
    *filter = preds.empty() ? nullptr : plan::MakeConjunction(preds);
    return true;
  }

  /// True if `op`'s output rows are guaranteed unique on `key` (Distinct
  /// over a single column, or Aggregate grouped exactly by it).
  static bool ProducesUniqueKey(const LogicalPtr& op, ColumnId key) {
    if (op->kind == LogicalOpKind::kDistinct) {
      std::vector<plan::OutputCol> cols = op->OutputCols();
      return cols.size() == 1 && cols[0].id == key;
    }
    if (op->kind == LogicalOpKind::kAggregate) {
      return op->group_by.size() == 1 && op->group_by[0]->column == key;
    }
    return false;
  }

  /// Semijoin via reversed index lookups: for L ⋉ R on l = r where R's
  /// keys are unique and L is a (filtered) base table with an index on l,
  /// drive lookups from R into L's index — the execution strategy behind
  /// the paper's §4.3 semijoin reduction ("B sends to A no unnecessary
  /// tuples"). Output remains L's columns via a projection.
  std::optional<Planned> TryIndexSemiJoin(const LogicalPtr& op,
                                          const Planned& right, ColumnId lcol,
                                          ColumnId rcol,
                                          const RelStats& out_stats) {
    const LogicalOp* get = nullptr;
    BExpr local;
    if (!MatchFilteredGet(op->children[0], &get, &local)) return std::nullopt;
    if (lcol.rel != get->rel_id) return std::nullopt;
    const IndexDef* index = catalog_.FindIndexOn(get->table_id, lcol.col);
    if (index == nullptr) return std::nullopt;
    if (!ProducesUniqueKey(op->children[1], rcol)) return std::nullopt;
    const TableDef* table = catalog_.GetTable(get->table_id);
    const stats::TableStats* ts = table->stats.get();
    double table_rows = ts != nullptr ? ts->row_count : 1000.0;
    double table_pages =
        ts != nullptr ? ts->num_pages
                      : EstimatePages(table_rows, table->columns.size());
    double key_ndv = table_rows;
    if (ts != nullptr) {
      if (const stats::ColumnStats* cs = ts->column(index->column)) {
        key_ndv = cs->num_distinct;
      }
    }
    double matches = table_rows / std::max(1.0, key_ndv);
    double height = std::max(
        1.0, std::ceil(std::log(std::max(2.0, table_rows)) / std::log(256.0)));

    Planned out;
    out.stats = out_stats;
    out.cost = right.cost + model_.RepeatedIndexLookup(
                                right.stats.rows, matches, table_rows, height,
                                index->clustered, table_pages, table_rows);
    exec::PhysPtr inner = exec::MakeIndexScan(
        get->table_id, get->rel_id, get->alias, get->get_cols, index->id, {},
        {}, local);
    exec::PhysPtr inlj =
        exec::MakeIndexNLJoin(plan::JoinType::kInner, right.plan, inner, rcol,
                              lcol, nullptr);
    // Project back to the left side's columns (ids preserved).
    std::vector<BExpr> exprs;
    std::vector<plan::OutputCol> cols;
    for (const plan::OutputCol& c : op->children[0]->OutputCols()) {
      exprs.push_back(plan::MakeColumn(c.id, c.type, c.name));
      cols.push_back(c);
    }
    out.cost += model_.Project(out.stats.rows,
                               static_cast<int>(exprs.size()));
    out.plan = exec::MakeProjectExec(std::move(inlj), std::move(exprs),
                                     std::move(cols));
    Annotate(&out);
    return out;
  }

  Result<Planned> PlanNonInnerJoin(const LogicalPtr& op) {
    QOPT_ASSIGN_OR_RETURN(Planned left, Plan(op->children[0], {}));
    QOPT_ASSIGN_OR_RETURN(Planned right, Plan(op->children[1], {}));
    Planned out;

    // Split the condition into one equi conjunct (hash key) + residual.
    ColumnId lcol, rcol;
    bool has_equi = false;
    std::vector<BExpr> residual_parts;
    if (op->predicate) {
      std::set<ColumnId> lcols = op->children[0]->OutputColumnSet();
      std::set<ColumnId> rcols = op->children[1]->OutputColumnSet();
      std::vector<BExpr> conjuncts;
      plan::SplitConjuncts(op->predicate, &conjuncts);
      for (const BExpr& c : conjuncts) {
        ColumnId a, b;
        if (!has_equi && plan::MatchEquiJoin(c, lcols, rcols, &a, &b)) {
          has_equi = true;
          lcol = a;
          rcol = b;
        } else {
          residual_parts.push_back(c);
        }
      }
    }
    BExpr residual =
        residual_parts.empty() ? nullptr
                               : plan::MakeConjunction(residual_parts);

    // Output statistics by join type.
    switch (op->join_type) {
      case JoinType::kLeftOuter:
        out.stats = has_equi ? stats::LeftOuterJoinStats(left.stats,
                                                         right.stats, lcol,
                                                         rcol)
                             : stats::CrossStats(left.stats, right.stats);
        break;
      case JoinType::kSemi:
      case JoinType::kAnti: {
        RelStats semi = has_equi
                            ? stats::SemiJoinStats(left.stats, right.stats,
                                                   lcol, rcol)
                            : stats::ApplyFilter(left.stats, 0.5);
        if (op->join_type == JoinType::kAnti) {
          double anti_rows = std::max(0.0, left.stats.rows - semi.rows);
          semi.rows = anti_rows;
        }
        out.stats = semi;
        break;
      }
      default:
        out.stats = stats::CrossStats(left.stats, right.stats);
        break;
    }

    double lw = static_cast<double>(left.stats.columns.size());
    double rw = static_cast<double>(right.stats.columns.size());
    if (has_equi) {
      out.cost = left.cost + right.cost +
                 model_.HashJoin(right.stats.rows,
                                 EstimatePages(right.stats.rows, rw),
                                 left.stats.rows,
                                 EstimatePages(left.stats.rows, lw),
                                 out.stats.rows);
      out.plan = exec::MakeHashJoin(op->join_type, left.plan, right.plan,
                                    lcol, rcol, residual);
      out.plan->output_order = left.plan->output_order;
      // Semijoins against a small unique-key set may instead drive index
      // lookups into the left table (§4.3 semijoin reduction).
      if (op->join_type == JoinType::kSemi && residual == nullptr) {
        std::optional<Planned> via_index =
            TryIndexSemiJoin(op, right, lcol, rcol, out.stats);
        if (via_index.has_value() &&
            via_index->cost.total() < out.cost.total()) {
          Annotate(&*via_index);
          return *via_index;
        }
      }
    } else {
      out.cost = left.cost + right.cost +
                 model_.NestedLoopCPU(left.stats.rows, right.stats.rows);
      out.plan = exec::MakeNestedLoopJoin(op->join_type, left.plan,
                                          right.plan, op->predicate);
      out.plan->output_order = left.plan->output_order;
    }
    Annotate(&out);
    return out;
  }

  Result<Planned> PlanApply(const LogicalPtr& op) {
    QOPT_ASSIGN_OR_RETURN(Planned left, Plan(op->children[0], {}));
    QOPT_ASSIGN_OR_RETURN(Planned right, Plan(op->children[1], {}));
    Planned out;
    out.plan = exec::MakeApplyExec(op->apply_type, left.plan, right.plan,
                                   op->predicate, op->correlated_cols,
                                   op->scalar_output, op->scalar_type);
    // Tuple-iteration semantics: the inner subtree re-executes per outer
    // row (§4.2.2). Uncorrelated inner subqueries execute once.
    double reruns =
        op->correlated_cols.empty() ? 1.0 : std::max(1.0, left.stats.rows);
    out.cost = left.cost;
    out.cost.cpu += right.cost.cpu * reruns;
    out.cost.io += right.cost.io * reruns;
    switch (op->apply_type) {
      case plan::ApplyType::kSemi:
        out.stats = stats::ApplyFilter(left.stats, 0.5);
        break;
      case plan::ApplyType::kAnti:
        out.stats = stats::ApplyFilter(left.stats, 0.5);
        break;
      case plan::ApplyType::kScalar: {
        out.stats = left.stats;
        stats::ColumnStatsView view;
        view.ndv = std::max(1.0, left.stats.rows / 2.0);
        out.stats.columns[op->scalar_output] = view;
        break;
      }
    }
    Annotate(&out);
    return out;
  }

  Result<Planned> PlanDistinct(const LogicalPtr& op) {
    QOPT_ASSIGN_OR_RETURN(Planned child, Plan(op->children[0], {}));
    Planned out;
    std::vector<ColumnId> cols;
    for (const plan::OutputCol& c : op->children[0]->OutputCols()) {
      cols.push_back(c.id);
    }
    out.stats = stats::AggregateStats(child.stats, cols);
    out.cost = child.cost +
               model_.HashAggregate(child.stats.rows, out.stats.rows);
    out.plan = exec::MakeDistinctExec(child.plan);
    Annotate(&out);
    return out;
  }

  Result<Planned> PlanSort(const LogicalPtr& op) {
    QOPT_ASSIGN_OR_RETURN(Planned child, Plan(op->children[0], op->sort_keys));
    Planned out;
    out.stats = child.stats;
    if (PhysOrderSatisfies(child.plan->output_order, op->sort_keys)) {
      // Interesting orders paid off: no sort needed.
      out.cost = child.cost;
      out.plan = child.plan;
    } else {
      double width = static_cast<double>(child.stats.columns.size());
      out.cost = child.cost + model_.Sort(child.stats.rows,
                                          EstimatePages(child.stats.rows,
                                                        width));
      out.plan = exec::MakeSortExec(child.plan, op->sort_keys);
    }
    Annotate(&out);
    return out;
  }

  Result<Planned> PlanUnion(const LogicalPtr& op) {
    Planned out;
    std::vector<exec::PhysPtr> children;
    out.stats.rows = 0;
    for (const LogicalPtr& arm : op->children) {
      QOPT_ASSIGN_OR_RETURN(Planned planned, Plan(arm, {}));
      out.cost += planned.cost;
      out.stats.rows += planned.stats.rows;
      children.push_back(planned.plan);
    }
    for (const plan::OutputCol& c : op->proj_cols) {
      stats::ColumnStatsView view;
      view.ndv = std::max(1.0, out.stats.rows / 10.0);
      out.stats.columns[c.id] = view;
    }
    out.cost += model_.Project(out.stats.rows, 1);
    out.plan = exec::MakeUnionAllExec(std::move(children), op->proj_cols);
    Annotate(&out);
    return out;
  }

  Result<Planned> PlanSetOp(const LogicalPtr& op) {
    QOPT_ASSIGN_OR_RETURN(Planned left, Plan(op->children[0], {}));
    QOPT_ASSIGN_OR_RETURN(Planned right, Plan(op->children[1], {}));
    Planned out;
    // EXCEPT keeps at most the distinct left rows; INTERSECT at most
    // min(left, right) — approximate with half the bound (no overlap
    // statistics are available across arbitrary arms).
    double bound = op->kind == LogicalOpKind::kExcept
                       ? left.stats.rows
                       : std::min(left.stats.rows, right.stats.rows);
    out.stats.rows = std::max(bound > 0 ? 1.0 : 0.0, bound / 2.0);
    for (const plan::OutputCol& c : op->proj_cols) {
      stats::ColumnStatsView view;
      view.ndv = std::max(1.0, out.stats.rows / 2.0);
      out.stats.columns[c.id] = view;
    }
    out.cost = left.cost + right.cost +
               model_.HashAggregate(left.stats.rows + right.stats.rows,
                                    out.stats.rows);
    out.plan = exec::MakeSetOpExec(op->kind == LogicalOpKind::kExcept
                                       ? exec::PhysOpKind::kHashExcept
                                       : exec::PhysOpKind::kHashIntersect,
                                   left.plan, right.plan, op->proj_cols);
    Annotate(&out);
    return out;
  }

  Result<Planned> PlanLimit(const LogicalPtr& op) {
    QOPT_ASSIGN_OR_RETURN(Planned child, Plan(op->children[0], {}));
    Planned out;
    out.stats = child.stats;
    out.stats.rows =
        std::min(out.stats.rows, static_cast<double>(op->limit));
    out.cost = child.cost;
    out.plan = exec::MakeLimitExec(child.plan, op->limit);
    Annotate(&out);
    return out;
  }

  static bool PhysOrderSatisfies(const std::vector<SortKey>& have,
                                 const std::vector<SortKey>& need) {
    if (need.size() > have.size()) return false;
    for (size_t i = 0; i < need.size(); ++i) {
      if (!(have[i] == need[i])) return false;
    }
    return true;
  }

  void Annotate(Planned* p) {
    p->plan->est_rows = p->stats.rows;
    p->plan->est_cost = p->cost;
  }

  const Catalog& catalog_;
  const OptimizerOptions& options_;
  const cost::CostModel& model_;
  OptimizeInfo* info_;
  const ResourceGovernor* governor_ = nullptr;
  OptTrace* trace_ = nullptr;
  bool degraded_ = false;
  std::string degraded_reason_;
};

}  // namespace

Result<exec::PhysPtr> Optimizer::Optimize(const LogicalPtr& root,
                                          int* next_rel_id,
                                          OptimizeInfo* info,
                                          const ResourceGovernor* governor) {
  OptimizeInfo local_info;
  if (info == nullptr) info = &local_info;
  OptTrace* trace = info->trace.get();
  if (governor != nullptr) {
    QOPT_RETURN_IF_ERROR(governor->CheckDeadline());
  }

  std::vector<LogicalPtr> candidates;
  if (options_.enable_rewrites) {
    RewriteResult rr = RuleEngine::Default().Rewrite(
        root->Clone(), catalog_, next_rel_id, /*budget=*/256, trace);
    info->rewrite_applications = rr.applications;
    candidates.push_back(rr.plan);
    if (options_.use_alternatives) {
      for (LogicalPtr& alt : rr.alternatives) {
        candidates.push_back(std::move(alt));
      }
    }
  } else {
    candidates.push_back(root);
  }
  info->alternatives_considered = static_cast<int>(candidates.size()) - 1;

  PlannerImpl planner(catalog_, options_, model_, info, governor, trace);
  exec::PhysPtr best;
  double best_cost = 0;
  Status first_error = Status::OK();
  for (size_t i = 0; i < candidates.size(); ++i) {
    planner.ResetDegraded();
    if (trace != nullptr) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "planning candidate %zu of %zu%s", i + 1,
                    candidates.size(), i == 0 ? " (canonical)" : "");
      trace->Add("opt", buf);
    }
    Result<Planned> planned = planner.Plan(candidates[i], {});
    if (!planned.ok()) {
      if (first_error.ok()) first_error = planned.status();
      // A cancelled query will not plan any candidate; stop immediately.
      if (planned.status().code() == StatusCode::kCancelled) break;
      continue;
    }
    double total = planned->cost.total();
    if (trace != nullptr) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "candidate %zu cost=%.1f%s", i + 1,
                    total, (!best || total < best_cost) ? " (new best)" : "");
      trace->Add("opt", buf);
    }
    if (!best || total < best_cost) {
      best = planned->plan;
      best_cost = total;
      info->alternative_chosen = i > 0;
      info->degraded = planner.degraded();
      info->degraded_reason = planner.degraded_reason();
    }
  }
  if (!best) {
    return first_error.ok() ? Status::Internal("no plan produced")
                            : first_error;
  }
  info->chosen_cost = best_cost;
  if (trace != nullptr) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "chosen cost=%.1f (%s)", best_cost,
                  info->alternative_chosen ? "cost-based alternative"
                                           : "canonical plan");
    trace->Add("opt", buf);
  }
  // Every enumerator, the plan cache and parametric plans take their plans
  // from here, so this is the one place scans are narrowed to the columns
  // the plan reads.
  return exec::PruneColumns(best);
}

}  // namespace qopt::opt

namespace qopt::opt {

const char* PlanCacheOutcomeName(PlanCacheInfo::Outcome outcome) {
  switch (outcome) {
    case PlanCacheInfo::Outcome::kBypass:
      return "bypass";
    case PlanCacheInfo::Outcome::kMiss:
      return "miss";
    case PlanCacheInfo::Outcome::kHit:
      return "hit";
    case PlanCacheInfo::Outcome::kHitParametric:
      return "hit-parametric";
    case PlanCacheInfo::Outcome::kInvalidated:
      return "invalidated";
  }
  return "?";
}

}  // namespace qopt::opt
