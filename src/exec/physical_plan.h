// Physical operator trees — execution plans (paper Figure 1).
//
// A PhysicalPlan node names a concrete algorithm (physical operator) plus
// its parameters; the executor builder turns a tree of them into a Volcano
// iterator tree. Optimizers annotate nodes with estimated cost, estimated
// cardinality and output ordering (the "physical property" of §3).
#ifndef QOPT_EXEC_PHYSICAL_PLAN_H_
#define QOPT_EXEC_PHYSICAL_PLAN_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cost/cost_model.h"
#include "exec/expr_cache.h"
#include "plan/logical_plan.h"

namespace qopt::exec {

/// Physical operator kinds.
enum class PhysOpKind {
  kTableScan,
  kIndexScan,
  kFilter,
  kProject,
  kNestedLoopJoin,
  kIndexNestedLoopJoin,
  kMergeJoin,
  kHashJoin,
  kSort,
  kHashAggregate,
  kStreamAggregate,  ///< Requires input sorted on the grouping columns.
  kDistinct,
  kLimit,
  kApply,  ///< Tuple-iteration correlated subquery (the naive baseline).
  kUnionAll,  ///< Bag concatenation (positional).
  kHashExcept,     ///< Distinct left rows absent from the right input.
  kHashIntersect,  ///< Distinct left rows present in the right input.
};

const char* PhysOpKindName(PhysOpKind kind);

/// Bound of an index range scan.
struct ScanBound {
  Value value;
  bool inclusive = true;
  /// Parameter slot the bound value came from (see plan::BoundExpr), or -1
  /// when it is a fixed constant or was tightened from several predicates
  /// (in which case rebinding it alone would be unsound).
  int param_index = -1;
  /// Parameter slots of predicates that contributed to this bound but whose
  /// value is no longer individually recoverable (the bound kept only the
  /// tightest contributor and the losers were dropped from the residual
  /// filter). A plan whose bound absorbed slot k cannot be rebound on k.
  std::vector<int> absorbed_params;
};

struct PhysicalPlan;
using PhysPtr = std::shared_ptr<PhysicalPlan>;

/// Per-node annotation strings appended to the rendered plan — EXPLAIN
/// ANALYZE attaches runtime stats (act_rows, q-error, timings) this way so
/// the plan tree itself stays free of execution state.
using PlanAnnotations = std::unordered_map<const PhysicalPlan*, std::string>;

/// A physical plan node.
struct PhysicalPlan {
  PhysOpKind kind = PhysOpKind::kTableScan;
  std::vector<PhysPtr> children;
  std::vector<plan::OutputCol> output_cols;

  // Scans.
  int table_id = -1;
  int rel_id = -1;
  std::string alias;
  int index_id = -1;
  std::optional<ScanBound> lo;  ///< kIndexScan range bounds.
  std::optional<ScanBound> hi;

  /// Partition pruning (kTableScan over a partitioned table): the surviving
  /// partition indexes and the table's total partition count. Empty
  /// `partitions` with total_partitions == 0 means "unpartitioned / no
  /// pruning applied" (scan everything); total_partitions > 0 means only
  /// the listed partitions' row ranges are scanned.
  std::vector<int> partitions;
  int total_partitions = 0;

  /// Residual predicate (scan filter, join residual, or kFilter predicate).
  plan::BExpr predicate;

  // Joins.
  plan::JoinType join_type = plan::JoinType::kInner;
  ColumnId left_key;    ///< Equi-join key (merge/hash/index-NL joins).
  ColumnId right_key;

  // Apply.
  plan::ApplyType apply_type = plan::ApplyType::kSemi;
  std::set<ColumnId> correlated_cols;
  ColumnId scalar_output;
  TypeId scalar_type = TypeId::kNull;

  // Project.
  std::vector<plan::BExpr> proj_exprs;

  // Aggregate.
  std::vector<ColumnId> group_by;
  std::vector<plan::AggItem> aggs;

  // Sort.
  std::vector<plan::SortKey> sort_keys;

  // Limit.
  int64_t limit = -1;

  // Optimizer annotations.
  cost::Cost est_cost;          ///< Cumulative estimated cost of subtree.
  double est_rows = 0;          ///< Estimated output cardinality.
  std::vector<plan::SortKey> output_order;  ///< Known ordering, if any.

  /// Compiled expression programs for this node, keyed by expression slot
  /// (exec::expr::ExprSlot). Mutable because compilation is lazy (first
  /// execution) while cached plans are shared as const; the cache is
  /// internally synchronized, and copying a plan (parameter rebinding)
  /// starts the copy empty.
  mutable expr::PlanExprCache expr_cache;

  /// Position of ColumnId `id` in this node's output row, or -1.
  int FindOutput(ColumnId id) const;

  /// Indented rendering including cost annotations (EXPLAIN). When
  /// `batch_nodes` is given (see exec::BatchModeNodes), operators that run
  /// at full batch capacity under batch execution mode are marked
  /// "[batch]"; when `parallel_roots` is given (see
  /// exec::ParallelRegionRoots), the roots of morsel-parallel regions are
  /// marked "[parallel]" instead. When `annotations` is given, a node's
  /// entry (if any) is appended verbatim after the cost annotation
  /// (EXPLAIN ANALYZE runtime stats).
  std::string ToString(
      int indent = 0,
      const std::unordered_set<const PhysicalPlan*>* batch_nodes = nullptr,
      const std::unordered_set<const PhysicalPlan*>* parallel_roots = nullptr,
      const PlanAnnotations* annotations = nullptr) const;
};

PhysPtr MakeTableScan(int table_id, int rel_id, std::string alias,
                      std::vector<plan::OutputCol> cols, plan::BExpr filter);
PhysPtr MakeIndexScan(int table_id, int rel_id, std::string alias,
                      std::vector<plan::OutputCol> cols, int index_id,
                      std::optional<ScanBound> lo, std::optional<ScanBound> hi,
                      plan::BExpr filter);
PhysPtr MakeFilterExec(PhysPtr child, plan::BExpr predicate);
PhysPtr MakeProjectExec(PhysPtr child, std::vector<plan::BExpr> exprs,
                        std::vector<plan::OutputCol> cols);
/// Generic-predicate nested-loop join (any join type).
PhysPtr MakeNestedLoopJoin(plan::JoinType type, PhysPtr left, PhysPtr right,
                           plan::BExpr predicate);
/// Index nested-loop join: right child must be an index scan without bounds;
/// each left row probes the index at `left_key`.
PhysPtr MakeIndexNLJoin(plan::JoinType type, PhysPtr left, PhysPtr right,
                        ColumnId left_key, ColumnId right_key,
                        plan::BExpr residual);
PhysPtr MakeMergeJoin(plan::JoinType type, PhysPtr left, PhysPtr right,
                      ColumnId left_key, ColumnId right_key,
                      plan::BExpr residual);
PhysPtr MakeHashJoin(plan::JoinType type, PhysPtr left, PhysPtr right,
                     ColumnId left_key, ColumnId right_key,
                     plan::BExpr residual);
PhysPtr MakeSortExec(PhysPtr child, std::vector<plan::SortKey> keys);
PhysPtr MakeHashAggregate(PhysPtr child, std::vector<ColumnId> group_by,
                          std::vector<plan::AggItem> aggs,
                          std::vector<plan::OutputCol> cols);
PhysPtr MakeStreamAggregate(PhysPtr child, std::vector<ColumnId> group_by,
                            std::vector<plan::AggItem> aggs,
                            std::vector<plan::OutputCol> cols);
PhysPtr MakeDistinctExec(PhysPtr child);
PhysPtr MakeLimitExec(PhysPtr child, int64_t limit);
PhysPtr MakeApplyExec(plan::ApplyType type, PhysPtr left, PhysPtr right,
                      plan::BExpr predicate, std::set<ColumnId> correlated,
                      ColumnId scalar_output, TypeId scalar_type);
/// UNION ALL: concatenates children positionally, exposing `cols`.
PhysPtr MakeUnionAllExec(std::vector<PhysPtr> children,
                         std::vector<plan::OutputCol> cols);
/// EXCEPT / INTERSECT via a hash set of the right input (set semantics).
PhysPtr MakeSetOpExec(PhysOpKind kind, PhysPtr left, PhysPtr right,
                      std::vector<plan::OutputCol> cols);

/// A scan-predicate conjunct `column <op> non-null constant` over a column
/// of the scan's own relation. The scan checks these against the storage
/// row before copying anything (its prefilter), so a column read only by
/// them is never emitted.
struct ScanPrefilter {
  ColumnId column;  ///< column.col is the storage position.
  TypeId type = TypeId::kNull;  ///< Type of the bound column expression.
  ast::BinaryOp op = ast::BinaryOp::kEq;  ///< Normalized column-on-left.
  Value constant;
};

/// True iff `conjunct` is a prefilter of a scan over relation `rel_id`;
/// fills `*out` when it is.
bool MatchScanPrefilter(const plan::BExpr& conjunct, int rel_id,
                        ScanPrefilter* out);

/// Column pruning, run once on the optimizer's chosen plan: returns a copy
/// of `root` in which every table and index scan emits only the columns
/// some operator above it reads (predicates other than the scan's own
/// prefilters, projections, join keys, grouping and aggregate arguments,
/// sort keys, Apply's correlated and scalar columns, the root's output, and
/// every input column of UnionAll, HashExcept, HashIntersect and Distinct).
/// Pass-through operators (Filter, Sort, Limit, Distinct, joins, Apply)
/// get their output columns rebuilt from the pruned children. The root's
/// output columns are unchanged.
PhysPtr PruneColumns(const PhysPtr& root);

}  // namespace qopt::exec

#endif  // QOPT_EXEC_PHYSICAL_PLAN_H_
