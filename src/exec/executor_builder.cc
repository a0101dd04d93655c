#include "exec/executors_internal.h"

namespace qopt::exec {

namespace {

/// The column-at-a-time operators, marked [batch] by EXPLAIN. Every
/// operator produces batches; these also evaluate them a column at a time.
bool BatchSupported(PhysOpKind kind) {
  switch (kind) {
    case PhysOpKind::kTableScan:
    case PhysOpKind::kIndexScan:
    case PhysOpKind::kFilter:
    case PhysOpKind::kProject:
    case PhysOpKind::kHashJoin:
      return true;
    default:
      return false;
  }
}

// Capacity-1 rule. A full batch reads ahead of its consumer, which is
// invisible to results but NOT to ExecStats when (a) the consumer can stop
// early without draining the input, or (b) another operator's page touches
// interleave with the subtree's own (read-ahead would reorder the shared
// LRU buffer pool's access sequence). Every operator below the following
// therefore runs at batch capacity 1, and no parallel region starts there:
//   - Apply: tuple-iteration semantics — the inner subtree is rebound and
//     re-executed per outer row and short-circuits on semi/anti matches,
//     and its page touches interleave with the outer scan's.
//   - IndexNestedLoopJoin: the right child is consumed as an index, and
//     per-outer-row probe touches interleave with the outer stream.
//   - Limit: early termination must not over-read the input.
bool ChildrenRunAtCapacityOne(PhysOpKind kind) {
  return kind == PhysOpKind::kApply ||
         kind == PhysOpKind::kIndexNestedLoopJoin ||
         kind == PhysOpKind::kLimit;
}

/// A node is a parallel region root when it is eligible itself (see
/// internal::ParallelEligible) or is a hash aggregate directly over an
/// eligible pipeline — partial aggregation with a merge at the gather
/// barrier. Aggregates deeper inside a region are not parallelized (their
/// subtree simply isn't eligible), so a region root is always the highest
/// such node on its path.
bool IsParallelRegionRoot(const PhysicalPlan& plan) {
  if (internal::ParallelEligible(plan)) return true;
  return plan.kind == PhysOpKind::kHashAggregate &&
         internal::ParallelEligible(*plan.children[0]);
}

/// Collects maximal parallel-eligible subtree roots top-down, outside the
/// capacity-1 subtrees. Does not descend into a region: everything below
/// the root belongs to the gather.
void CollectParallelRoots(const PhysPtr& plan, bool allow,
                          std::unordered_set<const PhysicalPlan*>* out) {
  if (allow && IsParallelRegionRoot(*plan)) {
    out->insert(plan.get());
    return;
  }
  bool child_allow = allow && !ChildrenRunAtCapacityOne(plan->kind);
  for (const PhysPtr& c : plan->children) {
    CollectParallelRoots(c, child_allow, out);
  }
}

void CollectBatchNodes(const PhysPtr& plan, bool allow,
                       std::unordered_set<const PhysicalPlan*>* out) {
  if (allow && BatchSupported(plan->kind)) out->insert(plan.get());
  bool child_allow = allow && !ChildrenRunAtCapacityOne(plan->kind);
  for (const PhysPtr& c : plan->children) {
    CollectBatchNodes(c, child_allow, out);
  }
}

/// Builds the executor for `plan`'s own operator, its children through
/// Build (at capacity 1 below Apply, index nested-loops and Limit).
std::unique_ptr<Executor> BuildNode(
    const PhysPtr& plan, ExecContext* ctx, bool full,
    const std::unordered_set<const PhysicalPlan*>& parallel_roots);

/// Builds `plan` at batch capacity ctx->batch_capacity when `full`, else 1.
std::unique_ptr<Executor> Build(
    const PhysPtr& plan, ExecContext* ctx, bool full,
    const std::unordered_set<const PhysicalPlan*>& parallel_roots) {
  std::unique_ptr<Executor> exec = BuildNode(plan, ctx, full, parallel_roots);
  exec->set_batch_capacity(full ? ctx->batch_capacity : 1);
  return exec;
}

std::unique_ptr<Executor> BuildNode(
    const PhysPtr& plan, ExecContext* ctx, bool full,
    const std::unordered_set<const PhysicalPlan*>& parallel_roots) {
  using namespace internal;

  if (parallel_roots.count(plan.get()) > 0) {
    return NewParallelGatherExec(plan, ctx);
  }
  const bool child_full = full && !ChildrenRunAtCapacityOne(plan->kind);
  auto child = [&](size_t i) {
    return Build(plan->children[i], ctx, child_full, parallel_roots);
  };
  switch (plan->kind) {
    case PhysOpKind::kTableScan:
    case PhysOpKind::kIndexScan:
      return NewBatchScanExec(plan.get(), ctx);
    case PhysOpKind::kFilter:
      return NewBatchFilterExec(plan.get(), ctx, child(0));
    case PhysOpKind::kProject:
      return NewBatchProjectExec(plan.get(), ctx, child(0));
    case PhysOpKind::kSort:
      return NewSortExec(plan.get(), ctx, child(0));
    case PhysOpKind::kDistinct:
      return NewDistinctExec(plan.get(), ctx, child(0));
    case PhysOpKind::kLimit:
      return NewLimitExec(plan.get(), ctx, child(0));
    case PhysOpKind::kHashJoin:
      return NewBatchHashJoinExec(plan.get(), ctx, child(0), child(1));
    case PhysOpKind::kNestedLoopJoin:
    case PhysOpKind::kIndexNestedLoopJoin:
    case PhysOpKind::kMergeJoin:
      return NewJoinExec(plan.get(), ctx, child(0), child(1));
    case PhysOpKind::kApply:
      return NewApplyExec(plan.get(), ctx, child(0), child(1));
    case PhysOpKind::kHashAggregate:
    case PhysOpKind::kStreamAggregate:
      return NewAggregateExec(plan.get(), ctx, child(0));
    case PhysOpKind::kUnionAll: {
      std::vector<std::unique_ptr<Executor>> children;
      for (size_t i = 0; i < plan->children.size(); ++i) {
        children.push_back(child(i));
      }
      return NewUnionAllExec(plan.get(), ctx, std::move(children));
    }
    case PhysOpKind::kHashExcept:
    case PhysOpKind::kHashIntersect:
      return NewHashSetOpExec(plan.get(), ctx, child(0), child(1));
  }
  QOPT_DCHECK(false);
  return nullptr;
}

}  // namespace

std::unordered_set<const PhysicalPlan*> BatchModeNodes(const PhysPtr& plan) {
  std::unordered_set<const PhysicalPlan*> nodes;
  CollectBatchNodes(plan, true, &nodes);
  return nodes;
}

std::unordered_set<const PhysicalPlan*> ParallelRegionRoots(
    const PhysPtr& plan) {
  std::unordered_set<const PhysicalPlan*> roots;
  CollectParallelRoots(plan, true, &roots);
  return roots;
}

std::unique_ptr<Executor> BuildExecutor(const PhysPtr& plan,
                                        ExecContext* ctx) {
  std::unordered_set<const PhysicalPlan*> parallel_roots;
  if (ctx->mode == ExecMode::kParallel && ctx->dop > 1) {
    parallel_roots = ParallelRegionRoots(plan);
  }
  return Build(plan, ctx, /*full=*/ctx->mode != ExecMode::kRow,
               parallel_roots);
}

namespace internal {

std::unique_ptr<Executor> BuildBatchTree(const PhysPtr& plan,
                                         ExecContext* ctx) {
  return Build(plan, ctx, /*full=*/true, {});
}

}  // namespace internal

Result<std::vector<Row>> ExecuteAll(const PhysPtr& plan, ExecContext* ctx) {
  // A zero deadline must cancel even a query too small to reach a
  // cooperative tick, so check once unconditionally up front.
  if (ctx->governor != nullptr) {
    QOPT_RETURN_IF_ERROR(ctx->governor->CheckDeadline());
  }
  std::unique_ptr<Executor> exec = BuildExecutor(plan, ctx);
  exec->Init();
  std::vector<Row> rows;
  if (ctx->Failed()) return ctx->status;
  RowBatch batch;
  while (exec->NextBatch(&batch)) {
    size_t n = batch.ActiveSize();
    if (n == 0) continue;
    if (!ctx->GovernorCharge(n,
                             n * ModeledRowBytes(plan->output_cols.size()))) {
      break;
    }
    for (size_t k = 0; k < n; ++k) {
      Row r;
      batch.StealActive(k, &r);
      rows.push_back(std::move(r));
    }
  }
  if (ctx->Failed()) return ctx->status;
  return rows;
}

}  // namespace qopt::exec
