#include "exec/executors_internal.h"
#include "testing/fault_injection.h"

namespace qopt::exec {

// Default row-to-batch adapter: any operator can feed a batch consumer.
// Pulls via NextImpl() — the adapter runs inside this operator's own
// instrumented NextBatch() dispatch, so going through Next() would count
// every row twice.
bool Executor::NextBatchImpl(RowBatch* out) {
  QOPT_FAULT_POINT_CTX("exec.batch.alloc", ctx_, false);
  out->Reset(plan_->output_cols.size(), ctx_->batch_capacity);
  Row r;
  while (!out->full() && NextImpl(&r)) out->AppendRow(std::move(r));
  return out->num_rows() > 0 && !ctx_->Failed();
}

namespace {

/// Operators with a vectorized implementation.
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

/// Collects maximal parallel-eligible subtree roots top-down, under the
/// same row-mode fallback rules as CollectBatchNodes (no parallel region
/// beneath Apply, index nested-loops, or Limit). Does not descend into a
/// region: everything below the root belongs to the gather.
void CollectParallelRoots(const PhysPtr& plan, bool allow,
                          std::unordered_set<const PhysicalPlan*>* out) {
  if (allow && IsParallelRegionRoot(*plan)) {
    out->insert(plan.get());
    return;
  }
  bool child_allow = allow;
  switch (plan->kind) {
    case PhysOpKind::kApply:
    case PhysOpKind::kIndexNestedLoopJoin:
    case PhysOpKind::kLimit:
      child_allow = false;
      break;
    default:
      break;
  }
  for (const PhysPtr& c : plan->children) {
    CollectParallelRoots(c, child_allow, out);
  }
}

// Row-mode fallback rules. Batch operators read ahead up to a full batch,
// which is invisible to results but NOT to ExecStats when (a) the consumer
// can stop early without draining the input, or (b) another operator's
// page touches interleave with the subtree's own (read-ahead would reorder
// the shared LRU buffer pool's access sequence). Subtrees rooted under the
// following therefore run row-at-a-time:
//   - Apply: tuple-iteration semantics — the inner subtree is rebound and
//     re-executed per outer row and short-circuits on semi/anti matches,
//     and its page touches interleave with the outer scan's.
//   - IndexNestedLoopJoin: the right child is consumed as an index, and
//     per-outer-row probe touches interleave with the outer stream.
//   - Limit: early termination must not over-read the input.
void CollectBatchNodes(const PhysPtr& plan, bool allow,
                       std::unordered_set<const PhysicalPlan*>* out) {
  if (allow && BatchSupported(plan->kind)) out->insert(plan.get());
  bool child_allow = allow;
  switch (plan->kind) {
    case PhysOpKind::kApply:
    case PhysOpKind::kIndexNestedLoopJoin:
    case PhysOpKind::kLimit:
      child_allow = false;
      break;
    default:
      break;
  }
  for (const PhysPtr& c : plan->children) {
    CollectBatchNodes(c, child_allow, out);
  }
}

std::unique_ptr<Executor> Build(
    const PhysPtr& plan, ExecContext* ctx,
    const std::unordered_set<const PhysicalPlan*>& batch_nodes,
    const std::unordered_set<const PhysicalPlan*>& parallel_roots) {
  using namespace internal;

  if (parallel_roots.count(plan.get()) > 0) {
    return NewParallelGatherExec(plan, ctx);
  }
  bool batch = batch_nodes.count(plan.get()) > 0;
  switch (plan->kind) {
    case PhysOpKind::kTableScan:
    case PhysOpKind::kIndexScan:
      return batch ? NewBatchScanExec(plan.get(), ctx)
                   : NewScanExec(plan.get(), ctx);
    case PhysOpKind::kFilter: {
      auto child = Build(plan->children[0], ctx, batch_nodes, parallel_roots);
      return batch ? NewBatchFilterExec(plan.get(), ctx, std::move(child))
                   : NewFilterExec(plan.get(), ctx, std::move(child));
    }
    case PhysOpKind::kProject: {
      auto child = Build(plan->children[0], ctx, batch_nodes, parallel_roots);
      return batch ? NewBatchProjectExec(plan.get(), ctx, std::move(child))
                   : NewProjectExec(plan.get(), ctx, std::move(child));
    }
    case PhysOpKind::kSort:
      return NewSortExec(plan.get(), ctx,
                         Build(plan->children[0], ctx, batch_nodes, parallel_roots));
    case PhysOpKind::kDistinct:
      return NewDistinctExec(plan.get(), ctx,
                             Build(plan->children[0], ctx, batch_nodes, parallel_roots));
    case PhysOpKind::kLimit:
      return NewLimitExec(plan.get(), ctx,
                          Build(plan->children[0], ctx, batch_nodes, parallel_roots));
    case PhysOpKind::kHashJoin:
      if (batch) {
        return NewBatchHashJoinExec(plan.get(), ctx,
                                    Build(plan->children[0], ctx, batch_nodes, parallel_roots),
                                    Build(plan->children[1], ctx, batch_nodes, parallel_roots));
      }
      [[fallthrough]];
    case PhysOpKind::kNestedLoopJoin:
    case PhysOpKind::kIndexNestedLoopJoin:
    case PhysOpKind::kMergeJoin:
      return NewJoinExec(plan.get(), ctx,
                         Build(plan->children[0], ctx, batch_nodes, parallel_roots),
                         Build(plan->children[1], ctx, batch_nodes, parallel_roots));
    case PhysOpKind::kApply:
      return NewApplyExec(plan.get(), ctx,
                          Build(plan->children[0], ctx, batch_nodes, parallel_roots),
                          Build(plan->children[1], ctx, batch_nodes, parallel_roots));
    case PhysOpKind::kHashAggregate:
    case PhysOpKind::kStreamAggregate:
      return NewAggregateExec(plan.get(), ctx,
                              Build(plan->children[0], ctx, batch_nodes, parallel_roots));
    case PhysOpKind::kUnionAll: {
      std::vector<std::unique_ptr<Executor>> children;
      for (const PhysPtr& c : plan->children) {
        children.push_back(Build(c, ctx, batch_nodes, parallel_roots));
      }
      return NewUnionAllExec(plan.get(), ctx, std::move(children));
    }
    case PhysOpKind::kHashExcept:
    case PhysOpKind::kHashIntersect:
      return NewHashSetOpExec(plan.get(), ctx,
                              Build(plan->children[0], ctx, batch_nodes, parallel_roots),
                              Build(plan->children[1], ctx, batch_nodes, parallel_roots));
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
  std::unordered_set<const PhysicalPlan*> batch_nodes;
  std::unordered_set<const PhysicalPlan*> parallel_roots;
  if (ctx->mode != ExecMode::kRow) batch_nodes = BatchModeNodes(plan);
  if (ctx->mode == ExecMode::kParallel) {
    parallel_roots = ParallelRegionRoots(plan);
  }
  return Build(plan, ctx, batch_nodes, parallel_roots);
}

namespace internal {

std::unique_ptr<Executor> BuildBatchTree(const PhysPtr& plan,
                                         ExecContext* ctx) {
  return Build(plan, ctx, BatchModeNodes(plan), {});
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
  if (ctx->mode != ExecMode::kRow) {
    RowBatch batch;
    while (exec->NextBatch(&batch)) {
      size_t n = batch.ActiveSize();
      if (!ctx->GovernorCharge(n, n * (16 + 24 * plan->output_cols.size()))) {
        break;
      }
      for (size_t k = 0; k < n; ++k) {
        Row r;
        batch.StealActive(k, &r);
        rows.push_back(std::move(r));
      }
    }
  } else {
    Row r;
    while (exec->Next(&r)) {
      if (!ctx->GovernorCharge(1, ModeledRowBytes(r))) break;
      rows.push_back(std::move(r));
    }
  }
  if (ctx->Failed()) return ctx->status;
  return rows;
}

}  // namespace qopt::exec
