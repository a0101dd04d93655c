#include <chrono>

#include "engine/thread_pool.h"
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

namespace {

/// Moves the live rows of `*b`, in selection order, into
/// out[0 .. b->ActiveSize()). The one per-batch row build of ExecuteAll,
/// streaming or pooled.
void MaterializeBatch(RowBatch* b, Row* out) {
  for (size_t k = 0; k < b->ActiveSize(); ++k) b->StealActive(k, &out[k]);
}

/// Builds the rows of `batches` (non-empty, in drain order) into `*rows`
/// on `pool`: presizes `*rows`, then min(dop, batches) tasks each take a
/// contiguous batch range holding about an equal share of the rows, move
/// its rows into their final slots and free each batch once it is empty.
void MaterializeOnPool(std::vector<RowBatch>* batches, ThreadPool* pool,
                       size_t dop, std::vector<Row>* rows) {
  // first_row[i]: the result slot of batch i's first row.
  std::vector<size_t> first_row(batches->size() + 1, 0);
  for (size_t i = 0; i < batches->size(); ++i) {
    first_row[i + 1] = first_row[i] + (*batches)[i].ActiveSize();
  }
  const size_t total = first_row.back();
  rows->resize(total);
  const size_t tasks = std::min(dop, batches->size());
  // Task t takes the batches whose first row falls in
  // [t * total / tasks, (t + 1) * total / tasks).
  auto range_begin = [&](size_t t) {
    return static_cast<size_t>(
        std::lower_bound(first_row.begin(), first_row.end() - 1,
                         t * total / tasks) -
        first_row.begin());
  };
  pool->ParallelFor(tasks, [&](size_t t) {
    for (size_t i = range_begin(t), end = range_begin(t + 1); i < end; ++i) {
      MaterializeBatch(&(*batches)[i], rows->data() + first_row[i]);
      (*batches)[i] = RowBatch();
    }
  });
}

}  // namespace

Result<std::vector<Row>> ExecuteAll(const PhysPtr& plan, ExecContext* ctx) {
  // A zero deadline must cancel even a query too small to reach a
  // cooperative tick, so check once unconditionally up front.
  if (ctx->governor != nullptr) {
    QOPT_RETURN_IF_ERROR(ctx->governor->CheckDeadline());
  }
  std::unique_ptr<Executor> exec = BuildExecutor(plan, ctx);
  exec->Init();
  if (ctx->Failed()) return ctx->status;
  // With a pool, each charged batch is kept (BufferBatch) and the rows are
  // built on the pool once the drain is done; without one, each batch's
  // rows are built as it arrives.
  const bool pooled = ctx->pool != nullptr && ctx->dop > 1;
  const uint64_t row_bytes = ModeledRowBytes(plan->output_cols.size());
  std::vector<Row> rows;
  std::vector<RowBatch> kept;
  // Runs `build` and, when the histogram is wired, adds its wall time to
  // `materialize_ns` (no clock reads otherwise: row mode runs this per row).
  uint64_t materialize_ns = 0;
  auto timed = [&](auto&& build) {
    if (ctx->materialize_ns == nullptr) return build();
    const auto t0 = std::chrono::steady_clock::now();
    build();
    materialize_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };
  RowBatch batch;
  while (exec->NextBatch(&batch)) {
    const size_t n = batch.ActiveSize();
    if (n == 0) continue;
    if (!ctx->GovernorCharge(n, n * row_bytes)) break;
    timed([&] {
      if (pooled) {
        BufferBatch(&batch, &kept);
      } else {
        rows.resize(rows.size() + n);
        MaterializeBatch(&batch, rows.data() + rows.size() - n);
      }
    });
  }
  if (ctx->Failed()) return ctx->status;
  if (!kept.empty()) {
    timed([&] { MaterializeOnPool(&kept, ctx->pool, ctx->dop, &rows); });
  }
  if (ctx->materialize_ns != nullptr) {
    ctx->materialize_ns->Record(materialize_ns);
  }
  return rows;
}

}  // namespace qopt::exec
