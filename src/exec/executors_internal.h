// Internal factories connecting the executor builder to the per-family
// implementation files. Not part of the public API.
#ifndef QOPT_EXEC_EXECUTORS_INTERNAL_H_
#define QOPT_EXEC_EXECUTORS_INTERNAL_H_

#include <algorithm>
#include <cstddef>
#include <memory>

#include "exec/executors.h"

namespace qopt::exec::internal {

/// Container pre-size hint from a plan node's cardinality estimate, so hash
/// tables and build-side buffers skip their doubling-rehash ramp-up. Clamped
/// so a wild estimate cannot pre-allocate unbounded memory; 0 (no estimate)
/// leaves the container to grow organically.
inline size_t ReserveHint(double est_rows, size_t cap = 1u << 20) {
  if (!(est_rows > 0)) return 0;
  return std::min(cap, static_cast<size_t>(est_rows));
}

/// Reads a child executor's rows one at a time, a batch at a time beneath:
/// how the operators that work row by row (Apply, the streaming aggregate,
/// sort, set operations) consume their inputs. The rows are moved out of
/// the child's batch, so each is read once.
class ChildCursor {
 public:
  explicit ChildCursor(Executor* child) : child_(child) {}

  /// Forgets the buffered batch; call after (re)initializing the child.
  void Reset() {
    batch_.Reset(0, 0);
    pos_ = 0;
  }

  /// Moves the child's next live row into `*out`; false at end of stream.
  bool NextRow(Row* out) {
    while (pos_ >= batch_.ActiveSize()) {
      if (!child_->NextBatch(&batch_)) return false;
      pos_ = 0;
    }
    batch_.StealActive(pos_++, out);
    return true;
  }

 private:
  Executor* child_;
  RowBatch batch_;
  size_t pos_ = 0;
};

std::unique_ptr<Executor> NewSortExec(const PhysicalPlan* plan,
                                      ExecContext* ctx,
                                      std::unique_ptr<Executor> child);
std::unique_ptr<Executor> NewDistinctExec(const PhysicalPlan* plan,
                                          ExecContext* ctx,
                                          std::unique_ptr<Executor> child);
std::unique_ptr<Executor> NewLimitExec(const PhysicalPlan* plan,
                                       ExecContext* ctx,
                                       std::unique_ptr<Executor> child);
std::unique_ptr<Executor> NewApplyExec(const PhysicalPlan* plan,
                                       ExecContext* ctx,
                                       std::unique_ptr<Executor> left,
                                       std::unique_ptr<Executor> right);
std::unique_ptr<Executor> NewAggregateExec(const PhysicalPlan* plan,
                                           ExecContext* ctx,
                                           std::unique_ptr<Executor> child);
std::unique_ptr<Executor> NewUnionAllExec(
    const PhysicalPlan* plan, ExecContext* ctx,
    std::vector<std::unique_ptr<Executor>> children);
std::unique_ptr<Executor> NewHashSetOpExec(const PhysicalPlan* plan,
                                           ExecContext* ctx,
                                           std::unique_ptr<Executor> left,
                                           std::unique_ptr<Executor> right);

// Column-at-a-time implementations; see batch_executors.cc and, for the
// binary joins (hash, nested loop, merge, index nested loop — one
// JoinExec), join_executors.cc. The only implementations of scan, filter,
// projection and join: the builder runs them at batch capacity 1 where
// read-ahead must not happen.
std::unique_ptr<Executor> NewBatchScanExec(const PhysicalPlan* plan,
                                           ExecContext* ctx);
std::unique_ptr<Executor> NewBatchFilterExec(const PhysicalPlan* plan,
                                             ExecContext* ctx,
                                             std::unique_ptr<Executor> child);
std::unique_ptr<Executor> NewBatchProjectExec(const PhysicalPlan* plan,
                                              ExecContext* ctx,
                                              std::unique_ptr<Executor> child);
std::unique_ptr<Executor> NewJoinExec(const PhysicalPlan* plan,
                                      ExecContext* ctx,
                                      std::unique_ptr<Executor> left,
                                      std::unique_ptr<Executor> right);

// Morsel-parallel building blocks; see parallel_executors.cc / DESIGN.md
// §3.8.
class MorselSource;
struct JoinBuildState;

/// Batch scan pulling page-aligned row ranges from a shared MorselSource
/// (kTableScan only).
std::unique_ptr<Executor> NewMorselScanExec(const PhysicalPlan* plan,
                                            ExecContext* ctx,
                                            MorselSource* morsels);

/// Hash-join probe over a pre-built shared JoinBuildState.
std::unique_ptr<Executor> NewBatchHashProbeExec(
    const PhysicalPlan* plan, ExecContext* ctx,
    std::unique_ptr<Executor> left, std::shared_ptr<JoinBuildState> state);

/// Gather operator running the region rooted at `plan` morsel-parallel
/// across ctx->dop workers.
std::unique_ptr<Executor> NewParallelGatherExec(const PhysPtr& plan,
                                                ExecContext* ctx);

/// Serial batch-mode executor tree over `plan` (the builder's kBatch rules
/// with no parallel regions); used by the gather for build sides that are
/// not parallel-eligible, and to rerun a region whose build crossed the
/// spill budget.
std::unique_ptr<Executor> BuildBatchTree(const PhysPtr& plan,
                                         ExecContext* ctx);

/// True if the subtree rooted at `plan` can run as (part of) a parallel
/// region: table-scan leaves, filters, projections, and hash joins whose
/// probe side is eligible (build sides may be anything — ineligible ones
/// are drained serially by the gather's build phase). Spill does not
/// enter: a build phase that crosses the spill budget abandons the
/// parallel attempt and the region reruns through BuildBatchTree, whose
/// hash joins spill at run time.
bool ParallelEligible(const PhysicalPlan& plan);

}  // namespace qopt::exec::internal

#endif  // QOPT_EXEC_EXECUTORS_INTERNAL_H_
