// Vectorized (batch-at-a-time) implementations of the hot physical
// operators: table/index scan, filter and projection here, and the one
// binary-join executor in join_executors.cc. They are the only
// implementations of these operators; every execution mode builds them, at
// the batch capacity the builder sets per executor.
//
// Each operator moves RowBatches instead of single Rows and evaluates
// expressions a column at a time, with no per-row virtual call and no
// per-row std::vector<Value> copy. Filters only shrink the batch's
// selection vector; projection and join output build compacted column
// vectors directly. Every other operator produces batches too (executors.h)
// but works on rows inside them.
//
// ExecStats exactness: operators count rows_scanned / rows_joined /
// index_lookups exactly and touch buffer-pool pages in row order, and no
// batch ever holds more than its capacity, so at capacity 1 they do exactly
// the work a row-at-a-time engine would, and at any capacity the counters
// match wherever the consumer drains its input (the builder runs every
// other subtree at capacity 1; the cost-model validation experiment E17
// depends on this). The only shortcut taken is coalescing *immediately
// adjacent* touches of the same data page during a table scan — a repeat
// touch of the page at the LRU front is a guaranteed hit and a no-op, so
// skipping the hash lookup preserves both the hit/miss accounting and the
// eviction order.
#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <unordered_map>

#include "exec/executors_internal.h"
#include "exec/expr_compile.h"
#include "exec/morsel.h"
#include "testing/fault_injection.h"

namespace qopt::exec::internal {

namespace {

/// Vectorized sequential / index-range scan with an optional residual
/// filter evaluated batch-at-a-time. With a MorselSource attached, the
/// sequential scan pulls page-aligned row ranges from the shared cursor
/// instead of walking the whole table — the parallel mode's morsel-driven
/// scan (index scans never run morsel-driven).
class BatchScanExec : public Executor {
 public:
  BatchScanExec(const PhysicalPlan* plan, ExecContext* ctx,
                MorselSource* morsels = nullptr)
      : Executor(plan, ctx), morsels_(morsels) {
    // Plans are column-pruned, so output position k copies storage
    // position storage_pos_[k].
    for (const plan::OutputCol& c : plan->output_cols) {
      QOPT_DCHECK(c.id.rel == plan->rel_id);
      storage_pos_.push_back(static_cast<size_t>(c.id.col));
    }
    SplitPredicate();
  }

  bool NextBatchImpl(RowBatch* out) override {
    if (ctx_->Failed()) return false;
    QOPT_FAULT_POINT_CTX("exec.batch.alloc", ctx_, false);
    size_t n = use_ids_ ? row_ids_.size() : table_->num_rows();
    if (morsels_ != nullptr) {
      // A batch never spans morsels: the page-run accounting below stays
      // within the claimed page-aligned range.
      if (pos_ >= limit_ && !morsels_->Next(&pos_, &limit_)) return false;
    } else if (use_ids_) {
      limit_ = n;
      if (pos_ >= n) return false;
    } else {
      // Sequential scan over the surviving partitions' row ranges (one
      // full-table range when unpartitioned or unpruned). A batch never
      // spans ranges.
      while (pos_ >= limit_) {
        if (range_idx_ >= ranges_.size()) return false;
        pos_ = ranges_[range_idx_].first;
        limit_ = ranges_[range_idx_].second;
        ++range_idx_;
      }
    }
    const size_t batch_start = pos_;
    out->Reset(plan_->output_cols.size(), batch_capacity_);
    double rows = std::max<double>(1.0, static_cast<double>(table_->num_rows()));
    if (!use_ids_) {
      // Sequential scan: touches of the same data page are immediately
      // adjacent, so a repeat touch is a guaranteed LRU-front hit and can
      // skip the pool; stats are bulk-incremented after the loop. Each
      // page run is read as chunks of rids narrowed by the
      // constant-comparison prefilter, so failing rows are never copied.
      // Page numbers are monotone in rid, so the page formula runs once
      // per page run (the exact boundary is found with the same per-row
      // formula), not once per row.
      double pages = table_->num_pages();
      auto page_of = [&](size_t rid) {
        return static_cast<uint64_t>(static_cast<double>(rid) * pages / rows);
      };
      size_t start = pos_;
      size_t run_end = pos_;  // forces page lookup on the first row
      uint64_t cur_page = 0;
      while (pos_ < limit_ && !out->full()) {
        if (pos_ >= run_end) {
          cur_page = page_of(pos_);
          if (ctx_->buffer_pool.Touch(
                  BufferPoolSim::DataPage(plan_->table_id, cur_page))) {
            ctx_->stats.modeled_pages_read += 1;
          }
          size_t hi = pages > 0
                          ? static_cast<size_t>(
                                static_cast<double>(cur_page + 1) * rows /
                                pages)
                          : limit_;
          hi = std::clamp(hi, pos_ + 1, limit_);
          while (hi < limit_ && page_of(hi) == cur_page) ++hi;
          while (hi > pos_ + 1 && page_of(hi - 1) != cur_page) --hi;
          run_end = hi;
        }
        // A chunk never holds more rows than the batch has room for, so the
        // batch fills on the same row as a row-at-a-time loop would.
        const size_t end = std::min(run_end, pos_ + Room(*out));
        rids_.resize(end - pos_);
        std::iota(rids_.begin(), rids_.end(), static_cast<uint32_t>(pos_));
        pos_ = end;
        EmitChunk(out);
      }
      ctx_->stats.page_touches += pos_ - start;
      ctx_->stats.rows_scanned += pos_ - start;
    } else {
      // Index scan: leaf and data pages interleave, so every touch goes
      // through the pool in row order.
      while (pos_ < n && !out->full()) {
        const size_t end = std::min(n, pos_ + Room(*out));
        rids_.assign(row_ids_.begin() + static_cast<ptrdiff_t>(pos_),
                     row_ids_.begin() + static_cast<ptrdiff_t>(end));
        for (; pos_ < end; ++pos_) {
          ctx_->TouchPage(BufferPoolSim::IndexPage(
              plan_->index_id, 1000 + pos_ / 256));
          ctx_->TouchPage(BufferPoolSim::DataPage(
              plan_->table_id,
              static_cast<uint64_t>(static_cast<double>(row_ids_[pos_]) *
                                    table_->num_pages() / rows)));
        }
        ctx_->stats.rows_scanned += rids_.size();
        EmitChunk(out);
      }
    }
    if (!ctx_->GovernorTick(pos_ - batch_start)) return false;
    if (residual_) {
      if (residual_prog_ != nullptr) {
        residual_prog_->FilterBatch(out, &expr_state_);
      } else {
        EvalContext bev{
            .colmap = &colmap_, .params = &ctx_->params, .batch = out};
        EvalPredicateBatch(residual_, bev, out);
      }
    }
    return true;
  }

 protected:
  void InitImpl() override {
    QOPT_FAULT_POINT_CTX("storage.scan.open", ctx_, );
    table_ = ctx_->storage->GetTable(plan_->table_id);
    QOPT_DCHECK(table_ != nullptr);
    pos_ = 0;
    limit_ = 0;  // morsel/range mode claims a range on the first NextBatch
    ranges_.clear();
    range_idx_ = 0;
    if (plan_->total_partitions > 0 &&
        plan_->total_partitions == table_->num_partitions()) {
      for (int p : plan_->partitions) {
        ranges_.push_back(table_->PartitionRange(p));
      }
    } else {
      ranges_.push_back({0, table_->num_rows()});
    }
    // The split is deterministic per plan node, so the compiled residual
    // can be cached on the node and shared by every executor instance
    // (including morsel-parallel workers).
    residual_prog_ = nullptr;
    if (residual_) {
      residual_prog_ = expr::ResolveProgram(
          plan_, expr::kSlotPredicate, residual_.get(),
          expr::MakeCompileEnv(colmap_, plan_->output_cols),
          /*as_predicate=*/true, ctx_);
      RecordExprMode(residual_prog_ != nullptr);
    }
    if (plan_->kind == PhysOpKind::kIndexScan) {
      QOPT_FAULT_POINT_CTX("storage.index.lookup", ctx_, );
      const SortedIndex* index = ctx_->storage->GetSortedIndex(plan_->index_id);
      QOPT_DCHECK(index != nullptr);
      std::optional<IndexBound> lo, hi;
      if (plan_->lo.has_value()) {
        lo = IndexBound{plan_->lo->value, plan_->lo->inclusive};
      }
      if (plan_->hi.has_value()) {
        hi = IndexBound{plan_->hi->value, plan_->hi->inclusive};
      }
      row_ids_ = index->RangeScan(lo, hi);
      use_ids_ = true;
      for (double level = 0; level < index->tree_height(); ++level) {
        ctx_->TouchPage(BufferPoolSim::IndexPage(
            plan_->index_id, static_cast<uint64_t>(level)));
      }
    } else {
      use_ids_ = false;
    }
  }

 private:
  /// Splits the scan predicate into prefilter conjuncts (ScanPrefilter:
  /// `column <op> constant`, checked by Table::Select against the storage
  /// columns before any copy) and a residual evaluated batch-wise. Scalar
  /// comparison semantics are Value::Compare with NULL rejecting. Depends
  /// only on the plan node, so it runs once per executor, not per rescan.
  void SplitPredicate() {
    residual_ = plan_->predicate;
    if (!plan_->predicate) return;
    std::vector<plan::BExpr> conjuncts;
    plan::SplitConjuncts(plan_->predicate, &conjuncts);
    std::vector<plan::BExpr> rest;
    for (const plan::BExpr& c : conjuncts) {
      ScanPrefilter pre;
      if (!MatchScanPrefilter(c, plan_->rel_id, &pre)) {
        rest.push_back(c);
        continue;
      }
      fast_preds_.emplace_back(static_cast<size_t>(pre.column.col), pre.type,
                               ToCmpOp(pre.op), std::move(pre.constant));
    }
    if (!fast_preds_.empty()) {
      residual_ =
          rest.empty() ? nullptr : plan::MakeConjunction(std::move(rest));
    }
  }

  static CmpOp ToCmpOp(ast::BinaryOp op) {
    switch (op) {
      case ast::BinaryOp::kEq: return CmpOp::kEq;
      case ast::BinaryOp::kNe: return CmpOp::kNe;
      case ast::BinaryOp::kLt: return CmpOp::kLt;
      case ast::BinaryOp::kLe: return CmpOp::kLe;
      case ast::BinaryOp::kGt: return CmpOp::kGt;
      case ast::BinaryOp::kGe: return CmpOp::kGe;
      default: break;  // unreachable: MatchColumnConstant filters ops
    }
    QOPT_DCHECK(false);
    return CmpOp::kEq;
  }

  static size_t Room(const RowBatch& out) {
    return out.capacity() - out.num_rows();
  }

  /// Narrows the chunk's rids (`rids_`) through every prefilter conjunct,
  /// then appends the emitted columns of the rows left to `out`.
  void EmitChunk(RowBatch* out) {
    size_t m = rids_.size();
    for (const ColumnPredicate& p : fast_preds_) {
      m = table_->Select(p, rids_.data(), m);
    }
    for (size_t k = 0; k < storage_pos_.size(); ++k) {
      table_->Gather(storage_pos_[k], rids_.data(), m, &out->column(k));
    }
    out->CommitRows(m);
  }

  const Table* table_ = nullptr;
  std::vector<size_t> storage_pos_;  ///< Storage position per output column.
  std::vector<uint32_t> row_ids_;
  std::vector<uint32_t> rids_;  ///< The current chunk's row ids.
  std::vector<ColumnPredicate> fast_preds_;
  plan::BExpr residual_;
  std::shared_ptr<const expr::ExprProgram> residual_prog_;
  expr::ExprExecState expr_state_;
  bool use_ids_ = false;
  size_t pos_ = 0;
  size_t limit_ = 0;  ///< Exclusive end of the current sequential range.
  /// Row ranges of the surviving partitions (serial sequential scan).
  std::vector<std::pair<size_t, size_t>> ranges_;
  size_t range_idx_ = 0;
  MorselSource* morsels_ = nullptr;  ///< Shared scan cursor (parallel mode).
};

/// Vectorized filter: refines the child batch's selection vector in place;
/// no data is copied or moved.
class BatchFilterExec : public Executor {
 public:
  BatchFilterExec(const PhysicalPlan* plan, ExecContext* ctx,
                  std::unique_ptr<Executor> child)
      : Executor(plan, ctx), child_(std::move(child)) {}

  bool NextBatchImpl(RowBatch* out) override {
    if (!child_->NextBatch(out)) return false;
    if (prog_ != nullptr) {
      prog_->FilterBatch(out, &expr_state_);
    } else {
      EvalContext bev{
          .colmap = &colmap_, .params = &ctx_->params, .batch = out};
      EvalPredicateBatch(plan_->predicate, bev, out);
    }
    return true;
  }

 protected:
  void InitImpl() override {
    child_->Init();
    prog_ = nullptr;
    if (plan_->predicate) {
      prog_ = expr::ResolveProgram(
          plan_, expr::kSlotPredicate, plan_->predicate.get(),
          expr::MakeCompileEnv(colmap_, plan_->output_cols),
          /*as_predicate=*/true, ctx_);
      RecordExprMode(prog_ != nullptr);
    }
  }

 private:
  std::unique_ptr<Executor> child_;
  std::shared_ptr<const expr::ExprProgram> prog_;
  expr::ExprExecState expr_state_;
};

/// Vectorized projection: evaluates each output expression over the whole
/// input batch, emitting a compacted batch.
class BatchProjectExec : public Executor {
 public:
  BatchProjectExec(const PhysicalPlan* plan, ExecContext* ctx,
                   std::unique_ptr<Executor> child)
      : Executor(plan, ctx), child_(std::move(child)) {}

  bool NextBatchImpl(RowBatch* out) override {
    do {
      if (!child_->NextBatch(&in_)) return false;
    } while (in_.ActiveSize() == 0);
    size_t n = in_.ActiveSize();
    // A compacted input batch (identity selection, guaranteed by join and
    // unfiltered scan outputs) lets pure column-ref projections move the
    // input column instead of gathering a copy — precomputed in InitImpl.
    bool identity = n == in_.num_rows();
    out->Reset(plan_->proj_exprs.size(), n);
    EvalContext bev{
        .colmap = &child_->colmap(), .params = &ctx_->params, .batch = &in_};
    std::vector<Value> col;
    for (size_t c = 0; c < plan_->proj_exprs.size(); ++c) {
      if (identity && move_src_[c] >= 0) {
        out->AdoptColumn(c, std::move(in_.column(move_src_[c])));
        continue;
      }
      if (progs_[c] != nullptr) {
        progs_[c]->EvalColumn(in_, &expr_state_, &col);
      } else {
        EvalExprBatch(*plan_->proj_exprs[c], bev, &col);
      }
      out->AdoptColumn(c, std::move(col));
      col.clear();
    }
    out->SetIdentitySelection(n);
    return true;
  }

 protected:
  void InitImpl() override {
    child_->Init();
    // move_src_[c] = input column position when proj_exprs[c] is a plain
    // column reference and no other output expression reads that column
    // (a column may be moved out only once); -1 otherwise.
    move_src_.assign(plan_->proj_exprs.size(), -1);
    std::map<ColumnId, int> referencing_exprs;
    for (const plan::BExpr& e : plan_->proj_exprs) {
      std::set<ColumnId> cols;
      plan::CollectColumns(e, &cols);
      for (ColumnId id : cols) ++referencing_exprs[id];
    }
    for (size_t c = 0; c < plan_->proj_exprs.size(); ++c) {
      const plan::BExpr& e = plan_->proj_exprs[c];
      if (e->kind != plan::BoundKind::kColumn) continue;
      if (referencing_exprs[e->column] != 1) continue;
      auto it = child_->colmap().find(e->column);
      if (it != child_->colmap().end()) move_src_[c] = it->second;
    }
    // One program per output expression, evaluated against the child's
    // column layout. Pure-move columns still compile: non-identity input
    // batches take the evaluation path.
    progs_.assign(plan_->proj_exprs.size(), nullptr);
    const expr::CompileEnv env = expr::MakeCompileEnv(
        child_->colmap(), plan_->children[0]->output_cols);
    for (size_t c = 0; c < plan_->proj_exprs.size(); ++c) {
      progs_[c] = expr::ResolveProgram(
          plan_, expr::kSlotProjBase + static_cast<int>(c),
          plan_->proj_exprs[c].get(), env, /*as_predicate=*/false, ctx_);
      RecordExprMode(progs_[c] != nullptr);
    }
  }

 private:
  std::unique_ptr<Executor> child_;
  RowBatch in_;
  std::vector<int> move_src_;
  std::vector<std::shared_ptr<const expr::ExprProgram>> progs_;
  expr::ExprExecState expr_state_;
};

}  // namespace

std::unique_ptr<Executor> NewBatchScanExec(const PhysicalPlan* plan,
                                           ExecContext* ctx) {
  return std::make_unique<BatchScanExec>(plan, ctx);
}

std::unique_ptr<Executor> NewBatchFilterExec(const PhysicalPlan* plan,
                                             ExecContext* ctx,
                                             std::unique_ptr<Executor> child) {
  return std::make_unique<BatchFilterExec>(plan, ctx, std::move(child));
}

std::unique_ptr<Executor> NewBatchProjectExec(const PhysicalPlan* plan,
                                              ExecContext* ctx,
                                              std::unique_ptr<Executor> child) {
  return std::make_unique<BatchProjectExec>(plan, ctx, std::move(child));
}

std::unique_ptr<Executor> NewMorselScanExec(const PhysicalPlan* plan,
                                            ExecContext* ctx,
                                            MorselSource* morsels) {
  return std::make_unique<BatchScanExec>(plan, ctx, morsels);
}

}  // namespace qopt::exec::internal
