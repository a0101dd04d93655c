#include <algorithm>

#include "exec/executors_internal.h"
#include "testing/fault_injection.h"

namespace qopt::exec::internal {

namespace {

using plan::JoinType;

/// Shared machinery for binary joins: combined row layout (left ++ right)
/// for evaluating join predicates, null padding for outer joins, and the
/// batch output. A subclass turns one left row at a time into its output
/// rows (BufferNextLeftRow); NextBatchImpl moves them into the output batch
/// until it is full, so a left row whose output straddles two batches
/// carries its pending rows across calls.
class JoinExecBase : public Executor {
 public:
  JoinExecBase(const PhysicalPlan* plan, ExecContext* ctx,
               std::unique_ptr<Executor> left, std::unique_ptr<Executor> right)
      : Executor(plan, ctx),
        left_(std::move(left)),
        right_(std::move(right)),
        left_in_(left_.get()) {
    combined_map_ = left_->colmap();
    int offset = static_cast<int>(left_->plan().output_cols.size());
    for (const auto& [id, pos] : right_->colmap()) {
      combined_map_[id] = pos + offset;
    }
    right_width_ = right_->plan().output_cols.size();
  }

 protected:
  bool EvalJoinPred(const plan::BExpr& pred, const Row& combined) const {
    EvalContext ev{&combined_map_, &combined, &ctx_->params};
    return EvalPredicate(pred, ev);
  }

  Row Combine(const Row& l, const Row& r) const {
    Row out = l;
    out.insert(out.end(), r.begin(), r.end());
    return out;
  }

  Row CombineNullRight(const Row& l) const {
    Row out = l;
    out.insert(out.end(), right_width_, Value::Null());
    return out;
  }

  /// Emits according to join type given left row and its matches.
  /// Appends result rows to `out_buffer_`.
  void EmitForLeftRow(const Row& left_row, const std::vector<const Row*>& matches) {
    switch (plan_->join_type) {
      case JoinType::kInner:
      case JoinType::kCross:
        for (const Row* m : matches) {
          out_buffer_.push_back(Combine(left_row, *m));
        }
        break;
      case JoinType::kLeftOuter:
        if (matches.empty()) {
          out_buffer_.push_back(CombineNullRight(left_row));
        } else {
          for (const Row* m : matches) {
            out_buffer_.push_back(Combine(left_row, *m));
          }
        }
        break;
      case JoinType::kSemi:
        if (!matches.empty()) out_buffer_.push_back(left_row);
        break;
      case JoinType::kAnti:
        if (matches.empty()) out_buffer_.push_back(left_row);
        break;
    }
  }

  bool NextBatchImpl(RowBatch* out) final {
    out->Reset(plan_->output_cols.size(), batch_capacity_);
    while (!out->full() && !ctx_->Failed()) {
      if (buffer_pos_ < out_buffer_.size()) {
        if (!ctx_->GovernorTick()) break;
        out->AppendRow(std::move(out_buffer_[buffer_pos_++]));
        ++ctx_->stats.rows_joined;
        continue;
      }
      out_buffer_.clear();
      buffer_pos_ = 0;
      if (!BufferNextLeftRow()) break;
    }
    return out->num_rows() > 0 && !ctx_->Failed();
  }

  /// Consumes the next left row and appends its output rows to
  /// `out_buffer_` (EmitForLeftRow); false at the end of the left input.
  virtual bool BufferNextLeftRow() = 0;

  /// Resets the output state and the left cursor; call after left_->Init().
  void ResetJoinState() {
    left_in_.Reset();
    out_buffer_.clear();
    buffer_pos_ = 0;
  }

  std::unique_ptr<Executor> left_;
  std::unique_ptr<Executor> right_;
  ChildCursor left_in_;
  ColMap combined_map_;
  size_t right_width_ = 0;
  std::vector<Row> out_buffer_;
  size_t buffer_pos_ = 0;
};

/// Naive nested-loop join with a materialized inner (right) side.
class NestedLoopJoinExec : public JoinExecBase {
 public:
  using JoinExecBase::JoinExecBase;

  void InitImpl() override {
    left_->Init();
    right_->Init();
    ResetJoinState();
    inner_.clear();
    ChildCursor in(right_.get());
    Row r;
    while (in.NextRow(&r) && ChargeRow(r)) inner_.push_back(std::move(r));
  }

  bool BufferNextLeftRow() override {
    Row l;
    if (!left_in_.NextRow(&l)) return false;
    std::vector<const Row*> matches;
    for (const Row& r : inner_) {
      if (!plan_->predicate ||
          EvalJoinPred(plan_->predicate, Combine(l, r))) {
        matches.push_back(&r);
      }
    }
    EmitForLeftRow(l, matches);
    return true;
  }

 private:
  std::vector<Row> inner_;
};

/// Index nested-loop join: probes the inner table's index per outer row.
class IndexNLJoinExec : public JoinExecBase {
 public:
  using JoinExecBase::JoinExecBase;

  void InitImpl() override {
    left_->Init();
    const PhysicalPlan& rp = right_->plan();
    QOPT_DCHECK(rp.kind == PhysOpKind::kIndexScan);
    index_ = ctx_->storage->GetSortedIndex(rp.index_id);
    table_ = ctx_->storage->GetTable(rp.table_id);
    QOPT_DCHECK(index_ != nullptr && table_ != nullptr);
    auto it = left_->colmap().find(plan_->left_key);
    QOPT_DCHECK(it != left_->colmap().end());
    left_key_pos_ = it->second;
    ResetJoinState();
  }

  bool BufferNextLeftRow() override {
    Row l;
    if (!left_in_.NextRow(&l)) return false;
    std::vector<const Row*> matches;
    const Value& key = l[left_key_pos_];
    if (!key.is_null()) {
      QOPT_FAULT_POINT_CTX("storage.index.lookup", ctx_, false);
      ++ctx_->stats.index_lookups;
      // B-tree path: inner levels (shared, cache quickly) + the leaf
      // holding this key.
      for (double level = 0; level + 1 < index_->tree_height(); ++level) {
        ctx_->TouchPage(BufferPoolSim::IndexPage(
            index_->def().id, static_cast<uint64_t>(level)));
      }
      ctx_->TouchPage(BufferPoolSim::IndexPage(
          index_->def().id, 1000 + key.Hash() % static_cast<uint64_t>(
                                       index_->leaf_pages())));
      std::vector<uint32_t> ids = index_->Lookup(key);
      double rows = std::max<double>(
          1.0, static_cast<double>(table_->num_rows()));
      for (uint32_t id : ids) {
        ctx_->TouchPage(BufferPoolSim::DataPage(
            right_->plan().table_id,
            static_cast<uint64_t>(static_cast<double>(id) *
                                  table_->num_pages() / rows)));
        const Row& r = table_->row(id);
        ++ctx_->stats.rows_scanned;
        // Inner residual (right child's scan filter), then join residual.
        if (right_->plan().predicate) {
          EvalContext ev{&right_->colmap(), &r, &ctx_->params};
          if (!EvalPredicate(right_->plan().predicate, ev)) continue;
        }
        if (plan_->predicate &&
            !EvalJoinPred(plan_->predicate, Combine(l, r))) {
          continue;
        }
        matches.push_back(&r);
      }
    }
    EmitForLeftRow(l, matches);
    return true;
  }

 private:
  const SortedIndex* index_ = nullptr;
  const Table* table_ = nullptr;
  int left_key_pos_ = 0;
};

/// Sort-merge join; inputs must arrive sorted on the join keys (the
/// optimizer inserts Sort enforcers or uses interesting orders).
class MergeJoinExec : public JoinExecBase {
 public:
  using JoinExecBase::JoinExecBase;

  void InitImpl() override {
    left_->Init();
    right_->Init();
    ResetJoinState();
    lrows_.clear();
    rrows_.clear();
    Row r;
    while (left_in_.NextRow(&r) && ChargeRow(r)) lrows_.push_back(std::move(r));
    ChildCursor right_in(right_.get());
    while (right_in.NextRow(&r) && ChargeRow(r)) rrows_.push_back(std::move(r));
    auto lit = left_->colmap().find(plan_->left_key);
    auto rit = right_->colmap().find(plan_->right_key);
    QOPT_DCHECK(lit != left_->colmap().end());
    QOPT_DCHECK(rit != right_->colmap().end());
    lk_ = lit->second;
    rk_ = rit->second;
    li_ = rj_ = 0;
  }

  bool BufferNextLeftRow() override {
    if (li_ >= lrows_.size()) return false;
    const Row& l = lrows_[li_];
    const Value& lkey = l[lk_];
    std::vector<const Row*> matches;
    if (!lkey.is_null()) {
      // Advance right cursor to the first key >= lkey.
      while (rj_ < rrows_.size() &&
             (rrows_[rj_][rk_].is_null() ||
              rrows_[rj_][rk_].Compare(lkey) < 0)) {
        ++rj_;
      }
      for (size_t j = rj_;
           j < rrows_.size() && rrows_[j][rk_].Compare(lkey) == 0; ++j) {
        if (!plan_->predicate ||
            EvalJoinPred(plan_->predicate, Combine(l, rrows_[j]))) {
          matches.push_back(&rrows_[j]);
        }
      }
    }
    EmitForLeftRow(l, matches);
    ++li_;
    return true;
  }

 private:
  std::vector<Row> lrows_, rrows_;
  int lk_ = 0, rk_ = 0;
  size_t li_ = 0, rj_ = 0;
};

/// Tuple-iteration correlated subquery: for each outer row, binds the
/// correlated parameters and re-executes the inner subtree (§4.2.2's
/// unoptimized nested execution — the baseline the unnesting rules beat).
class ApplyExec : public JoinExecBase {
 public:
  using JoinExecBase::JoinExecBase;

  void InitImpl() override {
    left_->Init();
    // Right side re-initialized per outer row.
    ResetJoinState();
  }

  bool BufferNextLeftRow() override {
    Row l;
    if (!left_in_.NextRow(&l)) return false;

    // Bind correlated parameters from the outer row (parameters not
    // produced by our left child belong to an enclosing Apply and are
    // already present in ctx_->params).
    for (ColumnId c : plan_->correlated_cols) {
      auto it = left_->colmap().find(c);
      if (it != left_->colmap().end()) {
        ctx_->params[c] = l[it->second];
      }
    }
    right_->Init();
    right_in_.Reset();
    if (ctx_->Failed()) return false;
    ++ctx_->stats.subquery_executions;
    // Each subquery re-execution materializes its outer binding; charge
    // it so unbounded Apply loops hit the row budget.
    if (!ctx_->GovernorCharge(1, ModeledRowBytes(l))) return false;

    if (plan_->apply_type == plan::ApplyType::kScalar) {
      Row r;
      Row result = l;
      if (right_in_.NextRow(&r)) {
        auto it = right_->colmap().find(plan_->scalar_output);
        QOPT_DCHECK(it != right_->colmap().end());
        result.push_back(r[it->second]);
      } else {
        result.push_back(Value::Null());
      }
      out_buffer_.push_back(std::move(result));
      return true;
    }

    bool found = false;
    Row r;
    while (right_in_.NextRow(&r)) {
      if (!plan_->predicate ||
          EvalJoinPred(plan_->predicate, Combine(l, r))) {
        found = true;
        break;
      }
    }
    bool keep = plan_->apply_type == plan::ApplyType::kSemi ? found : !found;
    if (keep) out_buffer_.push_back(std::move(l));
    return true;
  }

 private:
  ChildCursor right_in_{right_.get()};
};

}  // namespace

std::unique_ptr<Executor> NewJoinExec(const PhysicalPlan* plan,
                                      ExecContext* ctx,
                                      std::unique_ptr<Executor> left,
                                      std::unique_ptr<Executor> right) {
  switch (plan->kind) {
    case PhysOpKind::kNestedLoopJoin:
      return std::make_unique<NestedLoopJoinExec>(plan, ctx, std::move(left),
                                                  std::move(right));
    case PhysOpKind::kIndexNestedLoopJoin:
      return std::make_unique<IndexNLJoinExec>(plan, ctx, std::move(left),
                                               std::move(right));
    case PhysOpKind::kMergeJoin:
      return std::make_unique<MergeJoinExec>(plan, ctx, std::move(left),
                                             std::move(right));
    default:
      QOPT_DCHECK(false);
      return nullptr;
  }
}

std::unique_ptr<Executor> NewApplyExec(const PhysicalPlan* plan,
                                       ExecContext* ctx,
                                       std::unique_ptr<Executor> left,
                                       std::unique_ptr<Executor> right) {
  return std::make_unique<ApplyExec>(plan, ctx, std::move(left),
                                     std::move(right));
}

}  // namespace qopt::exec::internal
