#include <algorithm>
#include <unordered_set>

#include "exec/executors_internal.h"

namespace qopt::exec::internal {

namespace {

/// Shrinks `b`'s selection in place, as a filter does, to the live rows
/// `keep` accepts. `keep` gets each row as a copy it may move from. False,
/// with the rest of the batch unexamined, once `keep` has recorded a query
/// error on `ctx`.
template <typename Keep>
bool SelectRows(RowBatch* b, ExecContext* ctx, Keep keep) {
  std::vector<uint32_t>& sel = *b->mutable_selection();
  size_t kept = 0;
  Row row;
  for (size_t k = 0; k < sel.size(); ++k) {
    b->MaterializeActive(k, &row);
    if (keep(row)) sel[kept++] = sel[k];
    if (ctx->Failed()) return false;
  }
  sel.resize(kept);
  return true;
}

/// Widens the INT cells of `b`'s live rows in the columns a set operation
/// `node` types DOUBLE (one arm may be INT there).
void WidenToOutputTypes(const PhysicalPlan& node, RowBatch* b) {
  for (size_t c = 0; c < node.output_cols.size(); ++c) {
    if (node.output_cols[c].type != TypeId::kDouble) continue;
    std::vector<Value>& cells = b->column(c);
    for (uint32_t r : b->selection()) WidenToType(TypeId::kDouble, &cells[r]);
  }
}

/// Sort with graceful degradation: fully in-memory while the input fits,
/// external merge sort once the spill policy is armed and the buffer
/// exceeds its budget. Run generation writes sorted SpillFiles; runs above
/// the merge fan-in are first combined in intermediate disk-to-disk merge
/// passes; the final merge streams from the surviving runs plus the sorted
/// in-memory tail, so peak memory stays bounded by the spill budget plus
/// one head row per merge input.
class SortExec : public Executor {
 public:
  SortExec(const PhysicalPlan* plan, ExecContext* ctx,
           std::unique_ptr<Executor> child)
      : Executor(plan, ctx), child_(std::move(child)) {}

  void InitImpl() override {
    child_->Init();
    rows_.clear();
    runs_.clear();
    heads_.clear();
    pos_ = 0;
    // Resolve key positions in the child's layout (same as ours).
    keys_.clear();
    for (const plan::SortKey& k : plan_->sort_keys) {
      auto it = colmap_.find(k.column);
      QOPT_DCHECK(it != colmap_.end());
      keys_.emplace_back(it->second, k.ascending);
    }
    const SpillConfig& sp = ctx_->spill;
    uint64_t buffered = 0, max_buffered = 0;
    ChildCursor in(child_.get());
    Row r;
    while (in.NextRow(&r)) {
      uint64_t rb = ModeledRowBytes(r);
      // Spill-armed, this operator's memory is bounded by construction
      // (the spill budget), so only the row budget/deadline is charged;
      // disarmed, the byte charge preserves the fail-fast contract.
      if (!ctx_->GovernorCharge(1, sp.armed ? 0 : rb)) break;
      if (!sp.armed) ChargeMem(rb);
      buffered += rb;
      rows_.push_back(std::move(r));
      if (sp.armed && buffered > sp.budget_bytes && rows_.size() > 1) {
        if (buffered > max_buffered) max_buffered = buffered;
        if (!SpillRun()) break;
        buffered = 0;
      }
    }
    if (buffered > max_buffered) max_buffered = buffered;
    if (sp.armed) ChargeMem(max_buffered);
    SortBuffer();
    if (!runs_.empty() && !ctx_->Failed()) PrepareMerge();
  }

  bool NextBatchImpl(RowBatch* out) override {
    if (runs_.empty()) return EmitRows(&rows_, &pos_, out);
    if (ctx_->Failed()) return false;
    out->Reset(plan_->output_cols.size(), batch_capacity_);
    Row r;
    while (!out->full() && MergeNext(&r)) out->AppendRow(std::move(r));
    return out->num_rows() > 0 && !ctx_->Failed();
  }

 private:
  /// Next row of the streaming k-way merge across run heads and the
  /// in-memory tail; false at its end. Ties resolve to the earliest run
  /// (earliest input rows) before the tail, so the merge is stable.
  bool MergeNext(Row* out) {
    const int best = MinHead(heads_);
    const auto b = static_cast<size_t>(best);
    if (pos_ < rows_.size() && (best < 0 || Less(rows_[pos_], *heads_[b]))) {
      *out = std::move(rows_[pos_++]);
      return true;
    }
    if (best < 0) return false;
    *out = std::move(*heads_[b]);
    return ReadHead(runs_[b].get(), &heads_[b]);
  }

  /// Index of the smallest of `heads`, -1 when all are exhausted. Only
  /// strictly-smaller rows displace the current best, so ties resolve to
  /// the earliest.
  int MinHead(const std::vector<std::optional<Row>>& heads) const {
    int best = -1;
    for (size_t i = 0; i < heads.size(); ++i) {
      if (!heads[i].has_value()) continue;
      if (best < 0 || Less(*heads[i], *heads[static_cast<size_t>(best)])) {
        best = static_cast<int>(i);
      }
    }
    return best;
  }

  bool Less(const Row& a, const Row& b) const {
    for (const auto& [pos, asc] : keys_) {
      int c = a[static_cast<size_t>(pos)].Compare(b[static_cast<size_t>(pos)]);
      if (c != 0) return asc ? c < 0 : c > 0;
    }
    return false;
  }

  void SortBuffer() {
    std::stable_sort(
        rows_.begin(), rows_.end(),
        [this](const Row& a, const Row& b) { return Less(a, b); });
  }

  /// A new, empty run file; nullptr on error. Every fallible step of the
  /// spill path records its Status on the context and reports failure.
  std::unique_ptr<SpillFile> NewRun() {
    auto file_or = SpillFile::Create(ctx_->spill.dir);
    if (!ctx_->Check(file_or.status())) return nullptr;
    return std::move(file_or).value();
  }

  /// Finishes writing run `file` and records it as a spill run.
  bool SealRun(SpillFile* file) {
    if (!ctx_->Check(file->FinishWrite())) return false;
    RecordSpill(1, file->bytes_written());
    return true;
  }

  /// Loads `file`'s next row into `*head`, or resets it at the end of the
  /// file; false (stream over) only on error.
  bool ReadHead(SpillFile* file, std::optional<Row>* head) {
    Row next;
    auto more = file->ReadNext(&next);
    if (!ctx_->Check(more.status())) return false;
    if (more.value()) {
      *head = std::move(next);
    } else {
      head->reset();
    }
    return true;
  }

  /// Sorts the buffer and writes it out as one run.
  bool SpillRun() {
    SortBuffer();
    std::unique_ptr<SpillFile> file = NewRun();
    if (file == nullptr) return false;
    for (const Row& row : rows_) {
      if (!ctx_->Check(file->Append(row))) return false;
    }
    if (!SealRun(file.get())) return false;
    runs_.push_back(std::move(file));
    rows_.clear();
    return true;
  }

  /// Collapses runs above the merge fan-in with intermediate disk-to-disk
  /// passes, then opens the survivors for the streaming final merge.
  void PrepareMerge() {
    size_t fanin = std::max<size_t>(2, ctx_->spill.merge_fanin);
    while (runs_.size() > fanin && !ctx_->Failed()) {
      // Merge the first `fanin` runs (the earliest input rows) into one
      // replacement run at the front, keeping run order == input order.
      std::vector<std::unique_ptr<SpillFile>> group;
      for (size_t i = 0; i < fanin; ++i) group.push_back(std::move(runs_[i]));
      runs_.erase(runs_.begin(), runs_.begin() + static_cast<ptrdiff_t>(fanin));
      std::unique_ptr<SpillFile> merged = MergeGroup(std::move(group));
      if (merged == nullptr) return;
      runs_.insert(runs_.begin(), std::move(merged));
    }
    if (ctx_->Failed()) return;
    heads_.assign(runs_.size(), std::nullopt);
    for (size_t i = 0; i < runs_.size(); ++i) {
      if (!ctx_->Check(runs_[i]->Rewind()) ||
          !ReadHead(runs_[i].get(), &heads_[i])) {
        return;
      }
    }
  }

  /// Merges sorted `group` files into one new sorted run (nullptr on error).
  std::unique_ptr<SpillFile> MergeGroup(
      std::vector<std::unique_ptr<SpillFile>> group) {
    std::vector<std::optional<Row>> heads(group.size());
    for (size_t i = 0; i < group.size(); ++i) {
      if (!ctx_->Check(group[i]->Rewind()) ||
          !ReadHead(group[i].get(), &heads[i])) {
        return nullptr;
      }
    }
    std::unique_ptr<SpillFile> out = NewRun();
    if (out == nullptr) return nullptr;
    for (int best = MinHead(heads); best >= 0; best = MinHead(heads)) {
      const auto b = static_cast<size_t>(best);
      if (!ctx_->Check(out->Append(*heads[b])) ||
          !ReadHead(group[b].get(), &heads[b])) {
        return nullptr;
      }
    }
    if (!SealRun(out.get())) return nullptr;
    return out;
  }

  std::unique_ptr<Executor> child_;
  std::vector<Row> rows_;  ///< In-memory buffer / sorted tail.
  std::vector<std::pair<int, bool>> keys_;
  std::vector<std::unique_ptr<SpillFile>> runs_;
  std::vector<std::optional<Row>> heads_;  ///< Merge head per run.
  size_t pos_ = 0;
};

class DistinctExec : public Executor {
 public:
  DistinctExec(const PhysicalPlan* plan, ExecContext* ctx,
               std::unique_ptr<Executor> child)
      : Executor(plan, ctx), child_(std::move(child)) {}

  void InitImpl() override {
    child_->Init();
    seen_.clear();
  }

  /// Passes the child's batch on, its selection shrunk to first-seen rows.
  bool NextBatchImpl(RowBatch* out) override {
    return child_->NextBatch(out) &&
           SelectRows(out, ctx_, [this](Row& row) {
             auto [it, fresh] = seen_.insert(std::move(row));
             return fresh && ChargeRow(*it);
           });
  }

 private:
  std::unique_ptr<Executor> child_;
  std::unordered_set<Row, RowHash, RowEq> seen_;
};

class UnionAllExec : public Executor {
 public:
  UnionAllExec(const PhysicalPlan* plan, ExecContext* ctx,
               std::vector<std::unique_ptr<Executor>> children)
      : Executor(plan, ctx), children_(std::move(children)) {}

  void InitImpl() override {
    for (auto& c : children_) c->Init();
    current_ = 0;
  }

  bool NextBatchImpl(RowBatch* out) override {
    for (; current_ < children_.size(); ++current_) {
      if (children_[current_]->NextBatch(out)) {
        WidenToOutputTypes(*plan_, out);
        return true;
      }
    }
    return false;
  }

 private:
  std::vector<std::unique_ptr<Executor>> children_;
  size_t current_ = 0;
};

/// EXCEPT / INTERSECT: hashes the right input, streams distinct left rows
/// filtered by (non-)membership. Set semantics per the SQL standard. Both
/// hash sets, the right rows and the emitted left rows, are charged to the
/// governor, as Distinct's set is.
class HashSetOpExec : public Executor {
 public:
  HashSetOpExec(const PhysicalPlan* plan, ExecContext* ctx,
                std::unique_ptr<Executor> left,
                std::unique_ptr<Executor> right)
      : Executor(plan, ctx),
        left_(std::move(left)),
        right_(std::move(right)) {}

  void InitImpl() override {
    left_->Init();
    right_->Init();
    right_rows_.clear();
    emitted_.clear();
    ChildCursor in(right_.get());
    Row r;
    while (in.NextRow(&r) && ChargeRow(r)) right_rows_.insert(std::move(r));
  }

  /// Passes the left child's batch on, its selection shrunk to the rows
  /// (not) in the right set and not emitted before.
  bool NextBatchImpl(RowBatch* out) override {
    const bool want_member = plan_->kind == PhysOpKind::kHashIntersect;
    if (!left_->NextBatch(out)) return false;
    WidenToOutputTypes(*plan_, out);
    return SelectRows(out, ctx_, [&](Row& row) {
      if ((right_rows_.count(row) > 0) != want_member) return false;
      auto [it, fresh] = emitted_.insert(std::move(row));
      return fresh && ChargeRow(*it);
    });
  }

 private:
  std::unique_ptr<Executor> left_;
  std::unique_ptr<Executor> right_;
  std::unordered_set<Row, RowHash, RowEq> right_rows_;
  std::unordered_set<Row, RowHash, RowEq> emitted_;
};

class LimitExec : public Executor {
 public:
  LimitExec(const PhysicalPlan* plan, ExecContext* ctx,
            std::unique_ptr<Executor> child)
      : Executor(plan, ctx), child_(std::move(child)) {}

  void InitImpl() override {
    child_->Init();
    produced_ = 0;
  }

  /// Passes the child's batch on, its selection cut to the rows left.
  bool NextBatchImpl(RowBatch* out) override {
    if (produced_ >= plan_->limit || !child_->NextBatch(out)) return false;
    std::vector<uint32_t>* sel = out->mutable_selection();
    const auto left = static_cast<size_t>(plan_->limit - produced_);
    if (sel->size() > left) sel->resize(left);
    produced_ += static_cast<int64_t>(sel->size());
    return true;
  }

 private:
  std::unique_ptr<Executor> child_;
  int64_t produced_ = 0;
};

}  // namespace

std::unique_ptr<Executor> NewSortExec(const PhysicalPlan* plan,
                                      ExecContext* ctx,
                                      std::unique_ptr<Executor> child) {
  return std::make_unique<SortExec>(plan, ctx, std::move(child));
}

std::unique_ptr<Executor> NewDistinctExec(const PhysicalPlan* plan,
                                          ExecContext* ctx,
                                          std::unique_ptr<Executor> child) {
  return std::make_unique<DistinctExec>(plan, ctx, std::move(child));
}

std::unique_ptr<Executor> NewLimitExec(const PhysicalPlan* plan,
                                       ExecContext* ctx,
                                       std::unique_ptr<Executor> child) {
  return std::make_unique<LimitExec>(plan, ctx, std::move(child));
}

std::unique_ptr<Executor> NewUnionAllExec(
    const PhysicalPlan* plan, ExecContext* ctx,
    std::vector<std::unique_ptr<Executor>> children) {
  return std::make_unique<UnionAllExec>(plan, ctx, std::move(children));
}

std::unique_ptr<Executor> NewHashSetOpExec(const PhysicalPlan* plan,
                                           ExecContext* ctx,
                                           std::unique_ptr<Executor> left,
                                           std::unique_ptr<Executor> right) {
  return std::make_unique<HashSetOpExec>(plan, ctx, std::move(left),
                                         std::move(right));
}

}  // namespace qopt::exec::internal
