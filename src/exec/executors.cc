#include <algorithm>
#include <unordered_set>

#include "exec/executors_internal.h"

namespace qopt::exec::internal {

namespace {

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
    Row r;
    while (child_->Next(&r)) {
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

  bool NextImpl(Row* out) override {
    if (ctx_->Failed()) return false;
    if (runs_.empty()) {
      if (pos_ >= rows_.size()) return false;
      *out = std::move(rows_[pos_++]);
      return true;
    }
    // Streaming k-way merge across run heads and the in-memory tail. Only
    // strictly-smaller rows displace the current best, so ties resolve to
    // the earliest run (earliest input rows) and the merge is stable.
    int best = -1;
    for (size_t i = 0; i < heads_.size(); ++i) {
      if (!heads_[i].has_value()) continue;
      if (best < 0 || Less(*heads_[i], *heads_[static_cast<size_t>(best)])) {
        best = static_cast<int>(i);
      }
    }
    bool tail_best =
        pos_ < rows_.size() &&
        (best < 0 || Less(rows_[pos_], *heads_[static_cast<size_t>(best)]));
    if (tail_best) {
      *out = std::move(rows_[pos_++]);
      return true;
    }
    if (best < 0) return false;
    *out = std::move(*heads_[static_cast<size_t>(best)]);
    return Refill(static_cast<size_t>(best));
  }

 private:
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

  /// Sorts the buffer and writes it out as one run; false on error (the
  /// Status is recorded on the context).
  bool SpillRun() {
    SortBuffer();
    auto file_or = SpillFile::Create(ctx_->spill.dir);
    if (!file_or.ok()) {
      ctx_->Fail(file_or.status());
      return false;
    }
    std::unique_ptr<SpillFile> file = std::move(file_or).value();
    for (const Row& row : rows_) {
      Status s = file->Append(row);
      if (!s.ok()) {
        ctx_->Fail(std::move(s));
        return false;
      }
    }
    Status s = file->FinishWrite();
    if (!s.ok()) {
      ctx_->Fail(std::move(s));
      return false;
    }
    RecordSpill(1, file->bytes_written());
    runs_.push_back(std::move(file));
    rows_.clear();
    return true;
  }

  /// Reloads heads_[i] from its run; false (stream over) only on error.
  bool Refill(size_t i) {
    Row next;
    auto more = runs_[i]->ReadNext(&next);
    if (!more.ok()) {
      ctx_->Fail(more.status());
      return false;
    }
    if (more.value()) {
      heads_[i] = std::move(next);
    } else {
      heads_[i].reset();
    }
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
      Status s = runs_[i]->Rewind();
      if (!s.ok()) {
        ctx_->Fail(std::move(s));
        return;
      }
      if (!Refill(i)) return;
    }
  }

  /// Merges sorted `group` files into one new sorted run (nullptr on error).
  std::unique_ptr<SpillFile> MergeGroup(
      std::vector<std::unique_ptr<SpillFile>> group) {
    std::vector<std::optional<Row>> heads(group.size());
    for (size_t i = 0; i < group.size(); ++i) {
      Status s = group[i]->Rewind();
      if (!s.ok()) {
        ctx_->Fail(std::move(s));
        return nullptr;
      }
      Row r;
      auto more = group[i]->ReadNext(&r);
      if (!more.ok()) {
        ctx_->Fail(more.status());
        return nullptr;
      }
      if (more.value()) heads[i] = std::move(r);
    }
    auto out_or = SpillFile::Create(ctx_->spill.dir);
    if (!out_or.ok()) {
      ctx_->Fail(out_or.status());
      return nullptr;
    }
    std::unique_ptr<SpillFile> out = std::move(out_or).value();
    for (;;) {
      int best = -1;
      for (size_t i = 0; i < heads.size(); ++i) {
        if (!heads[i].has_value()) continue;
        if (best < 0 || Less(*heads[i], *heads[static_cast<size_t>(best)])) {
          best = static_cast<int>(i);
        }
      }
      if (best < 0) break;
      size_t b = static_cast<size_t>(best);
      Status s = out->Append(*heads[b]);
      if (!s.ok()) {
        ctx_->Fail(std::move(s));
        return nullptr;
      }
      Row r;
      auto more = group[b]->ReadNext(&r);
      if (!more.ok()) {
        ctx_->Fail(more.status());
        return nullptr;
      }
      if (more.value()) {
        heads[b] = std::move(r);
      } else {
        heads[b].reset();
      }
    }
    Status s = out->FinishWrite();
    if (!s.ok()) {
      ctx_->Fail(std::move(s));
      return nullptr;
    }
    RecordSpill(1, out->bytes_written());
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

  bool NextImpl(Row* out) override {
    while (child_->Next(out)) {
      if (seen_.insert(*out).second) {
        if (!ctx_->GovernorCharge(1, ModeledRowBytes(*out))) return false;
        ChargeMem(ModeledRowBytes(*out));
        return true;
      }
    }
    return false;
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

  bool NextImpl(Row* out) override {
    while (current_ < children_.size()) {
      if (children_[current_]->Next(out)) return true;
      ++current_;
    }
    return false;
  }

 private:
  std::vector<std::unique_ptr<Executor>> children_;
  size_t current_ = 0;
};

/// EXCEPT / INTERSECT: hashes the right input, streams distinct left rows
/// filtered by (non-)membership. Set semantics per the SQL standard.
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
    Row r;
    while (right_->Next(&r)) {
      if (!ctx_->GovernorCharge(1, ModeledRowBytes(r))) break;
      ChargeMem(ModeledRowBytes(r));
      right_rows_.insert(std::move(r));
    }
  }

  bool NextImpl(Row* out) override {
    bool want_member = plan_->kind == PhysOpKind::kHashIntersect;
    while (left_->Next(out)) {
      if ((right_rows_.count(*out) > 0) != want_member) continue;
      if (emitted_.insert(*out).second) return true;
    }
    return false;
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

  bool NextImpl(Row* out) override {
    if (produced_ >= plan_->limit) return false;
    if (!child_->Next(out)) return false;
    ++produced_;
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
