#include <map>
#include <set>
#include <unordered_map>

#include "exec/agg_state.h"
#include "exec/executors_internal.h"
#include "exec/expr_compile.h"

namespace qopt::exec::internal {

namespace {

using ast::AggFunc;

/// Common machinery: grouping keys extraction and result materialization.
/// AggAcc / Group themselves live in agg_state.h, shared with the parallel
/// partial-aggregation sink.
class AggregateExecBase : public Executor {
 public:
  AggregateExecBase(const PhysicalPlan* plan, ExecContext* ctx,
                    std::unique_ptr<Executor> child)
      : Executor(plan, ctx), child_(std::move(child)) {}

 protected:
  void ResolveKeyPositions() {
    key_pos_.clear();
    for (ColumnId id : plan_->group_by) {
      auto it = child_->colmap().find(id);
      QOPT_DCHECK(it != child_->colmap().end());
      key_pos_.push_back(it->second);
    }
  }

  Row KeyOf(const Row& in) const {
    Row key;
    key.reserve(key_pos_.size());
    for (int p : key_pos_) key.push_back(in[p]);
    return key;
  }

  void Accumulate(Group* g, const Row& in) const {
    EvalContext ev{&child_->colmap(), &in, &ctx_->params};
    for (size_t i = 0; i < plan_->aggs.size(); ++i) {
      const plan::AggItem& item = plan_->aggs[i];
      if (item.func == AggFunc::kCountStar) {
        g->accs[i].Accumulate(Value::Null());
      } else {
        g->accs[i].Accumulate(EvalExpr(*item.arg, ev));
      }
    }
  }

  Group NewGroup() const { return internal::NewGroup(plan_->aggs); }

  Row FinalizeRow(const Row& key, const Group& g) const {
    Row out = key;
    for (const AggAcc& acc : g.accs) out.push_back(acc.Finalize());
    return out;
  }

  std::unique_ptr<Executor> child_;
  std::vector<int> key_pos_;
};

class HashAggregateExec : public AggregateExecBase {
 public:
  using AggregateExecBase::AggregateExecBase;

  void InitImpl() override {
    child_->Init();
    ResolveKeyPositions();
    results_.clear();
    pos_ = 0;

    std::unordered_map<Row, Group, RowHash, RowEq> groups;
    groups.reserve(ReserveHint(plan_->est_rows));
    // Preserve first-seen group order for deterministic output.
    std::vector<const Row*> order;
    order.reserve(ReserveHint(plan_->est_rows));
    // Vectorized drain: aggregate arguments evaluate whole batches at a
    // time (compiled when possible, else interpreted batch-wise), and keys
    // gather straight from the batch columns — no per-input-row Row
    // materialization.
    BatchDrain(&groups, &order);
    if (ctx_->Failed()) return;
    if (groups.empty() && plan_->group_by.empty()) {
      // Scalar aggregate over empty input still yields one row
      // (COUNT(*) = 0, SUM = NULL, ...).
      Group g = NewGroup();
      results_.push_back(FinalizeRow({}, g));
      return;
    }
    for (const Row* key : order) {
      results_.push_back(FinalizeRow(*key, groups.at(*key)));
    }
  }

  bool NextImpl(Row* out) override {
    if (pos_ >= results_.size()) return false;
    *out = results_[pos_++];
    return true;
  }

 private:
  /// Batch-at-a-time input drain. Each new group charges its key row plus
  /// a flat per-accumulator estimate; a governor abort stops the drain with
  /// the error recorded on the context.
  void BatchDrain(std::unordered_map<Row, Group, RowHash, RowEq>* groups,
                  std::vector<const Row*>* order) {
    const size_t na = plan_->aggs.size();
    std::vector<std::shared_ptr<const expr::ExprProgram>> progs(na);
    const expr::CompileEnv env = expr::MakeCompileEnv(
        child_->colmap(), plan_->children[0]->output_cols);
    for (size_t i = 0; i < na; ++i) {
      const plan::AggItem& item = plan_->aggs[i];
      if (item.func == AggFunc::kCountStar || item.arg == nullptr) continue;
      progs[i] = expr::ResolveProgram(
          plan_, expr::kSlotAggBase + static_cast<int>(i), item.arg.get(),
          env, /*as_predicate=*/false, ctx_);
      RecordExprMode(progs[i] != nullptr);
    }
    expr::ExprExecState state;
    RowBatch b;
    std::vector<std::vector<Value>> argv(na);
    BatchEvalContext bev{&child_->colmap(), &b, &ctx_->params};
    while (!ctx_->Failed() && child_->NextBatch(&b)) {
      const size_t n = b.ActiveSize();
      if (n == 0) continue;
      for (size_t i = 0; i < na; ++i) {
        const plan::AggItem& item = plan_->aggs[i];
        if (item.func == AggFunc::kCountStar || item.arg == nullptr) continue;
        if (progs[i] != nullptr) {
          progs[i]->EvalColumn(b, &state, &argv[i]);
        } else {
          EvalExprBatch(*item.arg, bev, &argv[i]);
        }
      }
      for (size_t k = 0; k < n; ++k) {
        const uint32_t r = b.ActiveIndex(k);
        Row key;
        key.reserve(key_pos_.size());
        for (int p : key_pos_) key.push_back(b.At(p, r));
        auto [it, inserted] = groups->emplace(std::move(key), NewGroup());
        if (inserted) {
          if (!ctx_->GovernorCharge(
                  1, ModeledRowBytes(it->first) + 48 * na)) {
            return;
          }
          ChargeMem(ModeledRowBytes(it->first) + 48 * na);
          order->push_back(&it->first);
        }
        Group& g = it->second;
        for (size_t i = 0; i < na; ++i) {
          if (plan_->aggs[i].func == AggFunc::kCountStar ||
              plan_->aggs[i].arg == nullptr) {
            g.accs[i].Accumulate(Value::Null());
          } else {
            g.accs[i].Accumulate(argv[i][k]);
          }
        }
      }
    }
  }

  std::vector<Row> results_;
  size_t pos_ = 0;
};

/// Streaming aggregation over input sorted by the grouping columns: emits a
/// group when the key changes (exploits interesting orders, §3).
class StreamAggregateExec : public AggregateExecBase {
 public:
  using AggregateExecBase::AggregateExecBase;

  void InitImpl() override {
    child_->Init();
    ResolveKeyPositions();
    done_ = false;
    has_current_ = false;
    produced_any_ = false;
  }

  bool NextImpl(Row* out) override {
    if (done_) return false;
    Row in;
    while (child_->Next(&in)) {
      Row key = KeyOf(in);
      if (!has_current_) {
        current_key_ = std::move(key);
        current_ = NewGroup();
        has_current_ = true;
        Accumulate(&current_, in);
        continue;
      }
      if (RowEq()(key, current_key_)) {
        Accumulate(&current_, in);
        continue;
      }
      *out = FinalizeRow(current_key_, current_);
      produced_any_ = true;
      current_key_ = std::move(key);
      current_ = NewGroup();
      Accumulate(&current_, in);
      return true;
    }
    done_ = true;
    if (has_current_) {
      *out = FinalizeRow(current_key_, current_);
      produced_any_ = true;
      return true;
    }
    if (!produced_any_ && plan_->group_by.empty()) {
      Group g = NewGroup();
      *out = FinalizeRow({}, g);
      produced_any_ = true;
      return true;
    }
    return false;
  }

 private:
  bool done_ = false;
  bool has_current_ = false;
  bool produced_any_ = false;
  Row current_key_;
  Group current_{};
};

}  // namespace

std::unique_ptr<Executor> NewAggregateExec(const PhysicalPlan* plan,
                                           ExecContext* ctx,
                                           std::unique_ptr<Executor> child) {
  if (plan->kind == PhysOpKind::kHashAggregate) {
    return std::make_unique<HashAggregateExec>(plan, ctx, std::move(child));
  }
  return std::make_unique<StreamAggregateExec>(plan, ctx, std::move(child));
}

}  // namespace qopt::exec::internal
