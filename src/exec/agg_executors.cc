#include <utility>

#include "exec/agg_state.h"
#include "exec/executors_internal.h"

namespace qopt::exec::internal {

namespace {

/// A fresh group with one accumulator per item in `aggs`.
Group NewGroup(const std::vector<plan::AggItem>& aggs) {
  Group g;
  for (const plan::AggItem& item : aggs) g.accs.emplace_back(&item);
  return g;
}

/// A result row: the group key followed by each aggregate's final value.
Row FinalizeGroup(Row key, const Group& g) {
  for (const AggAcc& acc : g.accs) key.push_back(acc.Finalize());
  return key;
}

/// True when `item` reads an argument (every aggregate but COUNT(*)).
bool HasArg(const plan::AggItem& item) {
  return item.func != ast::AggFunc::kCountStar && item.arg != nullptr;
}

/// Positions of aggregate node `agg`'s group keys in its input rows.
std::vector<int> GroupKeyPositions(const PhysicalPlan& agg) {
  std::vector<int> pos;
  pos.reserve(agg.group_by.size());
  for (ColumnId id : agg.group_by) {
    pos.push_back(agg.children[0]->FindOutput(id));
    QOPT_DCHECK(pos.back() >= 0);
  }
  return pos;
}

}  // namespace

AggPrograms ResolveAggPrograms(const PhysicalPlan* agg, ExecContext* ctx,
                               const std::function<void(bool)>& record) {
  const std::vector<plan::OutputCol>& in_cols = agg->children[0]->output_cols;
  ColMap colmap;
  for (size_t i = 0; i < in_cols.size(); ++i) {
    colmap[in_cols[i].id] = static_cast<int>(i);
  }
  const expr::CompileEnv env = expr::MakeCompileEnv(colmap, in_cols);
  AggPrograms progs(agg->aggs.size());
  for (size_t i = 0; i < progs.size(); ++i) {
    const plan::AggItem& item = agg->aggs[i];
    if (!HasArg(item)) continue;
    progs[i] = expr::ResolveProgram(
        agg, expr::kSlotAggBase + static_cast<int>(i), item.arg.get(), env,
        /*as_predicate=*/false, ctx);
    record(progs[i] != nullptr);
  }
  return progs;
}

GroupTable::GroupTable(const PhysicalPlan& agg)
    : aggs_(&agg.aggs), key_pos_(GroupKeyPositions(agg)) {
  groups_.reserve(ReserveHint(agg.est_rows));
  order_.reserve(ReserveHint(agg.est_rows));
}

void GroupTable::Drain(Executor* input, const AggPrograms& progs,
                       ExecContext* ctx) {
  const std::vector<plan::AggItem>& aggs = *aggs_;
  const size_t na = aggs.size();
  const uint64_t group_bytes = ModeledGroupBytes(key_pos_.size(), na);
  expr::ExprExecState state;
  RowBatch b;
  std::vector<std::vector<Value>> argv(na);
  const EvalContext bev{
      .colmap = &input->colmap(), .params = &ctx->params, .batch = &b};
  while (!ctx->Failed() && input->NextBatch(&b)) {
    const size_t n = b.ActiveSize();
    if (n == 0) continue;
    for (size_t i = 0; i < na; ++i) {
      if (!HasArg(aggs[i])) continue;
      if (progs[i] != nullptr) {
        progs[i]->EvalColumn(b, &state, &argv[i]);
      } else {
        EvalExprBatch(*aggs[i].arg, bev, &argv[i]);
      }
    }
    // The group of the probe key; nullptr once the governor trips.
    auto find_or_insert = [&]() -> std::vector<AggAcc>* {
      auto it = groups_.find(probe_);
      if (it == groups_.end()) {
        if (!ctx->GovernorCharge(1, group_bytes)) return nullptr;
        it = groups_.emplace(probe_, NewGroup(aggs)).first;
        order_.push_back(&*it);
      }
      return &it->second.accs;
    };
    // A global aggregate's one group (empty key) is looked up once per
    // batch instead of once per row.
    std::vector<AggAcc>* global = nullptr;
    if (key_pos_.empty()) {
      probe_.clear();
      if ((global = find_or_insert()) == nullptr) return;
    }
    for (size_t k = 0; k < n; ++k) {
      std::vector<AggAcc>* group = global;
      if (group == nullptr) {
        const uint32_t r = b.ActiveIndex(k);
        probe_.clear();
        for (int p : key_pos_) probe_.push_back(b.At(p, r));
        if ((group = find_or_insert()) == nullptr) return;
      }
      std::vector<AggAcc>& accs = *group;
      for (size_t i = 0; i < na; ++i) {
        if (HasArg(aggs[i])) {
          accs[i].Accumulate(argv[i][k]);
        } else {
          accs[i].Accumulate(Value::Null());
        }
      }
    }
  }
}

void GroupTable::MergeFrom(GroupTable&& other) {
  for (Map::value_type* entry : other.order_) {
    auto it = groups_.find(entry->first);
    if (it == groups_.end()) {
      // Moving the node keeps `entry` pointing at it, now in this table.
      groups_.insert(other.groups_.extract(entry->first));
      order_.push_back(entry);
      continue;
    }
    for (size_t i = 0; i < it->second.accs.size(); ++i) {
      it->second.accs[i].MergeFrom(entry->second.accs[i]);
    }
  }
  other.order_.clear();
}

std::vector<Row> GroupTable::Finalize() const {
  if (order_.empty() && key_pos_.empty()) {
    return {FinalizeGroup({}, NewGroup(*aggs_))};
  }
  std::vector<Row> out;
  out.reserve(order_.size());
  for (const Map::value_type* entry : order_) {
    out.push_back(FinalizeGroup(entry->first, entry->second));
  }
  return out;
}

namespace {

/// Drains its input into one GroupTable on Init, then emits the groups.
class HashAggregateExec : public Executor {
 public:
  HashAggregateExec(const PhysicalPlan* plan, ExecContext* ctx,
                    std::unique_ptr<Executor> child)
      : Executor(plan, ctx), child_(std::move(child)) {}

  void InitImpl() override {
    child_->Init();
    results_.clear();
    pos_ = 0;
    GroupTable table(*plan_);
    table.Drain(child_.get(),
                ResolveAggPrograms(plan_, ctx_,
                                   [this](bool c) { RecordExprMode(c); }),
                ctx_);
    ChargeMem(table.bytes());
    if (ctx_->Failed()) return;
    results_ = table.Finalize();
  }

  bool NextBatchImpl(RowBatch* out) override {
    return EmitRows(&results_, &pos_, out);
  }

 private:
  std::unique_ptr<Executor> child_;
  std::vector<Row> results_;
  size_t pos_ = 0;
};

/// Streaming aggregation over input sorted by the grouping columns: emits a
/// group when the key changes (exploits interesting orders, §3).
class StreamAggregateExec : public Executor {
 public:
  StreamAggregateExec(const PhysicalPlan* plan, ExecContext* ctx,
                      std::unique_ptr<Executor> child)
      : Executor(plan, ctx), child_(std::move(child)), in_(child_.get()) {}

  void InitImpl() override {
    child_->Init();
    in_.Reset();
    key_pos_ = GroupKeyPositions(*plan_);
    done_ = false;
    has_current_ = false;
  }

  /// Appends finished groups until the batch is full. The input row that
  /// ends a group starts the next one, which carries across calls.
  bool NextBatchImpl(RowBatch* out) override {
    if (done_) return false;
    out->Reset(plan_->output_cols.size(), batch_capacity_);
    Row in;
    while (!out->full()) {
      if (!in_.NextRow(&in)) {
        done_ = true;
        if (has_current_) {
          out->AppendRow(FinalizeGroup(std::move(current_key_), current_));
        } else if (plan_->group_by.empty()) {
          // Scalar aggregate over empty input still yields one row.
          out->AppendRow(FinalizeGroup({}, NewGroup(plan_->aggs)));
        }
        break;
      }
      Row key;
      key.reserve(key_pos_.size());
      for (int p : key_pos_) key.push_back(in[p]);
      const bool emit = has_current_ && !RowEq()(key, current_key_);
      if (emit) {
        out->AppendRow(FinalizeGroup(std::move(current_key_), current_));
      }
      if (emit || !has_current_) {
        current_key_ = std::move(key);
        current_ = NewGroup(plan_->aggs);
        has_current_ = true;
      }
      Accumulate(in);
    }
    return out->num_rows() > 0 && !ctx_->Failed();
  }

 private:
  void Accumulate(const Row& in) {
    EvalContext ev{&child_->colmap(), &in, &ctx_->params};
    for (size_t i = 0; i < plan_->aggs.size(); ++i) {
      const plan::AggItem& item = plan_->aggs[i];
      current_.accs[i].Accumulate(HasArg(item) ? EvalExpr(*item.arg, ev)
                                               : Value::Null());
    }
  }

  std::unique_ptr<Executor> child_;
  ChildCursor in_;
  std::vector<int> key_pos_;
  bool done_ = false;
  bool has_current_ = false;
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
