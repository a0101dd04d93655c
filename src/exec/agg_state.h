// Hash-aggregation state, shared by the serial HashAggregate
// (agg_executors.cc) and the parallel gather's per-worker partial
// aggregation (parallel_executors.cc), plus the per-aggregate accumulators
// the streaming aggregate uses too.
//
// GroupTable is the one hash-aggregation table: it drains an input batch by
// batch (group-key extraction by key position, find-or-insert in first-seen
// order, the per-group governor charge, accumulation from column-evaluated
// arguments), merges partials and finalizes the result rows. The parallel
// gather fills one table per worker and merges them in worker order — the
// paper's staged aggregation (§4.1.3: partial aggregates, then a combine
// step; DESIGN.md §3.8).
//
// AggAcc::MergeFrom combines two partial accumulations of disjoint input
// partitions into the state a single accumulation over their union would
// have produced. DISTINCT partials merge by re-accumulating the other
// side's distinct set, so cross-partition duplicates collapse exactly as
// they would have serially.
#ifndef QOPT_EXEC_AGG_STATE_H_
#define QOPT_EXEC_AGG_STATE_H_

#include <functional>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "exec/executors.h"
#include "exec/expr_compile.h"
#include "plan/logical_plan.h"

namespace qopt::exec::internal {

/// Accumulator for one aggregate function instance.
class AggAcc {
 public:
  explicit AggAcc(const plan::AggItem* item) : item_(item) {}

  void Accumulate(const Value& v) {
    if (item_->func == ast::AggFunc::kCountStar) {
      ++count_;
      return;
    }
    if (v.is_null()) return;
    if (item_->distinct && !distinct_.insert(v).second) return;
    ++count_;
    switch (item_->func) {
      case ast::AggFunc::kSum:
      case ast::AggFunc::kAvg:
        sum_ += v.AsNumeric();
        if (v.type() == TypeId::kInt64) isum_ += v.AsInt();
        else all_int_ = false;
        break;
      case ast::AggFunc::kMin:
        if (min_.is_null() || v.Compare(min_) < 0) min_ = v;
        break;
      case ast::AggFunc::kMax:
        if (max_.is_null() || v.Compare(max_) > 0) max_ = v;
        break;
      default:
        break;
    }
  }

  /// Folds another partial accumulation (over a disjoint input partition)
  /// into this one.
  void MergeFrom(const AggAcc& other) {
    if (item_->func == ast::AggFunc::kCountStar) {
      count_ += other.count_;
      return;
    }
    if (item_->distinct) {
      // Re-accumulate the other partition's distinct values; the insert
      // check collapses values seen by both partitions.
      for (const Value& v : other.distinct_) Accumulate(v);
      return;
    }
    count_ += other.count_;
    switch (item_->func) {
      case ast::AggFunc::kSum:
      case ast::AggFunc::kAvg:
        sum_ += other.sum_;
        isum_ += other.isum_;
        all_int_ = all_int_ && other.all_int_;
        break;
      case ast::AggFunc::kMin:
        if (!other.min_.is_null() &&
            (min_.is_null() || other.min_.Compare(min_) < 0)) {
          min_ = other.min_;
        }
        break;
      case ast::AggFunc::kMax:
        if (!other.max_.is_null() &&
            (max_.is_null() || other.max_.Compare(max_) > 0)) {
          max_ = other.max_;
        }
        break;
      default:
        break;
    }
  }

  Value Finalize() const {
    switch (item_->func) {
      case ast::AggFunc::kCountStar:
      case ast::AggFunc::kCount:
        return Value::Int(count_);
      case ast::AggFunc::kSum:
        if (count_ == 0) return Value::Null();
        return all_int_ ? Value::Int(isum_) : Value::Double(sum_);
      case ast::AggFunc::kAvg:
        if (count_ == 0) return Value::Null();
        return Value::Double(sum_ / static_cast<double>(count_));
      case ast::AggFunc::kMin:
        return min_;
      case ast::AggFunc::kMax:
        return max_;
    }
    return Value::Null();
  }

 private:
  const plan::AggItem* item_;
  int64_t count_ = 0;
  double sum_ = 0;
  int64_t isum_ = 0;
  bool all_int_ = true;
  Value min_, max_;
  std::set<Value> distinct_;
};

/// Group state: one accumulator per aggregate.
struct Group {
  std::vector<AggAcc> accs;
};

/// Compiled programs of an aggregate's arguments, one per AggItem; null
/// where the item reads no argument or its argument runs interpreted.
using AggPrograms = std::vector<std::shared_ptr<const expr::ExprProgram>>;

/// Resolves the argument programs of aggregate node `agg` over its input
/// (`agg->children[0]`'s output columns), once per query: the compile time
/// and the compiled/fallback metrics are charged here, and workers share the
/// immutable programs. `record` receives each argument slot's mode (true =
/// compiled) for EXPLAIN ANALYZE's "[expr: ...]".
AggPrograms ResolveAggPrograms(const PhysicalPlan* agg, ExecContext* ctx,
                               const std::function<void(bool)>& record);

/// The hash-aggregation table (see the file comment). Groups keep their
/// first-seen order, which is the output order.
class GroupTable {
 public:
  /// An empty table for aggregate node `agg`, keyed by its group-by
  /// columns' positions in its input and pre-sized for its estimated groups.
  explicit GroupTable(const PhysicalPlan& agg);
  // order_ points into groups_' nodes: a copy would point into the
  // original, while a move carries the nodes along.
  GroupTable(const GroupTable&) = delete;
  GroupTable& operator=(const GroupTable&) = delete;
  GroupTable(GroupTable&&) = default;

  /// Folds every batch of `input` in. Arguments evaluate a batch at a time:
  /// through `progs` where compiled, else EvalExprBatch. Each key is looked
  /// up in a reused probe row first, so a row of a known group allocates
  /// nothing; a new group is charged ModeledGroupBytes to `ctx`'s governor
  /// before it is inserted, and a trip stops the drain with the error
  /// recorded on `ctx`.
  void Drain(Executor* input, const AggPrograms& progs, ExecContext* ctx);

  /// Folds `other`, a partial over a disjoint input partition, in: its new
  /// groups follow this table's in their first-seen order, shared ones
  /// merge through AggAcc::MergeFrom. Not charged: each partial charged
  /// its own groups.
  void MergeFrom(GroupTable&& other);

  /// The result rows in group order. A scalar aggregate (no group keys)
  /// over empty input still yields one row (COUNT(*) = 0, SUM = NULL, ...).
  std::vector<Row> Finalize() const;

  /// Modeled footprint of the groups held: the sum of their charges.
  uint64_t bytes() const {
    return order_.size() * ModeledGroupBytes(key_pos_.size(), aggs_->size());
  }

 private:
  using Map = std::unordered_map<Row, Group, RowHash, RowEq>;

  const std::vector<plan::AggItem>* aggs_;
  std::vector<int> key_pos_;
  Map groups_;
  /// Entries in first-seen order (node pointers survive rehashing).
  std::vector<Map::value_type*> order_;
  Row probe_;  ///< Scratch key for find-before-insert.
};

}  // namespace qopt::exec::internal

#endif  // QOPT_EXEC_AGG_STATE_H_
