#include "exec/physical_plan.h"

#include <cstdio>
#include <set>

namespace qopt::exec {

const char* PhysOpKindName(PhysOpKind kind) {
  switch (kind) {
    case PhysOpKind::kTableScan: return "TableScan";
    case PhysOpKind::kIndexScan: return "IndexScan";
    case PhysOpKind::kFilter: return "Filter";
    case PhysOpKind::kProject: return "Project";
    case PhysOpKind::kNestedLoopJoin: return "NestedLoopJoin";
    case PhysOpKind::kIndexNestedLoopJoin: return "IndexNestedLoopJoin";
    case PhysOpKind::kMergeJoin: return "MergeJoin";
    case PhysOpKind::kHashJoin: return "HashJoin";
    case PhysOpKind::kSort: return "Sort";
    case PhysOpKind::kHashAggregate: return "HashAggregate";
    case PhysOpKind::kStreamAggregate: return "StreamAggregate";
    case PhysOpKind::kDistinct: return "Distinct";
    case PhysOpKind::kLimit: return "Limit";
    case PhysOpKind::kApply: return "Apply";
    case PhysOpKind::kUnionAll: return "UnionAll";
    case PhysOpKind::kHashExcept: return "HashExcept";
    case PhysOpKind::kHashIntersect: return "HashIntersect";
  }
  return "?";
}

int PhysicalPlan::FindOutput(ColumnId id) const {
  for (size_t i = 0; i < output_cols.size(); ++i) {
    if (output_cols[i].id == id) return static_cast<int>(i);
  }
  return -1;
}

std::string PhysicalPlan::ToString(
    int indent, const std::unordered_set<const PhysicalPlan*>* batch_nodes,
    const std::unordered_set<const PhysicalPlan*>* parallel_roots,
    const PlanAnnotations* annotations) const {
  std::string pad(indent * 2, ' ');
  std::string s = pad + PhysOpKindName(kind);
  switch (kind) {
    case PhysOpKind::kTableScan:
    case PhysOpKind::kIndexScan:
      s += "(" + alias;
      if (kind == PhysOpKind::kIndexScan) {
        s += ", index=" + std::to_string(index_id);
        if (lo.has_value()) {
          s += lo->inclusive ? " lo>=" : " lo>";
          s += lo->value.ToString();
        }
        if (hi.has_value()) {
          s += hi->inclusive ? " hi<=" : " hi<";
          s += hi->value.ToString();
        }
      }
      if (predicate) s += ", filter=" + predicate->ToString();
      s += ")";
      break;
    case PhysOpKind::kFilter:
      s += "(" + (predicate ? predicate->ToString() : "true") + ")";
      break;
    case PhysOpKind::kProject: {
      s += "(";
      for (size_t i = 0; i < proj_exprs.size(); ++i) {
        if (i) s += ", ";
        s += proj_exprs[i]->ToString();
      }
      s += ")";
      break;
    }
    case PhysOpKind::kNestedLoopJoin:
      s += "[" + std::string(plan::JoinTypeName(join_type)) + "](" +
           (predicate ? predicate->ToString() : "true") + ")";
      break;
    case PhysOpKind::kIndexNestedLoopJoin:
    case PhysOpKind::kMergeJoin:
    case PhysOpKind::kHashJoin:
      s += "[" + std::string(plan::JoinTypeName(join_type)) + "](" +
           left_key.ToString() + " = " + right_key.ToString();
      if (predicate) s += ", residual=" + predicate->ToString();
      s += ")";
      break;
    case PhysOpKind::kSort: {
      s += "(";
      for (size_t i = 0; i < sort_keys.size(); ++i) {
        if (i) s += ", ";
        s += sort_keys[i].column.ToString();
        if (!sort_keys[i].ascending) s += " DESC";
      }
      s += ")";
      break;
    }
    case PhysOpKind::kHashAggregate:
    case PhysOpKind::kStreamAggregate: {
      s += "(group=[";
      for (size_t i = 0; i < group_by.size(); ++i) {
        if (i) s += ", ";
        s += group_by[i].ToString();
      }
      s += "], aggs=[";
      for (size_t i = 0; i < aggs.size(); ++i) {
        if (i) s += ", ";
        s += aggs[i].name;
      }
      s += "])";
      break;
    }
    case PhysOpKind::kDistinct:
      break;
    case PhysOpKind::kLimit:
      s += "(" + std::to_string(limit) + ")";
      break;
    case PhysOpKind::kApply: {
      const char* t = apply_type == plan::ApplyType::kSemi
                          ? "Semi"
                          : (apply_type == plan::ApplyType::kAnti ? "Anti"
                                                                  : "Scalar");
      s += std::string("[") + t + "](" +
           (predicate ? predicate->ToString() : "true") + ")";
      break;
    }
    case PhysOpKind::kUnionAll:
    case PhysOpKind::kHashExcept:
    case PhysOpKind::kHashIntersect:
      break;
  }
  char ann[96];
  std::snprintf(ann, sizeof(ann), "  [rows=%.0f, %s]", est_rows,
                est_cost.ToString().c_str());
  s += ann;
  if (total_partitions > 0) {
    s += " [partitions: " + std::to_string(partitions.size()) + "/" +
         std::to_string(total_partitions) + "]";
  }
  if (parallel_roots != nullptr && parallel_roots->count(this) > 0) {
    s += " [parallel]";
  } else if (batch_nodes != nullptr && batch_nodes->count(this) > 0) {
    s += " [batch]";
  }
  if (annotations != nullptr) {
    auto it = annotations->find(this);
    if (it != annotations->end()) s += it->second;
  }
  s += "\n";
  for (const PhysPtr& c : children) {
    s += c->ToString(indent + 1, batch_nodes, parallel_roots, annotations);
  }
  return s;
}

namespace {

PhysPtr NewNode(PhysOpKind kind) {
  auto p = std::make_shared<PhysicalPlan>();
  p->kind = kind;
  return p;
}

}  // namespace

PhysPtr MakeTableScan(int table_id, int rel_id, std::string alias,
                      std::vector<plan::OutputCol> cols, plan::BExpr filter) {
  PhysPtr p = NewNode(PhysOpKind::kTableScan);
  p->table_id = table_id;
  p->rel_id = rel_id;
  p->alias = std::move(alias);
  p->output_cols = std::move(cols);
  p->predicate = std::move(filter);
  return p;
}

PhysPtr MakeIndexScan(int table_id, int rel_id, std::string alias,
                      std::vector<plan::OutputCol> cols, int index_id,
                      std::optional<ScanBound> lo, std::optional<ScanBound> hi,
                      plan::BExpr filter) {
  PhysPtr p = NewNode(PhysOpKind::kIndexScan);
  p->table_id = table_id;
  p->rel_id = rel_id;
  p->alias = std::move(alias);
  p->output_cols = std::move(cols);
  p->index_id = index_id;
  p->lo = std::move(lo);
  p->hi = std::move(hi);
  p->predicate = std::move(filter);
  return p;
}

PhysPtr MakeFilterExec(PhysPtr child, plan::BExpr predicate) {
  PhysPtr p = NewNode(PhysOpKind::kFilter);
  p->output_cols = child->output_cols;
  p->children = {std::move(child)};
  p->predicate = std::move(predicate);
  return p;
}

PhysPtr MakeProjectExec(PhysPtr child, std::vector<plan::BExpr> exprs,
                        std::vector<plan::OutputCol> cols) {
  PhysPtr p = NewNode(PhysOpKind::kProject);
  p->children = {std::move(child)};
  p->proj_exprs = std::move(exprs);
  p->output_cols = std::move(cols);
  return p;
}

namespace {

std::vector<plan::OutputCol> JoinOutputCols(plan::JoinType type,
                                            const PhysPtr& left,
                                            const PhysPtr& right) {
  std::vector<plan::OutputCol> cols = left->output_cols;
  if (type != plan::JoinType::kSemi && type != plan::JoinType::kAnti) {
    cols.insert(cols.end(), right->output_cols.begin(),
                right->output_cols.end());
  }
  return cols;
}

}  // namespace

PhysPtr MakeNestedLoopJoin(plan::JoinType type, PhysPtr left, PhysPtr right,
                           plan::BExpr predicate) {
  PhysPtr p = NewNode(PhysOpKind::kNestedLoopJoin);
  p->join_type = type;
  p->output_cols = JoinOutputCols(type, left, right);
  p->children = {std::move(left), std::move(right)};
  p->predicate = std::move(predicate);
  return p;
}

PhysPtr MakeIndexNLJoin(plan::JoinType type, PhysPtr left, PhysPtr right,
                        ColumnId left_key, ColumnId right_key,
                        plan::BExpr residual) {
  PhysPtr p = NewNode(PhysOpKind::kIndexNestedLoopJoin);
  p->join_type = type;
  p->output_cols = JoinOutputCols(type, left, right);
  p->children = {std::move(left), std::move(right)};
  p->left_key = left_key;
  p->right_key = right_key;
  p->predicate = std::move(residual);
  return p;
}

PhysPtr MakeMergeJoin(plan::JoinType type, PhysPtr left, PhysPtr right,
                      ColumnId left_key, ColumnId right_key,
                      plan::BExpr residual) {
  PhysPtr p = NewNode(PhysOpKind::kMergeJoin);
  p->join_type = type;
  p->output_cols = JoinOutputCols(type, left, right);
  p->children = {std::move(left), std::move(right)};
  p->left_key = left_key;
  p->right_key = right_key;
  p->predicate = std::move(residual);
  return p;
}

PhysPtr MakeHashJoin(plan::JoinType type, PhysPtr left, PhysPtr right,
                     ColumnId left_key, ColumnId right_key,
                     plan::BExpr residual) {
  PhysPtr p = NewNode(PhysOpKind::kHashJoin);
  p->join_type = type;
  p->output_cols = JoinOutputCols(type, left, right);
  p->children = {std::move(left), std::move(right)};
  p->left_key = left_key;
  p->right_key = right_key;
  p->predicate = std::move(residual);
  return p;
}

PhysPtr MakeSortExec(PhysPtr child, std::vector<plan::SortKey> keys) {
  PhysPtr p = NewNode(PhysOpKind::kSort);
  p->output_cols = child->output_cols;
  p->children = {std::move(child)};
  p->sort_keys = keys;
  p->output_order = std::move(keys);
  return p;
}

namespace {

PhysPtr MakeAggregate(PhysOpKind kind, PhysPtr child,
                      std::vector<ColumnId> group_by,
                      std::vector<plan::AggItem> aggs,
                      std::vector<plan::OutputCol> cols) {
  PhysPtr p = NewNode(kind);
  p->children = {std::move(child)};
  p->group_by = std::move(group_by);
  p->aggs = std::move(aggs);
  p->output_cols = std::move(cols);
  return p;
}

}  // namespace

PhysPtr MakeHashAggregate(PhysPtr child, std::vector<ColumnId> group_by,
                          std::vector<plan::AggItem> aggs,
                          std::vector<plan::OutputCol> cols) {
  return MakeAggregate(PhysOpKind::kHashAggregate, std::move(child),
                       std::move(group_by), std::move(aggs), std::move(cols));
}

PhysPtr MakeStreamAggregate(PhysPtr child, std::vector<ColumnId> group_by,
                            std::vector<plan::AggItem> aggs,
                            std::vector<plan::OutputCol> cols) {
  return MakeAggregate(PhysOpKind::kStreamAggregate, std::move(child),
                       std::move(group_by), std::move(aggs), std::move(cols));
}

PhysPtr MakeDistinctExec(PhysPtr child) {
  PhysPtr p = NewNode(PhysOpKind::kDistinct);
  p->output_cols = child->output_cols;
  p->children = {std::move(child)};
  return p;
}

PhysPtr MakeLimitExec(PhysPtr child, int64_t limit) {
  PhysPtr p = NewNode(PhysOpKind::kLimit);
  p->output_cols = child->output_cols;
  p->output_order = child->output_order;
  p->children = {std::move(child)};
  p->limit = limit;
  return p;
}

PhysPtr MakeApplyExec(plan::ApplyType type, PhysPtr left, PhysPtr right,
                      plan::BExpr predicate, std::set<ColumnId> correlated,
                      ColumnId scalar_output, TypeId scalar_type) {
  PhysPtr p = NewNode(PhysOpKind::kApply);
  p->apply_type = type;
  p->output_cols = left->output_cols;
  if (type == plan::ApplyType::kScalar) {
    p->output_cols.push_back({scalar_output, scalar_type, "<scalar>"});
  }
  p->children = {std::move(left), std::move(right)};
  p->predicate = std::move(predicate);
  p->correlated_cols = std::move(correlated);
  p->scalar_output = scalar_output;
  p->scalar_type = scalar_type;
  return p;
}

PhysPtr MakeUnionAllExec(std::vector<PhysPtr> children,
                         std::vector<plan::OutputCol> cols) {
  PhysPtr p = NewNode(PhysOpKind::kUnionAll);
  p->children = std::move(children);
  p->output_cols = std::move(cols);
  return p;
}

PhysPtr MakeSetOpExec(PhysOpKind kind, PhysPtr left, PhysPtr right,
                      std::vector<plan::OutputCol> cols) {
  QOPT_DCHECK(kind == PhysOpKind::kHashExcept ||
              kind == PhysOpKind::kHashIntersect);
  PhysPtr p = NewNode(kind);
  p->children = {std::move(left), std::move(right)};
  p->output_cols = std::move(cols);
  return p;
}

bool MatchScanPrefilter(const plan::BExpr& conjunct, int rel_id,
                        ScanPrefilter* out) {
  ColumnId col;
  ast::BinaryOp op;
  Value constant;
  if (!plan::MatchColumnConstant(conjunct, &col, &op, &constant) ||
      constant.is_null() || col.rel != rel_id) {
    return false;
  }
  const plan::BExpr& column =
      conjunct->children[0]->kind == plan::BoundKind::kColumn
          ? conjunct->children[0]
          : conjunct->children[1];
  *out = ScanPrefilter{col, column->type, op, std::move(constant)};
  return true;
}

namespace {

bool IsScan(const PhysicalPlan& node) {
  return node.kind == PhysOpKind::kTableScan ||
         node.kind == PhysOpKind::kIndexScan;
}

/// Adds every column some operator in the subtree reads to `read`.
void CollectReadColumns(const PhysicalPlan& node, std::set<ColumnId>* read) {
  if (node.predicate != nullptr) {
    if (IsScan(node)) {
      std::vector<plan::BExpr> conjuncts;
      plan::SplitConjuncts(node.predicate, &conjuncts);
      ScanPrefilter pre;
      for (const plan::BExpr& c : conjuncts) {
        if (!MatchScanPrefilter(c, node.rel_id, &pre)) {
          plan::CollectColumns(c, read);
        }
      }
    } else {
      plan::CollectColumns(node.predicate, read);
    }
  }
  for (const plan::BExpr& e : node.proj_exprs) plan::CollectColumns(e, read);
  if (node.left_key.valid()) read->insert(node.left_key);
  if (node.right_key.valid()) read->insert(node.right_key);
  read->insert(node.group_by.begin(), node.group_by.end());
  for (const plan::AggItem& agg : node.aggs) {
    if (agg.arg != nullptr) plan::CollectColumns(agg.arg, read);
  }
  for (const plan::SortKey& k : node.sort_keys) read->insert(k.column);
  read->insert(node.correlated_cols.begin(), node.correlated_cols.end());
  if (node.scalar_output.valid()) read->insert(node.scalar_output);
  // Positional and whole-row consumers read every input column.
  if (node.kind == PhysOpKind::kUnionAll ||
      node.kind == PhysOpKind::kHashExcept ||
      node.kind == PhysOpKind::kHashIntersect ||
      node.kind == PhysOpKind::kDistinct) {
    for (const PhysPtr& child : node.children) {
      for (const plan::OutputCol& c : child->output_cols) read->insert(c.id);
    }
  }
  for (const PhysPtr& child : node.children) {
    CollectReadColumns(*child, read);
  }
}

/// Copy of `node` with scans narrowed to `read` and pass-through output
/// columns rebuilt from the pruned children.
PhysPtr Prune(const PhysicalPlan& node, const std::set<ColumnId>& read) {
  auto copy = std::make_shared<PhysicalPlan>(node);
  for (size_t i = 0; i < copy->children.size(); ++i) {
    copy->children[i] = Prune(*node.children[i], read);
  }
  switch (node.kind) {
    case PhysOpKind::kTableScan:
    case PhysOpKind::kIndexScan:
      copy->output_cols.clear();
      for (const plan::OutputCol& c : node.output_cols) {
        if (read.count(c.id) > 0) copy->output_cols.push_back(c);
      }
      break;
    case PhysOpKind::kFilter:
    case PhysOpKind::kSort:
    case PhysOpKind::kLimit:
    case PhysOpKind::kDistinct:
      copy->output_cols = copy->children[0]->output_cols;
      break;
    case PhysOpKind::kNestedLoopJoin:
    case PhysOpKind::kIndexNestedLoopJoin:
    case PhysOpKind::kMergeJoin:
    case PhysOpKind::kHashJoin:
      copy->output_cols = JoinOutputCols(node.join_type, copy->children[0],
                                         copy->children[1]);
      break;
    case PhysOpKind::kApply:
      copy->output_cols = copy->children[0]->output_cols;
      if (node.apply_type == plan::ApplyType::kScalar) {
        copy->output_cols.push_back(node.output_cols.back());
      }
      break;
    case PhysOpKind::kProject:
    case PhysOpKind::kHashAggregate:
    case PhysOpKind::kStreamAggregate:
    case PhysOpKind::kUnionAll:
    case PhysOpKind::kHashExcept:
    case PhysOpKind::kHashIntersect:
      break;  // output defined by the operator itself
  }
  return copy;
}

}  // namespace

PhysPtr PruneColumns(const PhysPtr& root) {
  std::set<ColumnId> read;
  for (const plan::OutputCol& c : root->output_cols) read.insert(c.id);
  CollectReadColumns(*root, &read);
  PhysPtr pruned = Prune(*root, read);
  QOPT_DCHECK(pruned->output_cols.size() == root->output_cols.size());
  return pruned;
}

}  // namespace qopt::exec
