#include "plan/binder.h"

#include <functional>
#include <unordered_map>

#include "exec/expr_eval.h"
#include "parser/parser.h"

namespace qopt::plan {

using ast::BinaryOp;
using ast::ExprKind;

namespace {

/// True iff every leaf under `e` is a plain (non-parameterized) literal, so
/// the subtree's value is fixed at bind time. Parameterized literals are
/// excluded — folding them would break plan-cache parameter rebinding.
/// CASE is excluded conservatively (its type inference treats the branch
/// types asymmetrically, so collapsing it could change the static type).
bool IsLiteralOnly(const BoundExpr& e) {
  switch (e.kind) {
    case BoundKind::kLiteral:
      return e.param_index == -1;
    case BoundKind::kBinary:
    case BoundKind::kNot:
    case BoundKind::kNegate:
    case BoundKind::kIsNull:
    case BoundKind::kInList:
    case BoundKind::kLike:
      for (const BExpr& c : e.children) {
        if (c == nullptr || !IsLiteralOnly(*c)) return false;
      }
      return true;
    default:
      return false;
  }
}

/// Bind-time constant folding: a literal-only subtree (`1 + 2` in
/// `1 + 2 < x`) evaluates once here instead of once per row at execution.
/// Binding is bottom-up, so wrapping every composite result site folds
/// maximal literal-only subtrees. Uses the runtime interpreter, so folded
/// semantics (Kleene logic, division by zero -> NULL, int/double
/// promotion) are exactly the per-row semantics. A NULL result keeps the
/// expression's static type — type checks in enclosing operators (AND/OR
/// require kBool) must see the same types as the unfolded tree.
BExpr MaybeFold(BExpr e) {
  if (e == nullptr || e->kind == BoundKind::kLiteral || !IsLiteralOnly(*e)) {
    return e;
  }
  Value v = exec::EvalExpr(*e, exec::EvalContext{});
  auto lit = std::make_shared<BoundExpr>();
  lit->kind = BoundKind::kLiteral;
  lit->type = v.type() == TypeId::kNull ? e->type : v.type();
  lit->literal = std::move(v);
  return BExpr(lit);
}

/// One visible relation in a name-resolution scope.
struct RelEntry {
  std::string alias;
  std::vector<OutputCol> cols;        // ids + types
  std::vector<std::string> names;     // bare column names, parallel to cols
};

/// Lexical scope chain for name resolution; each subquery gets a scope whose
/// parent is the enclosing query's scope. `correlated` collects outer
/// columns referenced from this scope's query (free variables).
struct Scope {
  std::vector<RelEntry> rels;
  Scope* parent = nullptr;
  std::set<ColumnId>* correlated = nullptr;
};

/// Aggregate-analysis context active while binding SELECT/HAVING/ORDER BY
/// of a grouped query.
struct AggContext {
  std::vector<BExpr> group_exprs;          // bound group-by columns
  std::vector<AggItem>* aggs = nullptr;    // collected aggregate items
  int agg_rel = -1;                        // rel id for aggregate outputs
  bool inside_agg = false;
};

/// Bound subtree plus its result-column description.
struct BoundRel {
  LogicalPtr root;
  std::vector<OutputCol> cols;
  std::vector<std::string> names;  // bare output names
};

class BinderImpl {
 public:
  BinderImpl(const Catalog& catalog, int* next_rel)
      : catalog_(catalog), next_rel_(next_rel) {}

  Result<BoundRel> BindSelect(const ast::SelectStatement& stmt, Scope* outer,
                              bool ignore_union = false);

  /// Binds a UNION [ALL] chain with left-associative folding.
  Result<BoundRel> BindUnionChain(const ast::SelectStatement& head,
                                  Scope* scope);

  /// Desugars GROUP BY CUBE/ROLLUP (paper §7.4, [24]) into a UNION ALL of
  /// plain groupings, with NULL placeholders for rolled-up columns.
  Result<BoundRel> BindGroupingSets(const ast::SelectStatement& stmt,
                                    Scope* scope);

 private:
  int NewRel() { return (*next_rel_)++; }

  Result<LogicalPtr> BindFrom(const ast::SelectStatement& stmt, Scope* scope);
  Result<LogicalPtr> BindTableRef(const ast::TableRef& ref, Scope* scope);

  /// Resolves [table.]column in `scope`, walking parents for correlation.
  Result<BExpr> ResolveColumn(const std::string& table,
                              const std::string& column, Scope* scope);

  /// Binds a scalar expression (no subqueries allowed inside).
  Result<BExpr> BindExpr(const ast::Expr& e, Scope* scope, AggContext* agg);

  /// Binds one WHERE/HAVING conjunct that may contain subqueries; Apply
  /// operators are attached to *plan as needed. Returns the residual
  /// predicate (may be TRUE if fully absorbed into an Apply).
  Result<BExpr> BindConjunct(const ast::Expr& e, Scope* scope,
                             AggContext* agg, LogicalPtr* plan);

  /// Binds a subquery and wraps `*plan` in an Apply node.
  Result<BExpr> BindInSubquery(const ast::Expr& e, Scope* scope,
                               AggContext* agg, LogicalPtr* plan);
  Result<BExpr> BindExists(const ast::Expr& e, Scope* scope, LogicalPtr* plan);
  Result<BExpr> BindScalarSubquery(const ast::Expr& e, Scope* scope,
                                   LogicalPtr* plan);

  const Catalog& catalog_;
  int* next_rel_;
};

// Collects every expression attached to `op` (not descending into children).
void OwnExprs(const LogicalOp& op, std::vector<BExpr>* out) {
  if (op.predicate) out->push_back(op.predicate);
  for (const BExpr& e : op.proj_exprs) out->push_back(e);
  for (const BExpr& e : op.group_by) out->push_back(e);
  for (const AggItem& a : op.aggs) {
    if (a.arg) out->push_back(a.arg);
  }
  for (const SortKey& k : op.sort_keys) {
    out->push_back(MakeColumn(k.column, TypeId::kNull, ""));
  }
}

void CollectDefinedRels(const LogicalOp& op, std::set<int>* defined) {
  if (op.kind == LogicalOpKind::kGet) defined->insert(op.rel_id);
  for (const OutputCol& c : op.proj_cols) defined->insert(c.id.rel);
  for (const AggItem& a : op.aggs) defined->insert(a.output.rel);
  if (op.kind == LogicalOpKind::kApply &&
      op.apply_type == ApplyType::kScalar) {
    defined->insert(op.scalar_output.rel);
  }
  for (const LogicalPtr& c : op.children) CollectDefinedRels(*c, defined);
}

void CollectReferenced(const LogicalOp& op, std::set<ColumnId>* refs) {
  std::vector<BExpr> exprs;
  OwnExprs(op, &exprs);
  for (const BExpr& e : exprs) CollectColumns(e, refs);
  for (const LogicalPtr& c : op.children) CollectReferenced(*c, refs);
}

}  // namespace

std::set<ColumnId> FreeColumns(const LogicalPtr& op) {
  std::set<int> defined;
  CollectDefinedRels(*op, &defined);
  std::set<ColumnId> refs;
  CollectReferenced(*op, &refs);
  std::set<ColumnId> free;
  for (ColumnId c : refs) {
    if (!defined.count(c.rel)) free.insert(c);
  }
  return free;
}

namespace {

Result<BExpr> BinderImpl::ResolveColumn(const std::string& table,
                                        const std::string& column,
                                        Scope* scope) {
  Scope* s = scope;
  while (s != nullptr) {
    const OutputCol* found = nullptr;
    for (const RelEntry& rel : s->rels) {
      if (!table.empty() && rel.alias != table) continue;
      for (size_t i = 0; i < rel.names.size(); ++i) {
        if (rel.names[i] == column) {
          if (found != nullptr) {
            return Status::BindError("ambiguous column '" + column + "'");
          }
          found = &rel.cols[i];
        }
      }
    }
    if (found != nullptr) {
      // Reference into an ancestor scope is a correlation: record it in
      // every subquery boundary crossed.
      for (Scope* t = scope; t != s; t = t->parent) {
        if (t->correlated != nullptr) t->correlated->insert(found->id);
      }
      std::string display = table.empty() ? column : table + "." + column;
      return MakeColumn(found->id, found->type, display);
    }
    s = s->parent;
  }
  return Status::BindError("unknown column '" +
                           (table.empty() ? column : table + "." + column) +
                           "'");
}

Result<LogicalPtr> BinderImpl::BindTableRef(const ast::TableRef& ref,
                                            Scope* scope) {
  switch (ref.kind) {
    case ast::TableRefKind::kBase: {
      // Views are parsed and inlined as derived tables (§4.2.1).
      if (const ViewDef* view = catalog_.GetView(ref.name)) {
        QOPT_ASSIGN_OR_RETURN(auto body, parser::ParseSelect(view->sql));
        ast::TableRef derived;
        derived.kind = ast::TableRefKind::kDerived;
        derived.derived = std::move(body);
        derived.alias = ref.alias.empty() ? ref.name : ref.alias;
        return BindTableRef(derived, scope);
      }
      const TableDef* table = catalog_.GetTable(ref.name);
      if (table == nullptr) {
        return Status::BindError("unknown table '" + ref.name + "'");
      }
      int rel = NewRel();
      std::string alias = ref.alias.empty() ? ref.name : ref.alias;
      for (const RelEntry& existing : scope->rels) {
        if (existing.alias == alias) {
          return Status::BindError("duplicate alias '" + alias + "'");
        }
      }
      LogicalPtr get = MakeGet(*table, rel, alias);
      RelEntry entry;
      entry.alias = alias;
      entry.cols = get->get_cols;
      for (const ColumnDef& c : table->columns) entry.names.push_back(c.name);
      scope->rels.push_back(std::move(entry));
      return get;
    }
    case ast::TableRefKind::kDerived: {
      // Bind the derived table in a fresh scope (it cannot see siblings,
      // but can see outer scopes through `scope->parent` for correlated
      // derived tables — which we disallow for simplicity).
      Scope inner;
      inner.parent = nullptr;
      QOPT_ASSIGN_OR_RETURN(BoundRel sub, BindSelect(*ref.derived, &inner));
      RelEntry entry;
      entry.alias = ref.alias;
      entry.cols = sub.cols;
      entry.names = sub.names;
      scope->rels.push_back(std::move(entry));
      return sub.root;
    }
    case ast::TableRefKind::kJoin: {
      QOPT_ASSIGN_OR_RETURN(LogicalPtr left, BindTableRef(*ref.left, scope));
      QOPT_ASSIGN_OR_RETURN(LogicalPtr right, BindTableRef(*ref.right, scope));
      if (ref.join_kind == ast::JoinKind::kCross) {
        return MakeJoin(JoinType::kCross, std::move(left), std::move(right),
                        nullptr);
      }
      BExpr cond;
      if (ref.on) {
        QOPT_ASSIGN_OR_RETURN(cond, BindExpr(*ref.on, scope, nullptr));
        if (cond->type != TypeId::kBool) {
          return Status::BindError("join condition must be boolean");
        }
      }
      JoinType jt = ref.join_kind == ast::JoinKind::kLeft
                        ? JoinType::kLeftOuter
                        : JoinType::kInner;
      return MakeJoin(jt, std::move(left), std::move(right), std::move(cond));
    }
  }
  return Status::Internal("bad table ref");
}

Result<LogicalPtr> BinderImpl::BindFrom(const ast::SelectStatement& stmt,
                                        Scope* scope) {
  if (stmt.from.empty()) {
    return Status::NotImplemented("SELECT without FROM is not supported");
  }
  LogicalPtr plan;
  for (const ast::TableRefPtr& ref : stmt.from) {
    QOPT_ASSIGN_OR_RETURN(LogicalPtr item, BindTableRef(*ref, scope));
    if (!plan) {
      plan = std::move(item);
    } else {
      // Comma-separated FROM items are a cross product; WHERE predicates
      // promote them to inner joins during rewrite.
      plan = MakeJoin(JoinType::kCross, std::move(plan), std::move(item),
                      nullptr);
    }
  }
  return plan;
}

Result<BExpr> BinderImpl::BindExpr(const ast::Expr& e, Scope* scope,
                                   AggContext* agg) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return MakeLiteral(e.literal, e.param_index);
    case ExprKind::kColumnRef: {
      // In an aggregate context, a select-list alias may name an aggregate
      // output (checked by caller); plain columns must be grouping columns
      // unless we are inside an aggregate call.
      QOPT_ASSIGN_OR_RETURN(BExpr col, ResolveColumn(e.table, e.column, scope));
      if (agg != nullptr && !agg->inside_agg) {
        bool grouped = false;
        for (const BExpr& g : agg->group_exprs) {
          if (g->kind == BoundKind::kColumn && col->kind == BoundKind::kColumn &&
              g->column == col->column) {
            grouped = true;
            break;
          }
        }
        if (!grouped) {
          return Status::BindError("column '" + col->name +
                                   "' must appear in GROUP BY or inside an "
                                   "aggregate function");
        }
      }
      return col;
    }
    case ExprKind::kStar:
      return Status::BindError("'*' is only allowed in SELECT list/COUNT(*)");
    case ExprKind::kBinary: {
      QOPT_ASSIGN_OR_RETURN(BExpr lhs, BindExpr(*e.child, scope, agg));
      QOPT_ASSIGN_OR_RETURN(BExpr rhs, BindExpr(*e.rhs, scope, agg));
      switch (e.op) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          if (lhs->type != TypeId::kBool || rhs->type != TypeId::kBool) {
            return Status::BindError("AND/OR operands must be boolean");
          }
          break;
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
          if ((!IsNumeric(lhs->type) && lhs->type != TypeId::kNull) ||
              (!IsNumeric(rhs->type) && rhs->type != TypeId::kNull)) {
            return Status::BindError("arithmetic requires numeric operands");
          }
          break;
        default:
          if (!TypesComparable(lhs->type, rhs->type)) {
            return Status::BindError(
                "cannot compare " + std::string(TypeName(lhs->type)) +
                " with " + TypeName(rhs->type));
          }
      }
      return MaybeFold(MakeBinary(e.op, std::move(lhs), std::move(rhs)));
    }
    case ExprKind::kNot: {
      QOPT_ASSIGN_OR_RETURN(BExpr inner, BindExpr(*e.child, scope, agg));
      if (inner->type != TypeId::kBool) {
        return Status::BindError("NOT operand must be boolean");
      }
      return MaybeFold(MakeNot(std::move(inner)));
    }
    case ExprKind::kNegate: {
      QOPT_ASSIGN_OR_RETURN(BExpr inner, BindExpr(*e.child, scope, agg));
      if (!IsNumeric(inner->type)) {
        return Status::BindError("unary minus requires numeric operand");
      }
      auto n = std::make_shared<BoundExpr>();
      n->kind = BoundKind::kNegate;
      n->type = inner->type;
      n->children = {std::move(inner)};
      return MaybeFold(BExpr(n));
    }
    case ExprKind::kIsNull: {
      QOPT_ASSIGN_OR_RETURN(BExpr inner, BindExpr(*e.child, scope, agg));
      return MaybeFold(MakeIsNull(std::move(inner), e.negated));
    }
    case ExprKind::kBetween: {
      QOPT_ASSIGN_OR_RETURN(BExpr v, BindExpr(*e.child, scope, agg));
      QOPT_ASSIGN_OR_RETURN(BExpr lo, BindExpr(*e.args[0], scope, agg));
      QOPT_ASSIGN_OR_RETURN(BExpr hi, BindExpr(*e.args[1], scope, agg));
      // Desugar to v >= lo AND v <= hi.
      return MaybeFold(MakeBinary(BinaryOp::kAnd,
                                  MakeBinary(BinaryOp::kGe, v, lo),
                                  MakeBinary(BinaryOp::kLe, v, hi)));
    }
    case ExprKind::kInList: {
      QOPT_ASSIGN_OR_RETURN(BExpr v, BindExpr(*e.child, scope, agg));
      auto n = std::make_shared<BoundExpr>();
      n->kind = BoundKind::kInList;
      n->type = TypeId::kBool;
      n->negated = e.negated;
      n->children.push_back(std::move(v));
      for (const ast::ExprPtr& a : e.args) {
        QOPT_ASSIGN_OR_RETURN(BExpr item, BindExpr(*a, scope, agg));
        n->children.push_back(std::move(item));
      }
      return MaybeFold(BExpr(n));
    }
    case ExprKind::kLike: {
      QOPT_ASSIGN_OR_RETURN(BExpr v, BindExpr(*e.child, scope, agg));
      QOPT_ASSIGN_OR_RETURN(BExpr pat, BindExpr(*e.args[0], scope, agg));
      if (pat->kind != BoundKind::kLiteral ||
          pat->type != TypeId::kString) {
        return Status::NotImplemented("LIKE pattern must be a string literal");
      }
      auto n = std::make_shared<BoundExpr>();
      n->kind = BoundKind::kLike;
      n->type = TypeId::kBool;
      n->children = {std::move(v), std::move(pat)};
      return MaybeFold(BExpr(n));
    }
    case ExprKind::kCase: {
      auto n = std::make_shared<BoundExpr>();
      n->kind = BoundKind::kCase;
      // The result type is the common type of the branches; the evaluators
      // widen an INT branch of a DOUBLE CASE.
      TypeId result = TypeId::kNull;
      auto add_branch = [&](BExpr branch) -> Status {
        if (!CommonType(result, branch->type, &result)) {
          return Status::BindError("CASE branch types incompatible");
        }
        n->children.push_back(std::move(branch));
        return Status::OK();
      };
      size_t i = 0;
      for (; i + 1 < e.args.size(); i += 2) {
        QOPT_ASSIGN_OR_RETURN(BExpr cond, BindExpr(*e.args[i], scope, agg));
        QOPT_ASSIGN_OR_RETURN(BExpr then, BindExpr(*e.args[i + 1], scope, agg));
        if (cond->type != TypeId::kBool) {
          return Status::BindError("CASE WHEN condition must be boolean");
        }
        n->children.push_back(std::move(cond));
        QOPT_RETURN_IF_ERROR(add_branch(std::move(then)));
      }
      if (i < e.args.size()) {
        QOPT_ASSIGN_OR_RETURN(BExpr els, BindExpr(*e.args[i], scope, agg));
        QOPT_RETURN_IF_ERROR(add_branch(std::move(els)));
      }
      n->type = result;
      return BExpr(n);
    }
    case ExprKind::kAggCall: {
      if (agg == nullptr || agg->aggs == nullptr) {
        return Status::BindError(
            "aggregate function not allowed in this clause");
      }
      if (agg->inside_agg) {
        return Status::BindError("nested aggregate functions");
      }
      AggItem item;
      item.func = e.agg;
      item.distinct = e.agg_distinct;
      if (e.child) {
        agg->inside_agg = true;
        auto arg = BindExpr(*e.child, scope, agg);
        agg->inside_agg = false;
        if (!arg.ok()) return arg.status();
        item.arg = std::move(arg).value();
      }
      switch (e.agg) {
        case ast::AggFunc::kCountStar:
        case ast::AggFunc::kCount:
          item.type = TypeId::kInt64;
          break;
        case ast::AggFunc::kAvg:
          item.type = TypeId::kDouble;
          break;
        case ast::AggFunc::kSum:
          if (item.arg && !IsNumeric(item.arg->type)) {
            return Status::BindError("SUM requires a numeric argument");
          }
          item.type = item.arg ? item.arg->type : TypeId::kInt64;
          break;
        case ast::AggFunc::kMin:
        case ast::AggFunc::kMax:
          item.type = item.arg ? item.arg->type : TypeId::kNull;
          break;
      }
      if ((e.agg == ast::AggFunc::kAvg) && item.arg &&
          !IsNumeric(item.arg->type)) {
        return Status::BindError("AVG requires a numeric argument");
      }
      // Reuse an identical aggregate if already collected.
      std::string name =
          e.agg == ast::AggFunc::kCountStar
                 ? "COUNT(*)"
                 : std::string(ast::AggFuncName(e.agg)) + "(" +
                       (item.distinct ? "DISTINCT " : "") +
                       (item.arg ? item.arg->ToString() : "*") + ")";
      for (const AggItem& existing : *agg->aggs) {
        if (existing.name == name) {
          return MakeColumn(existing.output, existing.type, existing.name);
        }
      }
      item.output = ColumnId{agg->agg_rel,
                             static_cast<int>(agg->aggs->size())};
      item.name = name;
      agg->aggs->push_back(item);
      return MakeColumn(item.output, item.type, item.name);
    }
    case ExprKind::kInSubquery:
    case ExprKind::kExists:
    case ExprKind::kScalarSubquery:
      return Status::NotImplemented(
          "subquery only supported as a WHERE/HAVING conjunct or in a "
          "comparison");
  }
  return Status::Internal("unhandled expression kind");
}

Result<BExpr> BinderImpl::BindInSubquery(const ast::Expr& e, Scope* scope,
                                         AggContext* agg, LogicalPtr* plan) {
  QOPT_ASSIGN_OR_RETURN(BExpr lhs, BindExpr(*e.child, scope, agg));
  Scope inner;
  inner.parent = scope;
  std::set<ColumnId> correlated;
  inner.correlated = &correlated;
  QOPT_ASSIGN_OR_RETURN(BoundRel sub, BindSelect(*e.subquery, &inner));
  if (sub.cols.size() != 1) {
    return Status::BindError("IN subquery must return exactly one column");
  }
  if (!TypesComparable(lhs->type, sub.cols[0].type)) {
    return Status::BindError("IN subquery type mismatch");
  }
  BExpr cond = MakeBinary(
      BinaryOp::kEq, lhs,
      MakeColumn(sub.cols[0].id, sub.cols[0].type, sub.names[0]));
  *plan = MakeApply(e.negated ? ApplyType::kAnti : ApplyType::kSemi, *plan,
                    sub.root, cond, correlated);
  return MakeLiteral(Value::Bool(true));
}

Result<BExpr> BinderImpl::BindExists(const ast::Expr& e, Scope* scope,
                                     LogicalPtr* plan) {
  Scope inner;
  inner.parent = scope;
  std::set<ColumnId> correlated;
  inner.correlated = &correlated;
  QOPT_ASSIGN_OR_RETURN(BoundRel sub, BindSelect(*e.subquery, &inner));
  *plan = MakeApply(e.negated ? ApplyType::kAnti : ApplyType::kSemi, *plan,
                    sub.root, MakeLiteral(Value::Bool(true)), correlated);
  return MakeLiteral(Value::Bool(true));
}

Result<BExpr> BinderImpl::BindScalarSubquery(const ast::Expr& e, Scope* scope,
                                             LogicalPtr* plan) {
  Scope inner;
  inner.parent = scope;
  std::set<ColumnId> correlated;
  inner.correlated = &correlated;
  QOPT_ASSIGN_OR_RETURN(BoundRel sub, BindSelect(*e.subquery, &inner));
  if (sub.cols.size() != 1) {
    return Status::BindError("scalar subquery must return exactly one column");
  }
  LogicalPtr apply = MakeApply(ApplyType::kScalar, *plan, sub.root,
                               MakeLiteral(Value::Bool(true)), correlated);
  apply->scalar_output = sub.cols[0].id;
  apply->scalar_type = sub.cols[0].type;
  *plan = apply;
  return MakeColumn(sub.cols[0].id, sub.cols[0].type, "<scalar>");
}

Result<BExpr> BinderImpl::BindConjunct(const ast::Expr& e, Scope* scope,
                                       AggContext* agg, LogicalPtr* plan) {
  switch (e.kind) {
    case ExprKind::kInSubquery:
      return BindInSubquery(e, scope, agg, plan);
    case ExprKind::kExists:
      return BindExists(e, scope, plan);
    case ExprKind::kBinary: {
      if (e.op == BinaryOp::kAnd) {
        QOPT_ASSIGN_OR_RETURN(BExpr l, BindConjunct(*e.child, scope, agg, plan));
        QOPT_ASSIGN_OR_RETURN(BExpr r, BindConjunct(*e.rhs, scope, agg, plan));
        return MakeBinary(BinaryOp::kAnd, std::move(l), std::move(r));
      }
      // Comparison with a scalar subquery on either side.
      bool lhs_sub = e.child->kind == ExprKind::kScalarSubquery;
      bool rhs_sub = e.rhs->kind == ExprKind::kScalarSubquery;
      if (lhs_sub || rhs_sub) {
        if (e.op == BinaryOp::kOr) {
          return Status::NotImplemented("subquery under OR");
        }
        BExpr l, r;
        if (lhs_sub) {
          QOPT_ASSIGN_OR_RETURN(l, BindScalarSubquery(*e.child, scope, plan));
        } else {
          QOPT_ASSIGN_OR_RETURN(l, BindExpr(*e.child, scope, agg));
        }
        if (rhs_sub) {
          QOPT_ASSIGN_OR_RETURN(r, BindScalarSubquery(*e.rhs, scope, plan));
        } else {
          QOPT_ASSIGN_OR_RETURN(r, BindExpr(*e.rhs, scope, agg));
        }
        if (!TypesComparable(l->type, r->type)) {
          return Status::BindError("type mismatch in comparison");
        }
        return MakeBinary(e.op, std::move(l), std::move(r));
      }
      return BindExpr(e, scope, agg);
    }
    case ExprKind::kNot:
      // NOT over subqueries was folded into `negated` by the parser; a
      // remaining NOT is an ordinary scalar expression.
      return BindExpr(e, scope, agg);
    default:
      return BindExpr(e, scope, agg);
  }
}

Result<BoundRel> BinderImpl::BindUnionChain(const ast::SelectStatement& head,
                                            Scope* scope) {
  std::vector<const ast::SelectStatement*> arms;
  for (const ast::SelectStatement* cur = &head; cur != nullptr;
       cur = cur->union_next.get()) {
    if (!cur->order_by.empty() || cur->limit >= 0) {
      return Status::NotImplemented(
          "ORDER BY/LIMIT inside a UNION arm (wrap the UNION in a derived "
          "table to order it)");
    }
    arms.push_back(cur);
  }

  BoundRel acc;
  {
    Scope arm_scope;
    arm_scope.parent = scope->parent;
    arm_scope.correlated = scope->correlated;
    QOPT_ASSIGN_OR_RETURN(
        acc, BindSelect(*arms[0], &arm_scope, /*ignore_union=*/true));
  }
  for (size_t i = 1; i < arms.size(); ++i) {
    Scope arm_scope;
    arm_scope.parent = scope->parent;
    arm_scope.correlated = scope->correlated;
    QOPT_ASSIGN_OR_RETURN(
        BoundRel rhs, BindSelect(*arms[i], &arm_scope, /*ignore_union=*/true));
    if (rhs.cols.size() != acc.cols.size()) {
      return Status::BindError("UNION arms have different column counts");
    }
    int union_rel = NewRel();
    std::vector<OutputCol> cols;
    for (size_t c = 0; c < acc.cols.size(); ++c) {
      TypeId out_type;
      if (!CommonType(acc.cols[c].type, rhs.cols[c].type, &out_type)) {
        return Status::BindError("UNION arm column types incompatible");
      }
      cols.push_back({ColumnId{union_rel, static_cast<int>(c)}, out_type,
                      acc.cols[c].name});
    }
    // The LEFT arm's set_op describes this operator (left-associative).
    LogicalPtr combined;
    switch (arms[i - 1]->set_op) {
      case ast::SelectStatement::SetOp::kUnionAll:
        combined = plan::MakeUnion({acc.root, rhs.root}, cols);
        break;
      case ast::SelectStatement::SetOp::kUnion:
        combined =
            MakeDistinct(plan::MakeUnion({acc.root, rhs.root}, cols));
        break;
      case ast::SelectStatement::SetOp::kExcept:
        combined = plan::MakeSetOp(LogicalOpKind::kExcept, acc.root,
                                   rhs.root, cols);
        break;
      case ast::SelectStatement::SetOp::kIntersect:
        combined = plan::MakeSetOp(LogicalOpKind::kIntersect, acc.root,
                                   rhs.root, cols);
        break;
    }
    acc.root = std::move(combined);
    acc.cols = std::move(cols);
    // Display names stay those of the first arm.
  }
  return acc;
}

Result<BoundRel> BinderImpl::BindGroupingSets(const ast::SelectStatement& stmt,
                                              Scope* scope) {
  if (stmt.union_next != nullptr) {
    return Status::NotImplemented("CUBE/ROLLUP combined with UNION");
  }
  if (!stmt.order_by.empty() || stmt.limit >= 0) {
    return Status::NotImplemented(
        "ORDER BY/LIMIT with CUBE/ROLLUP (wrap in a derived table)");
  }
  size_t k = stmt.group_by.size();
  if (k == 0) return Status::BindError("CUBE/ROLLUP needs grouping columns");
  if (k > 4) return Status::NotImplemented("CUBE/ROLLUP over > 4 columns");

  // Grouping sets as bitmasks over group_by positions.
  std::vector<uint32_t> sets;
  if (stmt.grouping == ast::SelectStatement::Grouping::kCube) {
    for (uint32_t m = (1u << k); m-- > 0;) sets.push_back(m);
  } else {
    for (size_t len = k + 1; len-- > 0;) {
      sets.push_back(static_cast<uint32_t>((1u << len) - 1));
    }
  }

  // One plain-grouped SELECT per set, chained with UNION ALL.
  std::unique_ptr<ast::SelectStatement> head;
  ast::SelectStatement* tail = nullptr;
  for (uint32_t set : sets) {
    std::unique_ptr<ast::SelectStatement> arm = stmt.Clone();
    arm->grouping = ast::SelectStatement::Grouping::kPlain;
    arm->union_next = nullptr;
    arm->union_all = true;
    arm->set_op = ast::SelectStatement::SetOp::kUnionAll;
    std::vector<ast::ExprPtr> kept;
    std::vector<std::string> excluded;
    for (size_t i = 0; i < k; ++i) {
      if (set & (1u << i)) {
        kept.push_back(arm->group_by[i]->Clone());
      } else {
        excluded.push_back(stmt.group_by[i]->ToString());
      }
    }
    // Rolled-up columns appear as NULL in the select list.
    for (ast::SelectItem& item : arm->items) {
      std::string rendered = item.expr->ToString();
      for (const std::string& ex : excluded) {
        if (rendered == ex) {
          if (item.alias.empty()) item.alias = rendered;
          item.expr = ast::Expr::MakeLiteral(Value::Null());
          break;
        }
      }
    }
    arm->group_by = std::move(kept);
    if (head == nullptr) {
      head = std::move(arm);
      tail = head.get();
    } else {
      tail->union_next = std::move(arm);
      tail->union_all = true;
      tail = tail->union_next.get();
    }
  }
  if (sets.size() == 1) {
    return BindSelect(*head, scope, /*ignore_union=*/true);
  }
  return BindUnionChain(*head, scope);
}

Result<BoundRel> BinderImpl::BindSelect(const ast::SelectStatement& stmt,
                                        Scope* scope, bool ignore_union) {
  if (stmt.grouping != ast::SelectStatement::Grouping::kPlain) {
    return BindGroupingSets(stmt, scope);
  }
  if (!ignore_union && stmt.union_next != nullptr) {
    return BindUnionChain(stmt, scope);
  }
  QOPT_ASSIGN_OR_RETURN(LogicalPtr plan, BindFrom(stmt, scope));

  // WHERE: bind conjuncts, attaching Apply operators for subqueries.
  if (stmt.where) {
    QOPT_ASSIGN_OR_RETURN(BExpr pred,
                          BindConjunct(*stmt.where, scope, nullptr, &plan));
    if (pred->type != TypeId::kBool) {
      return Status::BindError("WHERE clause must be boolean");
    }
    std::vector<BExpr> conjuncts;
    SplitConjuncts(pred, &conjuncts);
    if (!conjuncts.empty()) {
      plan = MakeFilter(plan, MakeConjunction(std::move(conjuncts)));
    }
  }

  // Determine whether this block aggregates.
  std::function<bool(const ast::Expr&)> has_agg = [&](const ast::Expr& e) {
    if (e.kind == ExprKind::kAggCall) return true;
    if (e.child && has_agg(*e.child)) return true;
    if (e.rhs && has_agg(*e.rhs)) return true;
    for (const ast::ExprPtr& a : e.args) {
      if (has_agg(*a)) return true;
    }
    return false;
  };
  bool any_agg = !stmt.group_by.empty() || (stmt.having != nullptr);
  for (const ast::SelectItem& item : stmt.items) {
    if (has_agg(*item.expr)) any_agg = true;
  }
  for (const ast::OrderItem& item : stmt.order_by) {
    if (has_agg(*item.expr)) any_agg = true;
  }

  AggContext agg_ctx;
  std::vector<AggItem> agg_items;
  AggContext* agg = nullptr;
  if (any_agg) {
    for (const ast::ExprPtr& g : stmt.group_by) {
      QOPT_ASSIGN_OR_RETURN(BExpr bound, BindExpr(*g, scope, nullptr));
      if (bound->kind != BoundKind::kColumn) {
        return Status::NotImplemented("GROUP BY expression must be a column");
      }
      agg_ctx.group_exprs.push_back(std::move(bound));
    }
    agg_ctx.aggs = &agg_items;
    agg_ctx.agg_rel = NewRel();
    agg = &agg_ctx;
  }

  // SELECT list (bound before constructing Aggregate so the aggregate item
  // list is complete).
  std::vector<BExpr> proj_exprs;
  std::vector<OutputCol> proj_cols;
  std::vector<std::string> out_names;
  int proj_rel = NewRel();
  for (const ast::SelectItem& item : stmt.items) {
    if (item.expr->kind == ExprKind::kStar) {
      if (any_agg) {
        return Status::BindError("'*' cannot be used with GROUP BY");
      }
      for (const RelEntry& rel : scope->rels) {
        if (!item.expr->table.empty() && rel.alias != item.expr->table) {
          continue;
        }
        for (size_t i = 0; i < rel.cols.size(); ++i) {
          proj_exprs.push_back(MakeColumn(rel.cols[i].id, rel.cols[i].type,
                                          rel.alias + "." + rel.names[i]));
          proj_cols.push_back({ColumnId{proj_rel,
                                        static_cast<int>(proj_cols.size())},
                               rel.cols[i].type, rel.names[i]});
          out_names.push_back(rel.names[i]);
        }
      }
      if (proj_exprs.empty()) {
        return Status::BindError("'*' matched no columns");
      }
      continue;
    }
    QOPT_ASSIGN_OR_RETURN(BExpr bound,
                          BindConjunct(*item.expr, scope, agg, &plan));
    std::string name = item.alias;
    if (name.empty()) {
      name = bound->kind == BoundKind::kColumn
                 ? bound->name.substr(bound->name.find('.') + 1)
                 : bound->ToString();
    }
    proj_cols.push_back({ColumnId{proj_rel, static_cast<int>(proj_cols.size())},
                         bound->type, name});
    proj_exprs.push_back(std::move(bound));
    out_names.push_back(name);
  }

  // HAVING (may introduce new aggregate items and Apply nodes).
  BExpr having;
  if (stmt.having) {
    QOPT_ASSIGN_OR_RETURN(having, BindConjunct(*stmt.having, scope, agg, &plan));
  }

  // ORDER BY: resolve against select aliases first, then the FROM scope.
  struct BoundOrder {
    BExpr expr;
    bool ascending;
    bool on_output;  // true: key refers to a projected column
    int output_idx = -1;
  };
  std::vector<BoundOrder> orders;
  for (const ast::OrderItem& item : stmt.order_by) {
    BoundOrder bo;
    bo.ascending = item.ascending;
    bo.on_output = false;
    // Alias / output-name match for bare identifiers.
    if (item.expr->kind == ExprKind::kColumnRef && item.expr->table.empty()) {
      for (size_t i = 0; i < out_names.size(); ++i) {
        if (out_names[i] == item.expr->column) {
          bo.on_output = true;
          bo.output_idx = static_cast<int>(i);
          break;
        }
      }
    }
    if (!bo.on_output) {
      QOPT_ASSIGN_OR_RETURN(bo.expr, BindExpr(*item.expr, scope, agg));
      // Structural match against a projected expression.
      for (size_t i = 0; i < proj_exprs.size(); ++i) {
        if (proj_exprs[i]->ToString() == bo.expr->ToString()) {
          bo.on_output = true;
          bo.output_idx = static_cast<int>(i);
          break;
        }
      }
      if (!bo.on_output && bo.expr->kind != BoundKind::kColumn) {
        return Status::NotImplemented(
            "ORDER BY expression must be a column or a projected expression");
      }
    }
    orders.push_back(std::move(bo));
  }

  // Assemble: [Aggregate] -> [Having] -> [Sort(below)] -> Project ->
  // [Distinct] -> [Sort(above)] -> [Limit].
  if (any_agg) {
    plan = MakeAggregate(plan, agg_ctx.group_exprs, std::move(agg_items));
    if (having) {
      std::vector<BExpr> conjuncts;
      SplitConjuncts(having, &conjuncts);
      if (!conjuncts.empty()) {
        plan = MakeFilter(plan, MakeConjunction(std::move(conjuncts)));
      }
    }
  }

  bool any_on_output = false;
  for (const BoundOrder& o : orders) any_on_output |= o.on_output;
  if (!orders.empty() && !any_on_output) {
    // All keys are input columns: sort below the projection.
    std::vector<SortKey> keys;
    for (const BoundOrder& o : orders) {
      keys.push_back({o.expr->column, o.ascending});
    }
    plan = MakeSort(plan, std::move(keys));
  }

  plan = MakeProject(plan, std::move(proj_exprs), proj_cols);
  if (stmt.distinct) plan = MakeDistinct(plan);

  if (!orders.empty() && any_on_output) {
    std::vector<SortKey> keys;
    for (const BoundOrder& o : orders) {
      if (!o.on_output) {
        return Status::NotImplemented(
            "ORDER BY mixes projected and unprojected columns");
      }
      keys.push_back({proj_cols[o.output_idx].id, o.ascending});
    }
    plan = MakeSort(plan, std::move(keys));
  }

  if (stmt.limit >= 0) plan = MakeLimit(plan, stmt.limit);

  BoundRel out;
  out.root = std::move(plan);
  out.cols = proj_cols;
  out.names = std::move(out_names);
  return out;
}

}  // namespace

Result<BoundQuery> Bind(const ast::SelectStatement& stmt,
                        const Catalog& catalog, int* next_rel_id) {
  BinderImpl binder(catalog, next_rel_id);
  Scope root_scope;
  QOPT_ASSIGN_OR_RETURN(BoundRel rel, binder.BindSelect(stmt, &root_scope));
  BoundQuery q;
  q.root = std::move(rel.root);
  q.output_names = std::move(rel.names);
  return q;
}

Result<BoundQuery> Bind(const ast::SelectStatement& stmt,
                        const Catalog& catalog) {
  int next_rel = 0;
  return Bind(stmt, catalog, &next_rel);
}

}  // namespace qopt::plan
