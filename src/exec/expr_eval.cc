#include "exec/expr_eval.h"

namespace qopt::exec {

using ast::BinaryOp;
using plan::BoundExpr;
using plan::BoundKind;

namespace {

// Three-valued boolean: -1 = NULL, 0 = FALSE, 1 = TRUE.
int ToTri(const Value& v) {
  if (v.is_null()) return -1;
  return v.AsBool() ? 1 : 0;
}

Value FromTri(int t) {
  if (t < 0) return Value::Null();
  return Value::Bool(t == 1);
}

// Non-logical binary operator over non-NULL operands; shared by the scalar
// and batch evaluators.
Value EvalBinaryScalar(BinaryOp op, const Value& l, const Value& r) {
  switch (op) {
    case BinaryOp::kEq: return Value::Bool(l.Compare(r) == 0);
    case BinaryOp::kNe: return Value::Bool(l.Compare(r) != 0);
    case BinaryOp::kLt: return Value::Bool(l.Compare(r) < 0);
    case BinaryOp::kLe: return Value::Bool(l.Compare(r) <= 0);
    case BinaryOp::kGt: return Value::Bool(l.Compare(r) > 0);
    case BinaryOp::kGe: return Value::Bool(l.Compare(r) >= 0);
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul: {
      QOPT_DCHECK(IsNumeric(l.type()) && IsNumeric(r.type()));
      if (l.type() == TypeId::kInt64 && r.type() == TypeId::kInt64) {
        int64_t a = l.AsInt(), b = r.AsInt();
        switch (op) {
          case BinaryOp::kAdd: return Value::Int(a + b);
          case BinaryOp::kSub: return Value::Int(a - b);
          default: return Value::Int(a * b);
        }
      }
      double a = l.AsNumeric(), b = r.AsNumeric();
      switch (op) {
        case BinaryOp::kAdd: return Value::Double(a + b);
        case BinaryOp::kSub: return Value::Double(a - b);
        default: return Value::Double(a * b);
      }
    }
    case BinaryOp::kDiv: {
      QOPT_DCHECK(IsNumeric(l.type()) && IsNumeric(r.type()));
      double b = r.AsNumeric();
      if (b == 0) return Value::Null();  // SQL raises; we yield NULL
      return Value::Double(l.AsNumeric() / b);
    }
    default:
      QOPT_DCHECK(false);
      return Value::Null();
  }
}

Value EvalBinary(const BoundExpr& e, const EvalContext& ctx) {
  // Short-circuiting Kleene AND/OR.
  if (e.op == BinaryOp::kAnd) {
    int l = ToTri(EvalExpr(*e.children[0], ctx));
    if (l == 0) return Value::Bool(false);
    int r = ToTri(EvalExpr(*e.children[1], ctx));
    if (r == 0) return Value::Bool(false);
    if (l < 0 || r < 0) return Value::Null();
    return Value::Bool(true);
  }
  if (e.op == BinaryOp::kOr) {
    int l = ToTri(EvalExpr(*e.children[0], ctx));
    if (l == 1) return Value::Bool(true);
    int r = ToTri(EvalExpr(*e.children[1], ctx));
    if (r == 1) return Value::Bool(true);
    if (l < 0 || r < 0) return Value::Null();
    return Value::Bool(false);
  }

  Value l = EvalExpr(*e.children[0], ctx);
  Value r = EvalExpr(*e.children[1], ctx);
  if (l.is_null() || r.is_null()) return Value::Null();
  return EvalBinaryScalar(e.op, l, r);
}

// Iterative greedy matcher with backtracking on '%'.
bool LikeMatchGeneric(const std::string& text, const std::string& pattern) {
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

}  // namespace

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Allocation-free fast paths for the common shapes.
  const size_t wild = pattern.find_first_of("%_");
  if (wild == std::string::npos) return text == pattern;  // exact
  if (pattern[wild] == '%' && wild == pattern.size() - 1) {
    // 'abc%' — prefix compare.
    return text.size() >= wild && text.compare(0, wild, pattern, 0, wild) == 0;
  }
  if (wild == 0 && pattern[0] == '%' &&
      pattern.find_first_of("%_", 1) == std::string::npos) {
    // '%abc' — suffix compare.
    const size_t n = pattern.size() - 1;
    return text.size() >= n &&
           text.compare(text.size() - n, n, pattern, 1, n) == 0;
  }
  return LikeMatchGeneric(text, pattern);
}

LikePattern CompileLikePattern(const std::string& pattern) {
  LikePattern out;
  out.pattern = pattern;
  // Normalize: collapse runs of '%'; '_' forces the generic matcher.
  std::string norm;
  norm.reserve(pattern.size());
  size_t pct = 0;
  for (char c : pattern) {
    if (c == '_') return out;
    if (c == '%') {
      if (!norm.empty() && norm.back() == '%') continue;
      ++pct;
    }
    norm.push_back(c);
  }
  using Kind = LikePattern::Kind;
  if (pct == 0) {
    out.kind = Kind::kExact;
    out.pre = std::move(norm);
  } else if (pct == 1) {
    const size_t pos = norm.find('%');
    if (pos == norm.size() - 1) {
      out.kind = Kind::kPrefix;  // also covers the match-all pattern '%'
      out.pre = norm.substr(0, pos);
    } else if (pos == 0) {
      out.kind = Kind::kSuffix;
      out.suf = norm.substr(1);
    } else {
      out.kind = Kind::kPrefixSuffix;
      out.pre = norm.substr(0, pos);
      out.suf = norm.substr(pos + 1);
    }
  } else if (pct == 2 && norm.front() == '%' && norm.back() == '%') {
    out.kind = Kind::kContains;
    out.pre = norm.substr(1, norm.size() - 2);
  }
  return out;
}

bool LikeMatch(const std::string& text, const LikePattern& p) {
  using Kind = LikePattern::Kind;
  switch (p.kind) {
    case Kind::kExact:
      return text == p.pre;
    case Kind::kPrefix:
      return text.size() >= p.pre.size() &&
             text.compare(0, p.pre.size(), p.pre) == 0;
    case Kind::kSuffix:
      return text.size() >= p.suf.size() &&
             text.compare(text.size() - p.suf.size(), p.suf.size(), p.suf) ==
                 0;
    case Kind::kContains:
      return text.find(p.pre) != std::string::npos;
    case Kind::kPrefixSuffix:
      return text.size() >= p.pre.size() + p.suf.size() &&
             text.compare(0, p.pre.size(), p.pre) == 0 &&
             text.compare(text.size() - p.suf.size(), p.suf.size(), p.suf) ==
                 0;
    case Kind::kGeneric:
      return LikeMatchGeneric(text, p.pattern);
  }
  return false;
}

Value EvalExpr(const BoundExpr& e, const EvalContext& ctx) {
  switch (e.kind) {
    case BoundKind::kLiteral:
      return e.literal;
    case BoundKind::kColumn: {
      if (ctx.colmap != nullptr) {
        auto it = ctx.colmap->find(e.column);
        if (it != ctx.colmap->end()) {
          QOPT_DCHECK(ctx.row != nullptr);
          return (*ctx.row)[it->second];
        }
      }
      if (ctx.params != nullptr) {
        auto it = ctx.params->find(e.column);
        if (it != ctx.params->end()) return it->second;
      }
      QOPT_DCHECK(false && "unresolvable column in executor");
      return Value::Null();
    }
    case BoundKind::kBinary:
      return EvalBinary(e, ctx);
    case BoundKind::kNot:
      return FromTri([&] {
        int t = ToTri(EvalExpr(*e.children[0], ctx));
        return t < 0 ? -1 : 1 - t;
      }());
    case BoundKind::kNegate: {
      Value v = EvalExpr(*e.children[0], ctx);
      if (v.is_null()) return v;
      if (v.type() == TypeId::kInt64) return Value::Int(-v.AsInt());
      return Value::Double(-v.AsNumeric());
    }
    case BoundKind::kIsNull: {
      Value v = EvalExpr(*e.children[0], ctx);
      return Value::Bool(e.negated ? !v.is_null() : v.is_null());
    }
    case BoundKind::kInList: {
      Value v = EvalExpr(*e.children[0], ctx);
      if (v.is_null()) return Value::Null();
      bool has_null = false;
      bool found = false;
      for (size_t i = 1; i < e.children.size(); ++i) {
        Value item = EvalExpr(*e.children[i], ctx);
        if (item.is_null()) {
          has_null = true;
          continue;
        }
        if (v.Compare(item) == 0) {
          found = true;
          break;
        }
      }
      int tri = found ? 1 : (has_null ? -1 : 0);
      if (e.negated) tri = tri < 0 ? -1 : 1 - tri;
      return FromTri(tri);
    }
    case BoundKind::kLike: {
      Value v = EvalExpr(*e.children[0], ctx);
      if (v.is_null()) return Value::Null();
      QOPT_DCHECK(v.type() == TypeId::kString);
      return Value::Bool(
          LikeMatch(v.AsString(), e.children[1]->literal.AsString()));
    }
    case BoundKind::kCase: {
      size_t i = 0;
      for (; i + 1 < e.children.size(); i += 2) {
        if (ToTri(EvalExpr(*e.children[i], ctx)) == 1) break;
      }
      // From the WHEN that held to its THEN; else i is the ELSE, if any.
      if (i + 1 < e.children.size()) ++i;
      if (i == e.children.size()) return Value::Null();
      Value v = EvalExpr(*e.children[i], ctx);
      WidenToType(e.type, &v);
      return v;
    }
  }
  return Value::Null();
}

bool EvalPredicate(const plan::BExpr& pred, const EvalContext& ctx) {
  if (!pred) return true;
  Value v = EvalExpr(*pred, ctx);
  return !v.is_null() && v.type() == TypeId::kBool && v.AsBool();
}

// ---------------------------------------------------------------------------
// Batch (vectorized) evaluation.
//
// Strategy: predicates evaluate to a tri-state vector (one int8 per live
// row) with specialized loops for AND/OR, comparisons, NOT and IS NULL;
// value expressions evaluate to a Value vector. Operands are accessed
// through OperandView, which reads columns directly out of batch storage
// (no per-row Value copies) and splats literals / correlated parameters.
//
// Unlike the scalar path, AND/OR do not short-circuit: both sides are
// evaluated for the whole batch and combined with Kleene logic. This is
// semantics-preserving because every expression here is total (division by
// zero yields NULL rather than raising).
// ---------------------------------------------------------------------------

namespace {

// A column operand for one batch evaluation: either a direct pointer into
// batch column storage (indexed by physical row id), a single splatted
// value, or an owned vector indexed by active position.
struct OperandView {
  const std::vector<Value>* direct = nullptr;
  const Value* splat = nullptr;
  std::vector<Value> owned;
  const RowBatch* batch = nullptr;

  const Value& at(size_t k) const {
    if (splat != nullptr) return *splat;
    if (direct != nullptr) return (*direct)[batch->ActiveIndex(k)];
    return owned[k];
  }
};

// Forgiving tri-state conversion used by the predicate path: mirrors
// EvalPredicate, where a non-BOOL value rejects rather than aborting.
int TriOf(const Value& v) {
  if (v.is_null()) return -1;
  if (v.type() != TypeId::kBool) return 0;
  return v.AsBool() ? 1 : 0;
}

OperandView MakeOperand(const BoundExpr& e, const BatchEvalContext& ctx) {
  OperandView v;
  v.batch = ctx.batch;
  if (e.kind == BoundKind::kLiteral) {
    v.splat = &e.literal;
    return v;
  }
  if (e.kind == BoundKind::kColumn) {
    if (ctx.colmap != nullptr) {
      auto it = ctx.colmap->find(e.column);
      if (it != ctx.colmap->end()) {
        v.direct = &ctx.batch->column(it->second);
        return v;
      }
    }
    if (ctx.params != nullptr) {
      auto it = ctx.params->find(e.column);
      if (it != ctx.params->end()) {
        v.splat = &it->second;
        return v;
      }
    }
    QOPT_DCHECK(false && "unresolvable column in batch executor");
    static const Value kNull = Value::Null();
    v.splat = &kNull;
    return v;
  }
  EvalExprBatch(e, ctx, &v.owned);
  return v;
}

// Evaluates `e` as a predicate over every live row into tri-state `out`
// (-1 = NULL, 0 = FALSE, 1 = TRUE).
void EvalTriBatch(const BoundExpr& e, const BatchEvalContext& ctx,
                  std::vector<int8_t>* out) {
  const size_t n = ctx.batch->ActiveSize();
  if (e.kind == BoundKind::kBinary) {
    if (e.op == BinaryOp::kAnd || e.op == BinaryOp::kOr) {
      std::vector<int8_t> lhs, rhs;
      EvalTriBatch(*e.children[0], ctx, &lhs);
      EvalTriBatch(*e.children[1], ctx, &rhs);
      out->resize(n);
      if (e.op == BinaryOp::kAnd) {
        for (size_t k = 0; k < n; ++k) {
          int8_t l = lhs[k], r = rhs[k];
          (*out)[k] = (l == 0 || r == 0) ? 0 : ((l < 0 || r < 0) ? -1 : 1);
        }
      } else {
        for (size_t k = 0; k < n; ++k) {
          int8_t l = lhs[k], r = rhs[k];
          (*out)[k] = (l == 1 || r == 1) ? 1 : ((l < 0 || r < 0) ? -1 : 0);
        }
      }
      return;
    }
    switch (e.op) {
      case BinaryOp::kEq:
      case BinaryOp::kNe:
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe: {
        OperandView l = MakeOperand(*e.children[0], ctx);
        OperandView r = MakeOperand(*e.children[1], ctx);
        out->resize(n);
        for (size_t k = 0; k < n; ++k) {
          const Value& a = l.at(k);
          const Value& b = r.at(k);
          if (a.is_null() || b.is_null()) {
            (*out)[k] = -1;
            continue;
          }
          int c = a.Compare(b);
          bool t = false;
          switch (e.op) {
            case BinaryOp::kEq: t = c == 0; break;
            case BinaryOp::kNe: t = c != 0; break;
            case BinaryOp::kLt: t = c < 0; break;
            case BinaryOp::kLe: t = c <= 0; break;
            case BinaryOp::kGt: t = c > 0; break;
            default: t = c >= 0; break;
          }
          (*out)[k] = t ? 1 : 0;
        }
        return;
      }
      default:
        break;  // arithmetic used as a predicate: generic fallback below
    }
  }
  if (e.kind == BoundKind::kNot) {
    EvalTriBatch(*e.children[0], ctx, out);
    for (int8_t& t : *out) t = t < 0 ? -1 : 1 - t;
    return;
  }
  if (e.kind == BoundKind::kIsNull) {
    OperandView v = MakeOperand(*e.children[0], ctx);
    out->resize(n);
    for (size_t k = 0; k < n; ++k) {
      bool isn = v.at(k).is_null();
      (*out)[k] = (e.negated ? !isn : isn) ? 1 : 0;
    }
    return;
  }
  // Generic fallback: evaluate as values, convert.
  std::vector<Value> vals;
  EvalExprBatch(e, ctx, &vals);
  out->resize(n);
  for (size_t k = 0; k < n; ++k) {
    (*out)[k] = static_cast<int8_t>(TriOf(vals[k]));
  }
}

}  // namespace

void EvalExprBatch(const BoundExpr& e, const BatchEvalContext& ctx,
                   std::vector<Value>* out) {
  const size_t n = ctx.batch->ActiveSize();
  switch (e.kind) {
    case BoundKind::kLiteral:
      out->assign(n, e.literal);
      return;
    case BoundKind::kColumn: {
      OperandView v = MakeOperand(e, ctx);
      out->clear();
      out->reserve(n);
      for (size_t k = 0; k < n; ++k) out->push_back(v.at(k));
      return;
    }
    case BoundKind::kBinary: {
      if (e.op == BinaryOp::kAnd || e.op == BinaryOp::kOr) {
        std::vector<int8_t> tri;
        EvalTriBatch(e, ctx, &tri);
        out->clear();
        out->reserve(n);
        for (size_t k = 0; k < n; ++k) out->push_back(FromTri(tri[k]));
        return;
      }
      OperandView l = MakeOperand(*e.children[0], ctx);
      OperandView r = MakeOperand(*e.children[1], ctx);
      out->clear();
      out->reserve(n);
      for (size_t k = 0; k < n; ++k) {
        const Value& a = l.at(k);
        const Value& b = r.at(k);
        if (a.is_null() || b.is_null()) {
          out->push_back(Value::Null());
        } else {
          out->push_back(EvalBinaryScalar(e.op, a, b));
        }
      }
      return;
    }
    case BoundKind::kNot: {
      std::vector<int8_t> tri;
      EvalTriBatch(*e.children[0], ctx, &tri);
      out->clear();
      out->reserve(n);
      for (size_t k = 0; k < n; ++k) {
        out->push_back(FromTri(tri[k] < 0 ? -1 : 1 - tri[k]));
      }
      return;
    }
    case BoundKind::kNegate: {
      OperandView v = MakeOperand(*e.children[0], ctx);
      out->clear();
      out->reserve(n);
      for (size_t k = 0; k < n; ++k) {
        const Value& a = v.at(k);
        if (a.is_null()) {
          out->push_back(a);
        } else if (a.type() == TypeId::kInt64) {
          out->push_back(Value::Int(-a.AsInt()));
        } else {
          out->push_back(Value::Double(-a.AsNumeric()));
        }
      }
      return;
    }
    case BoundKind::kIsNull: {
      OperandView v = MakeOperand(*e.children[0], ctx);
      out->clear();
      out->reserve(n);
      for (size_t k = 0; k < n; ++k) {
        bool isn = v.at(k).is_null();
        out->push_back(Value::Bool(e.negated ? !isn : isn));
      }
      return;
    }
    case BoundKind::kInList: {
      OperandView v = MakeOperand(*e.children[0], ctx);
      std::vector<OperandView> items;
      items.reserve(e.children.size() - 1);
      for (size_t i = 1; i < e.children.size(); ++i) {
        items.push_back(MakeOperand(*e.children[i], ctx));
      }
      out->clear();
      out->reserve(n);
      for (size_t k = 0; k < n; ++k) {
        const Value& a = v.at(k);
        if (a.is_null()) {
          out->push_back(Value::Null());
          continue;
        }
        bool has_null = false, found = false;
        for (const OperandView& item : items) {
          const Value& b = item.at(k);
          if (b.is_null()) {
            has_null = true;
            continue;
          }
          if (a.Compare(b) == 0) {
            found = true;
            break;
          }
        }
        int tri = found ? 1 : (has_null ? -1 : 0);
        if (e.negated) tri = tri < 0 ? -1 : 1 - tri;
        out->push_back(FromTri(tri));
      }
      return;
    }
    case BoundKind::kLike: {
      OperandView v = MakeOperand(*e.children[0], ctx);
      // Classify once per batch so fast-path patterns skip the general
      // matcher on every row.
      const LikePattern pattern =
          CompileLikePattern(e.children[1]->literal.AsString());
      out->clear();
      out->reserve(n);
      for (size_t k = 0; k < n; ++k) {
        const Value& a = v.at(k);
        if (a.is_null()) {
          out->push_back(Value::Null());
          continue;
        }
        QOPT_DCHECK(a.type() == TypeId::kString);
        out->push_back(Value::Bool(LikeMatch(a.AsString(), pattern)));
      }
      return;
    }
    case BoundKind::kCase: {
      // Evaluate every WHEN condition and branch result over the whole
      // batch, then pick per row. Sound because evaluation is total.
      std::vector<std::vector<int8_t>> conds;
      std::vector<OperandView> branches;
      size_t i = 0;
      for (; i + 1 < e.children.size(); i += 2) {
        conds.emplace_back();
        EvalTriBatch(*e.children[i], ctx, &conds.back());
        branches.push_back(MakeOperand(*e.children[i + 1], ctx));
      }
      bool has_else = i < e.children.size();
      OperandView else_v;
      if (has_else) else_v = MakeOperand(*e.children[i], ctx);
      out->clear();
      out->reserve(n);
      for (size_t k = 0; k < n; ++k) {
        size_t b = 0;
        for (; b < conds.size(); ++b) {
          if (conds[b][k] == 1) break;
        }
        if (b < conds.size()) {
          out->push_back(branches[b].at(k));
        } else if (has_else) {
          out->push_back(else_v.at(k));
        } else {
          out->push_back(Value::Null());
        }
        WidenToType(e.type, &out->back());
      }
      return;
    }
  }
  out->assign(n, Value::Null());
}

void EvalPredicateBatch(const plan::BExpr& pred, const BatchEvalContext& ctx,
                        RowBatch* batch) {
  if (!pred) return;
  QOPT_DCHECK(ctx.batch == batch);
  std::vector<int8_t> tri;
  EvalTriBatch(*pred, ctx, &tri);
  std::vector<uint32_t>& sel = *batch->mutable_selection();
  size_t kept = 0;
  for (size_t k = 0; k < sel.size(); ++k) {
    if (tri[k] == 1) sel[kept++] = sel[k];
  }
  sel.resize(kept);
}

}  // namespace qopt::exec
