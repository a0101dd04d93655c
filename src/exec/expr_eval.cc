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

// Non-logical binary operator over non-NULL operands.
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

}  // namespace

// Iterative greedy matcher with backtracking on '%'.
bool LikeMatch(const std::string& text, const std::string& pattern) {
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
      return LikeMatch(text, p.pattern);
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
          if (ctx.batch != nullptr) {
            return ctx.batch->At(it->second, ctx.batch_row);
          }
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

void EvalExprBatch(const BoundExpr& e, const EvalContext& ctx,
                   std::vector<Value>* out) {
  EvalContext row_ctx = ctx;
  out->clear();
  out->reserve(ctx.batch->ActiveSize());
  for (uint32_t r : ctx.batch->selection()) {
    row_ctx.batch_row = r;
    out->push_back(EvalExpr(e, row_ctx));
  }
}

void EvalPredicateBatch(const plan::BExpr& pred, const EvalContext& ctx,
                        RowBatch* batch) {
  if (!pred) return;
  QOPT_DCHECK(ctx.batch == batch);
  EvalContext row_ctx = ctx;
  std::vector<uint32_t>& sel = *batch->mutable_selection();
  size_t kept = 0;
  for (uint32_t r : sel) {
    row_ctx.batch_row = r;
    if (EvalPredicate(pred, row_ctx)) sel[kept++] = r;
  }
  sel.resize(kept);
}

}  // namespace qopt::exec
