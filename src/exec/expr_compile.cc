#include "exec/expr_compile.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

#include "common/status.h"
#include "exec/executors.h"
#include "exec/expr_cache.h"
#include "parser/ast.h"

namespace qopt::exec::expr {
namespace {

using ast::BinaryOp;
using plan::BoundExpr;
using plan::BoundKind;

using Op = ExprProgram::Op;
using Instr = ExprProgram::Instr;

const std::string kEmptyString;

int8_t KleeneAnd(int8_t l, int8_t r) {
  if (l == 0 || r == 0) return 0;
  return (l < 0 || r < 0) ? -1 : 1;
}

int8_t KleeneOr(int8_t l, int8_t r) {
  if (l == 1 || r == 1) return 1;
  return (l < 0 || r < 0) ? -1 : 0;
}

int8_t KleeneNot(int8_t t) { return t < 0 ? int8_t{-1} : int8_t(1 - t); }

inline int Compare3(int64_t a, int64_t b) { return a < b ? -1 : (a > b); }
inline int Compare3(double a, double b) { return a < b ? -1 : (a > b); }
inline int Compare3(const std::string* a, const std::string* b) {
  int c = a->compare(*b);
  return c < 0 ? -1 : (c > 0);
}

bool ApplyCmp(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEq:
      return c == 0;
    case BinaryOp::kNe:
      return c != 0;
    case BinaryOp::kLt:
      return c < 0;
    case BinaryOp::kLe:
      return c <= 0;
    case BinaryOp::kGt:
      return c > 0;
    case BinaryOp::kGe:
      return c >= 0;
    default:
      QOPT_DCHECK(false);
      return false;
  }
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

}  // namespace

/// Single-pass recursive lowering of a BoundExpr tree into an ExprProgram.
/// Any unsupported shape flips `failed_` and the whole compilation returns
/// null (interpreter fallback) — never a partially compiled program.
class Compiler {
 public:
  explicit Compiler(const CompileEnv& env)
      : env_(env), prog_(new ExprProgram()) {}

  std::shared_ptr<const ExprProgram> Compile(const BoundExpr& e,
                                             bool as_predicate) {
    Slot root = Emit(e);
    if (as_predicate) root = ToTri(root);
    if (failed_) return nullptr;
    prog_->result_ = root;
    prog_->num_regs_ = next_reg_;
    std::sort(prog_->referenced_cols_.begin(), prog_->referenced_cols_.end());
    return std::shared_ptr<const ExprProgram>(prog_.release());
  }

 private:
  Slot Fail() {
    failed_ = true;
    return Slot{};
  }

  Slot NewReg(VType t) {
    Slot s;
    s.type = t;
    s.reg = next_reg_++;
    return s;
  }

  Slot NullSlot(VType t) {
    Slot s;
    s.type = t;
    s.is_null = true;
    if (t == VType::kTri) s.tri = -1;
    return s;
  }

  Slot TriConst(int8_t t) {
    Slot s;
    s.type = VType::kTri;
    s.tri = t;
    if (t < 0) s.is_null = true;
    return s;
  }

  int InternString(const std::string& s) {
    prog_->str_pool_.push_back(s);
    return static_cast<int>(prog_->str_pool_.size() - 1);
  }

  Instr& Push(Op op, int dst) {
    prog_->code_.push_back(Instr{});
    Instr& ins = prog_->code_.back();
    ins.op = op;
    ins.dst = dst;
    return ins;
  }

  Slot Emit(const BoundExpr& e) {
    if (failed_) return Slot{};
    switch (e.kind) {
      case BoundKind::kLiteral:
        return EmitLiteral(e.literal, e.type);
      case BoundKind::kColumn:
        return EmitColumn(e);
      case BoundKind::kBinary:
        return EmitBinary(e);
      case BoundKind::kNot:
        return EmitNot(e);
      case BoundKind::kNegate:
        return EmitNegate(e);
      case BoundKind::kIsNull:
        return EmitIsNull(e);
      case BoundKind::kInList:
        return EmitInList(e);
      case BoundKind::kLike:
        return EmitLike(e);
      default:
        // kCase (and anything new) stays on the interpreter.
        return Fail();
    }
  }

  Slot EmitLiteral(const Value& v, TypeId static_type) {
    Slot s;
    if (v.is_null()) {
      switch (static_type) {
        case TypeId::kBool:
          return TriConst(-1);
        case TypeId::kDouble:
          return NullSlot(VType::kF64);
        case TypeId::kString:
          return NullSlot(VType::kStr);
        default:
          // kInt64 and untyped NULL; consumers branch on is_null before
          // the payload type, so the I64 tag is never observable.
          return NullSlot(VType::kI64);
      }
    }
    switch (v.type()) {
      case TypeId::kBool:
        return TriConst(v.AsBool() ? 1 : 0);
      case TypeId::kInt64:
        s.type = VType::kI64;
        s.i = v.AsInt();
        return s;
      case TypeId::kDouble:
        s.type = VType::kF64;
        s.d = v.AsDouble();
        return s;
      case TypeId::kString:
        s.type = VType::kStr;
        s.str = InternString(v.AsString());
        return s;
      default:
        return Fail();
    }
  }

  Slot EmitColumn(const BoundExpr& e) {
    auto it = env_.colmap->find(e.column);
    if (it == env_.colmap->end()) {
      // Correlated column: its value is a per-execution parameter, but
      // programs are cached per plan and shared across executions.
      return Fail();
    }
    const int pos = it->second;
    if (pos < 0 || static_cast<size_t>(pos) >= env_.col_types.size()) {
      return Fail();
    }
    auto cached = col_slots_.find(pos);
    if (cached != col_slots_.end()) return cached->second;
    Op op;
    VType vt;
    switch (env_.col_types[pos]) {
      case TypeId::kInt64:
        op = Op::kLoadI64;
        vt = VType::kI64;
        break;
      case TypeId::kDouble:
        op = Op::kLoadF64;
        vt = VType::kF64;
        break;
      case TypeId::kString:
        op = Op::kLoadStr;
        vt = VType::kStr;
        break;
      case TypeId::kBool:
        op = Op::kLoadTri;
        vt = VType::kTri;
        break;
      default:
        return Fail();  // statically untyped column
    }
    Slot dst = NewReg(vt);
    Push(op, dst.reg).aux = pos;
    prog_->referenced_cols_.push_back(pos);
    col_slots_.emplace(pos, dst);
    return dst;
  }

  /// Coerces a numeric slot to kF64 (constant conversion or kCastI64F64).
  Slot ToF64(Slot s) {
    if (failed_ || s.type == VType::kF64) return s;
    if (s.type != VType::kI64) return Fail();
    if (s.is_const()) {
      Slot c;
      c.type = VType::kF64;
      c.is_null = s.is_null;
      c.d = static_cast<double>(s.i);
      return c;
    }
    Slot dst = NewReg(VType::kF64);
    Push(Op::kCastI64F64, dst.reg).a = s;
    return dst;
  }

  /// Coerces a slot to kTri. Only constants convert (TriOf semantics);
  /// a non-tri register is an uncovered shape.
  Slot ToTri(Slot s) {
    if (failed_ || s.type == VType::kTri) return s;
    if (!s.is_const()) return Fail();
    return TriConst(s.is_null ? int8_t{-1} : int8_t{0});
  }

  Slot EmitBinary(const BoundExpr& e) {
    if (e.op == BinaryOp::kAnd || e.op == BinaryOp::kOr) {
      return EmitLogical(e);
    }
    Slot l = Emit(*e.children[0]);
    Slot r = Emit(*e.children[1]);
    if (failed_) return Slot{};
    if (IsComparison(e.op)) return EmitCompare(e.op, l, r);
    return EmitArith(e.op, l, r);
  }

  Slot EmitArith(BinaryOp op, Slot l, Slot r) {
    const bool numeric_l = l.type == VType::kI64 || l.type == VType::kF64;
    const bool numeric_r = r.type == VType::kI64 || r.type == VType::kF64;
    if ((!numeric_l && !(l.is_const() && l.is_null)) ||
        (!numeric_r && !(r.is_const() && r.is_null))) {
      return Fail();
    }
    const bool f64 = op == BinaryOp::kDiv || l.type == VType::kF64 ||
                     r.type == VType::kF64;
    // NULL operand -> NULL result, at compile time.
    if ((l.is_const() && l.is_null) || (r.is_const() && r.is_null)) {
      return NullSlot(f64 ? VType::kF64 : VType::kI64);
    }
    if (l.is_const() && r.is_const()) {
      if (!f64) {
        Slot c;
        c.type = VType::kI64;
        switch (op) {
          case BinaryOp::kAdd:
            c.i = l.i + r.i;
            break;
          case BinaryOp::kSub:
            c.i = l.i - r.i;
            break;
          case BinaryOp::kMul:
            c.i = l.i * r.i;
            break;
          default:
            return Fail();
        }
        return c;
      }
      const double a = l.type == VType::kI64 ? static_cast<double>(l.i) : l.d;
      const double b = r.type == VType::kI64 ? static_cast<double>(r.i) : r.d;
      Slot c;
      c.type = VType::kF64;
      switch (op) {
        case BinaryOp::kAdd:
          c.d = a + b;
          break;
        case BinaryOp::kSub:
          c.d = a - b;
          break;
        case BinaryOp::kMul:
          c.d = a * b;
          break;
        case BinaryOp::kDiv:
          if (b == 0) return NullSlot(VType::kF64);
          c.d = a / b;
          break;
        default:
          return Fail();
      }
      return c;
    }
    if (!f64) {
      Slot dst = NewReg(VType::kI64);
      Op code;
      switch (op) {
        case BinaryOp::kAdd:
          code = Op::kAddI64;
          break;
        case BinaryOp::kSub:
          code = Op::kSubI64;
          break;
        case BinaryOp::kMul:
          code = Op::kMulI64;
          break;
        default:
          return Fail();
      }
      Instr& ins = Push(code, dst.reg);
      ins.a = l;
      ins.b = r;
      return dst;
    }
    l = ToF64(l);
    r = ToF64(r);
    if (failed_) return Slot{};
    // A constant zero divisor nulls every row.
    if (op == BinaryOp::kDiv && r.is_const() && r.d == 0) {
      return NullSlot(VType::kF64);
    }
    Slot dst = NewReg(VType::kF64);
    Op code;
    switch (op) {
      case BinaryOp::kAdd:
        code = Op::kAddF64;
        break;
      case BinaryOp::kSub:
        code = Op::kSubF64;
        break;
      case BinaryOp::kMul:
        code = Op::kMulF64;
        break;
      case BinaryOp::kDiv:
        code = Op::kDivF64;
        break;
      default:
        return Fail();
    }
    Instr& ins = Push(code, dst.reg);
    ins.a = l;
    ins.b = r;
    return dst;
  }

  Slot EmitCompare(BinaryOp op, Slot l, Slot r) {
    if ((l.is_const() && l.is_null) || (r.is_const() && r.is_null)) {
      return TriConst(-1);
    }
    Op code;
    if (l.type == VType::kStr && r.type == VType::kStr) {
      code = Op::kCmpStr;
      if (l.is_const() && r.is_const()) {
        const int c = Compare3(&prog_->str_pool_[l.str], &prog_->str_pool_[r.str]);
        return TriConst(ApplyCmp(op, c) ? 1 : 0);
      }
    } else if ((l.type == VType::kI64 || l.type == VType::kF64) &&
               (r.type == VType::kI64 || r.type == VType::kF64)) {
      if (l.type == VType::kI64 && r.type == VType::kI64) {
        // Both ints compare in the int64 domain (Value::Compare).
        code = Op::kCmpI64;
        if (l.is_const() && r.is_const()) {
          return TriConst(ApplyCmp(op, Compare3(l.i, r.i)) ? 1 : 0);
        }
      } else {
        code = Op::kCmpF64;
        l = ToF64(l);
        r = ToF64(r);
        if (failed_) return Slot{};
        if (l.is_const() && r.is_const()) {
          return TriConst(ApplyCmp(op, Compare3(l.d, r.d)) ? 1 : 0);
        }
      }
    } else {
      // Bool-vs-bool (and any mixed-type) comparisons stay interpreted.
      return Fail();
    }
    Slot dst = NewReg(VType::kTri);
    Instr& ins = Push(code, dst.reg);
    ins.a = l;
    ins.b = r;
    ins.aux = static_cast<int>(op);
    return dst;
  }

  Slot EmitLogical(const BoundExpr& e) {
    Slot l = ToTri(Emit(*e.children[0]));
    Slot r = ToTri(Emit(*e.children[1]));
    if (failed_) return Slot{};
    const bool is_and = e.op == BinaryOp::kAnd;
    if (l.is_const() && r.is_const()) {
      return TriConst(is_and ? KleeneAnd(l.tri, r.tri)
                             : KleeneOr(l.tri, r.tri));
    }
    // Absorbing / identity constants simplify away the instruction; a
    // constant NULL operand does not (NULL AND FALSE is FALSE).
    if (l.is_const()) {
      if (is_and && l.tri == 0) return TriConst(0);
      if (!is_and && l.tri == 1) return TriConst(1);
      if (is_and && l.tri == 1) return r;
      if (!is_and && l.tri == 0) return r;
    }
    if (r.is_const()) {
      if (is_and && r.tri == 0) return TriConst(0);
      if (!is_and && r.tri == 1) return TriConst(1);
      if (is_and && r.tri == 1) return l;
      if (!is_and && r.tri == 0) return l;
    }
    Slot dst = NewReg(VType::kTri);
    Instr& ins = Push(is_and ? Op::kAnd : Op::kOr, dst.reg);
    ins.a = l;
    ins.b = r;
    return dst;
  }

  Slot EmitNot(const BoundExpr& e) {
    Slot a = ToTri(Emit(*e.children[0]));
    if (failed_) return Slot{};
    if (a.is_const()) return TriConst(KleeneNot(a.tri));
    Slot dst = NewReg(VType::kTri);
    Push(Op::kNot, dst.reg).a = a;
    return dst;
  }

  Slot EmitNegate(const BoundExpr& e) {
    Slot a = Emit(*e.children[0]);
    if (failed_) return Slot{};
    if (a.is_const() && a.is_null) return a;
    if (a.type == VType::kI64) {
      if (a.is_const()) {
        a.i = -a.i;
        return a;
      }
      Slot dst = NewReg(VType::kI64);
      Push(Op::kNegI64, dst.reg).a = a;
      return dst;
    }
    if (a.type == VType::kF64) {
      if (a.is_const()) {
        a.d = -a.d;
        return a;
      }
      Slot dst = NewReg(VType::kF64);
      Push(Op::kNegF64, dst.reg).a = a;
      return dst;
    }
    return Fail();
  }

  Slot EmitIsNull(const BoundExpr& e) {
    Slot a = Emit(*e.children[0]);
    if (failed_) return Slot{};
    if (a.is_const()) {
      const bool isn = a.type == VType::kTri ? a.tri < 0 : a.is_null;
      return TriConst((e.negated ? !isn : isn) ? 1 : 0);
    }
    Slot dst = NewReg(VType::kTri);
    Instr& ins = Push(Op::kIsNull, dst.reg);
    ins.a = a;
    ins.flag = e.negated;
    return dst;
  }

  Slot EmitInList(const BoundExpr& e) {
    Slot probe = Emit(*e.children[0]);
    if (failed_) return Slot{};
    if (probe.is_const() && probe.type != VType::kTri && probe.is_null) {
      return TriConst(-1);
    }
    if (probe.type == VType::kTri) return Fail();  // bool IN (...) uncovered
    ExprProgram::InListPool pool;
    for (size_t i = 1; i < e.children.size(); ++i) {
      const BoundExpr& item = *e.children[i];
      if (item.kind != BoundKind::kLiteral) return Fail();
      const Value& v = item.literal;
      if (v.is_null()) {
        pool.has_null = true;
      } else if (v.type() == TypeId::kInt64) {
        pool.i64.push_back(v.AsInt());
      } else if (v.type() == TypeId::kDouble) {
        pool.f64.push_back(v.AsDouble());
      } else if (v.type() == TypeId::kString) {
        pool.str.push_back(v.AsString());
      }
      // Items of other types can never compare equal to a numeric or
      // string probe (Value::Compare across type tags is never 0) — drop.
    }
    Op code;
    switch (probe.type) {
      case VType::kI64:
        code = Op::kInI64;
        break;
      case VType::kF64:
        code = Op::kInF64;
        break;
      default:
        code = Op::kInStr;
        break;
    }
    if (probe.is_const()) {
      // Fold the membership test now.
      bool found = false;
      if (probe.type == VType::kI64) {
        found = std::find(pool.i64.begin(), pool.i64.end(), probe.i) !=
                pool.i64.end();
        for (double d : pool.f64) {
          found = found || static_cast<double>(probe.i) == d;
        }
      } else if (probe.type == VType::kF64) {
        for (double d : pool.f64) found = found || probe.d == d;
        for (int64_t i : pool.i64) {
          found = found || probe.d == static_cast<double>(i);
        }
      } else {
        const std::string& s = prog_->str_pool_[probe.str];
        found = std::find(pool.str.begin(), pool.str.end(), s) !=
                pool.str.end();
      }
      int8_t tri = found ? 1 : (pool.has_null ? -1 : 0);
      if (e.negated) tri = tri < 0 ? -1 : int8_t(1 - tri);
      return TriConst(tri);
    }
    prog_->in_pool_.push_back(std::move(pool));
    Slot dst = NewReg(VType::kTri);
    Instr& ins = Push(code, dst.reg);
    ins.a = probe;
    ins.aux = static_cast<int>(prog_->in_pool_.size() - 1);
    ins.flag = e.negated;
    return dst;
  }

  Slot EmitLike(const BoundExpr& e) {
    Slot probe = Emit(*e.children[0]);
    if (failed_) return Slot{};
    const LikePattern lp =
        CompileLikePattern(e.children[1]->literal.AsString());
    if (probe.is_const()) {
      if (probe.is_null) return TriConst(-1);
      if (probe.type != VType::kStr) return Fail();
      return TriConst(LikeMatch(prog_->str_pool_[probe.str], lp) ? 1 : 0);
    }
    if (probe.type != VType::kStr) return Fail();
    prog_->like_pool_.push_back(lp);
    Slot dst = NewReg(VType::kTri);
    Instr& ins = Push(Op::kLike, dst.reg);
    ins.a = probe;
    ins.aux = static_cast<int>(prog_->like_pool_.size() - 1);
    return dst;
  }

  const CompileEnv& env_;
  std::unique_ptr<ExprProgram> prog_;
  std::unordered_map<int, Slot> col_slots_;  // column position -> load slot
  int next_reg_ = 0;
  bool failed_ = false;
};

std::shared_ptr<const ExprProgram> ExprProgram::Compile(const BoundExpr& e,
                                                        const CompileEnv& env,
                                                        bool as_predicate) {
  if (env.colmap == nullptr) return nullptr;
  return Compiler(env).Compile(e, as_predicate);
}

namespace {

/// A resolved binary operand: a register's column vector (with optional
/// null mask) or a splatted immediate. The pointer checks inside val() /
/// null_at() are loop-invariant and perfectly predicted.
template <typename T>
struct Operand {
  const T* v = nullptr;
  const uint8_t* nl = nullptr;
  T c{};

  T val(size_t k) const { return v != nullptr ? v[k] : c; }
  bool null_at(size_t k) const { return nl != nullptr && nl[k] != 0; }
};

struct TriOperand {
  const int8_t* v = nullptr;
  int8_t c = 0;

  int8_t val(size_t k) const { return v != nullptr ? v[k] : c; }
};

Operand<int64_t> ResolveI64(const Slot& s, const ExprExecState& st) {
  Operand<int64_t> o;
  if (s.reg >= 0) {
    const ExprExecState::Reg& r = st.regs[s.reg];
    o.v = r.i64.data();
    o.nl = r.has_nulls ? r.null.data() : nullptr;
  } else {
    o.c = s.i;
  }
  return o;
}

Operand<double> ResolveF64(const Slot& s, const ExprExecState& st) {
  Operand<double> o;
  if (s.reg >= 0) {
    const ExprExecState::Reg& r = st.regs[s.reg];
    o.v = r.f64.data();
    o.nl = r.has_nulls ? r.null.data() : nullptr;
  } else {
    o.c = s.d;
  }
  return o;
}

Operand<const std::string*> ResolveStr(const Slot& s, const ExprExecState& st,
                                       const std::vector<std::string>& pool) {
  Operand<const std::string*> o;
  if (s.reg >= 0) {
    const ExprExecState::Reg& r = st.regs[s.reg];
    o.v = r.str.data();
    o.nl = r.has_nulls ? r.null.data() : nullptr;
  } else {
    o.c = s.str >= 0 ? &pool[s.str] : &kEmptyString;
  }
  return o;
}

TriOperand ResolveTri(const Slot& s, const ExprExecState& st) {
  TriOperand o;
  if (s.reg >= 0) {
    o.v = st.regs[s.reg].tri.data();
  } else {
    o.c = s.tri;
  }
  return o;
}

/// dst[k] = f(a[k], b[k]) with NULL propagation.
template <typename T, typename F>
void ArithLoop(const Operand<T>& a, const Operand<T>& b,
               ExprExecState::Reg* dst, std::vector<T> ExprExecState::Reg::*mem,
               size_t n, F f) {
  std::vector<T>& out = dst->*mem;
  out.resize(n);
  dst->null.assign(n, 0);
  bool any = false;
  for (size_t k = 0; k < n; ++k) {
    if (a.null_at(k) || b.null_at(k)) {
      dst->null[k] = 1;
      any = true;
      out[k] = T{};
    } else {
      out[k] = f(a.val(k), b.val(k));
    }
  }
  dst->has_nulls = any;
}

template <typename T, typename P>
void CmpLoopPred(const Operand<T>& a, const Operand<T>& b,
                 std::vector<int8_t>& out, size_t n, P pred) {
  for (size_t k = 0; k < n; ++k) {
    if (a.null_at(k) || b.null_at(k)) {
      out[k] = -1;
    } else {
      out[k] = pred(Compare3(a.val(k), b.val(k))) ? 1 : 0;
    }
  }
}

template <typename T>
void CmpLoop(const Operand<T>& a, const Operand<T>& b, std::vector<int8_t>& out,
             size_t n, BinaryOp op) {
  out.resize(n);
  switch (op) {
    case BinaryOp::kEq:
      CmpLoopPred(a, b, out, n, [](int c) { return c == 0; });
      break;
    case BinaryOp::kNe:
      CmpLoopPred(a, b, out, n, [](int c) { return c != 0; });
      break;
    case BinaryOp::kLt:
      CmpLoopPred(a, b, out, n, [](int c) { return c < 0; });
      break;
    case BinaryOp::kLe:
      CmpLoopPred(a, b, out, n, [](int c) { return c <= 0; });
      break;
    case BinaryOp::kGt:
      CmpLoopPred(a, b, out, n, [](int c) { return c > 0; });
      break;
    default:
      CmpLoopPred(a, b, out, n, [](int c) { return c >= 0; });
      break;
  }
}

}  // namespace

void ExprProgram::Run(const RowBatch& batch, ExprExecState* state) const {
  const std::vector<uint32_t>& sel = batch.selection();
  const size_t n = sel.size();
  if (state->regs.size() < static_cast<size_t>(num_regs_)) {
    state->regs.resize(num_regs_);
  }
  for (const Instr& ins : code_) {
    ExprExecState::Reg& dst = state->regs[ins.dst];
    switch (ins.op) {
      case Op::kLoadI64: {
        const std::vector<Value>& col = batch.column(ins.aux);
        dst.i64.resize(n);
        dst.null.assign(n, 0);
        bool any = false;
        for (size_t k = 0; k < n; ++k) {
          const Value& v = col[sel[k]];
          if (v.is_null()) {
            dst.null[k] = 1;
            any = true;
            dst.i64[k] = 0;
          } else {
            dst.i64[k] = v.AsInt();
          }
        }
        dst.has_nulls = any;
        break;
      }
      case Op::kLoadF64: {
        const std::vector<Value>& col = batch.column(ins.aux);
        dst.f64.resize(n);
        dst.null.assign(n, 0);
        bool any = false;
        for (size_t k = 0; k < n; ++k) {
          const Value& v = col[sel[k]];
          if (v.is_null()) {
            dst.null[k] = 1;
            any = true;
            dst.f64[k] = 0;
          } else {
            dst.f64[k] = v.AsDouble();
          }
        }
        dst.has_nulls = any;
        break;
      }
      case Op::kLoadStr: {
        const std::vector<Value>& col = batch.column(ins.aux);
        dst.str.resize(n);
        dst.null.assign(n, 0);
        bool any = false;
        for (size_t k = 0; k < n; ++k) {
          const Value& v = col[sel[k]];
          if (v.is_null()) {
            dst.null[k] = 1;
            any = true;
            dst.str[k] = &kEmptyString;
          } else {
            dst.str[k] = &v.AsString();
          }
        }
        dst.has_nulls = any;
        break;
      }
      case Op::kLoadTri: {
        const std::vector<Value>& col = batch.column(ins.aux);
        dst.tri.resize(n);
        for (size_t k = 0; k < n; ++k) {
          const Value& v = col[sel[k]];
          dst.tri[k] = v.is_null() ? -1 : (v.AsBool() ? 1 : 0);
        }
        break;
      }
      case Op::kCastI64F64: {
        const ExprExecState::Reg& src = state->regs[ins.a.reg];
        dst.f64.resize(n);
        for (size_t k = 0; k < n; ++k) {
          dst.f64[k] = static_cast<double>(src.i64[k]);
        }
        dst.null = src.null;
        dst.has_nulls = src.has_nulls;
        break;
      }
      case Op::kAddI64:
        ArithLoop(ResolveI64(ins.a, *state), ResolveI64(ins.b, *state), &dst,
                  &ExprExecState::Reg::i64, n,
                  [](int64_t a, int64_t b) { return a + b; });
        break;
      case Op::kSubI64:
        ArithLoop(ResolveI64(ins.a, *state), ResolveI64(ins.b, *state), &dst,
                  &ExprExecState::Reg::i64, n,
                  [](int64_t a, int64_t b) { return a - b; });
        break;
      case Op::kMulI64:
        ArithLoop(ResolveI64(ins.a, *state), ResolveI64(ins.b, *state), &dst,
                  &ExprExecState::Reg::i64, n,
                  [](int64_t a, int64_t b) { return a * b; });
        break;
      case Op::kNegI64: {
        const Operand<int64_t> a = ResolveI64(ins.a, *state);
        dst.i64.resize(n);
        dst.null.assign(n, 0);
        bool any = false;
        for (size_t k = 0; k < n; ++k) {
          if (a.null_at(k)) {
            dst.null[k] = 1;
            any = true;
            dst.i64[k] = 0;
          } else {
            dst.i64[k] = -a.val(k);
          }
        }
        dst.has_nulls = any;
        break;
      }
      case Op::kAddF64:
        ArithLoop(ResolveF64(ins.a, *state), ResolveF64(ins.b, *state), &dst,
                  &ExprExecState::Reg::f64, n,
                  [](double a, double b) { return a + b; });
        break;
      case Op::kSubF64:
        ArithLoop(ResolveF64(ins.a, *state), ResolveF64(ins.b, *state), &dst,
                  &ExprExecState::Reg::f64, n,
                  [](double a, double b) { return a - b; });
        break;
      case Op::kMulF64:
        ArithLoop(ResolveF64(ins.a, *state), ResolveF64(ins.b, *state), &dst,
                  &ExprExecState::Reg::f64, n,
                  [](double a, double b) { return a * b; });
        break;
      case Op::kDivF64: {
        const Operand<double> a = ResolveF64(ins.a, *state);
        const Operand<double> b = ResolveF64(ins.b, *state);
        dst.f64.resize(n);
        dst.null.assign(n, 0);
        bool any = false;
        for (size_t k = 0; k < n; ++k) {
          const double bv = b.val(k);
          if (a.null_at(k) || b.null_at(k) || bv == 0) {
            dst.null[k] = 1;
            any = true;
            dst.f64[k] = 0;
          } else {
            dst.f64[k] = a.val(k) / bv;
          }
        }
        dst.has_nulls = any;
        break;
      }
      case Op::kNegF64: {
        const Operand<double> a = ResolveF64(ins.a, *state);
        dst.f64.resize(n);
        dst.null.assign(n, 0);
        bool any = false;
        for (size_t k = 0; k < n; ++k) {
          if (a.null_at(k)) {
            dst.null[k] = 1;
            any = true;
            dst.f64[k] = 0;
          } else {
            dst.f64[k] = -a.val(k);
          }
        }
        dst.has_nulls = any;
        break;
      }
      case Op::kCmpI64:
        CmpLoop(ResolveI64(ins.a, *state), ResolveI64(ins.b, *state), dst.tri,
                n, static_cast<BinaryOp>(ins.aux));
        break;
      case Op::kCmpF64:
        CmpLoop(ResolveF64(ins.a, *state), ResolveF64(ins.b, *state), dst.tri,
                n, static_cast<BinaryOp>(ins.aux));
        break;
      case Op::kCmpStr:
        CmpLoop(ResolveStr(ins.a, *state, str_pool_),
                ResolveStr(ins.b, *state, str_pool_), dst.tri, n,
                static_cast<BinaryOp>(ins.aux));
        break;
      case Op::kAnd: {
        const TriOperand a = ResolveTri(ins.a, *state);
        const TriOperand b = ResolveTri(ins.b, *state);
        dst.tri.resize(n);
        for (size_t k = 0; k < n; ++k) {
          dst.tri[k] = KleeneAnd(a.val(k), b.val(k));
        }
        break;
      }
      case Op::kOr: {
        const TriOperand a = ResolveTri(ins.a, *state);
        const TriOperand b = ResolveTri(ins.b, *state);
        dst.tri.resize(n);
        for (size_t k = 0; k < n; ++k) {
          dst.tri[k] = KleeneOr(a.val(k), b.val(k));
        }
        break;
      }
      case Op::kNot: {
        const TriOperand a = ResolveTri(ins.a, *state);
        dst.tri.resize(n);
        for (size_t k = 0; k < n; ++k) dst.tri[k] = KleeneNot(a.val(k));
        break;
      }
      case Op::kIsNull: {
        const ExprExecState::Reg& src = state->regs[ins.a.reg];
        dst.tri.resize(n);
        if (ins.a.type == VType::kTri) {
          for (size_t k = 0; k < n; ++k) {
            const bool isn = src.tri[k] < 0;
            dst.tri[k] = (ins.flag ? !isn : isn) ? 1 : 0;
          }
        } else {
          const uint8_t* nl = src.has_nulls ? src.null.data() : nullptr;
          for (size_t k = 0; k < n; ++k) {
            const bool isn = nl != nullptr && nl[k] != 0;
            dst.tri[k] = (ins.flag ? !isn : isn) ? 1 : 0;
          }
        }
        break;
      }
      case Op::kLike: {
        const Operand<const std::string*> a =
            ResolveStr(ins.a, *state, str_pool_);
        const LikePattern& lp = like_pool_[ins.aux];
        dst.tri.resize(n);
        for (size_t k = 0; k < n; ++k) {
          if (a.null_at(k)) {
            dst.tri[k] = -1;
          } else {
            dst.tri[k] = LikeMatch(*a.val(k), lp) ? 1 : 0;
          }
        }
        break;
      }
      case Op::kInI64: {
        const Operand<int64_t> a = ResolveI64(ins.a, *state);
        const InListPool& pool = in_pool_[ins.aux];
        dst.tri.resize(n);
        for (size_t k = 0; k < n; ++k) {
          if (a.null_at(k)) {
            dst.tri[k] = -1;
            continue;
          }
          const int64_t p = a.val(k);
          bool found = false;
          for (int64_t item : pool.i64) found = found || p == item;
          for (double item : pool.f64) {
            found = found || static_cast<double>(p) == item;
          }
          int8_t tri = found ? 1 : (pool.has_null ? -1 : 0);
          if (ins.flag) tri = tri < 0 ? -1 : int8_t(1 - tri);
          dst.tri[k] = tri;
        }
        break;
      }
      case Op::kInF64: {
        const Operand<double> a = ResolveF64(ins.a, *state);
        const InListPool& pool = in_pool_[ins.aux];
        dst.tri.resize(n);
        for (size_t k = 0; k < n; ++k) {
          if (a.null_at(k)) {
            dst.tri[k] = -1;
            continue;
          }
          const double p = a.val(k);
          bool found = false;
          for (double item : pool.f64) found = found || p == item;
          for (int64_t item : pool.i64) {
            found = found || p == static_cast<double>(item);
          }
          int8_t tri = found ? 1 : (pool.has_null ? -1 : 0);
          if (ins.flag) tri = tri < 0 ? -1 : int8_t(1 - tri);
          dst.tri[k] = tri;
        }
        break;
      }
      case Op::kInStr: {
        const Operand<const std::string*> a =
            ResolveStr(ins.a, *state, str_pool_);
        const InListPool& pool = in_pool_[ins.aux];
        dst.tri.resize(n);
        for (size_t k = 0; k < n; ++k) {
          if (a.null_at(k)) {
            dst.tri[k] = -1;
            continue;
          }
          const std::string& p = *a.val(k);
          bool found = false;
          for (const std::string& item : pool.str) {
            if (p == item) {
              found = true;
              break;
            }
          }
          int8_t tri = found ? 1 : (pool.has_null ? -1 : 0);
          if (ins.flag) tri = tri < 0 ? -1 : int8_t(1 - tri);
          dst.tri[k] = tri;
        }
        break;
      }
    }
  }
}

void ExprProgram::FilterBatch(RowBatch* batch, ExprExecState* state) const {
  const Slot& r = result_;
  if (r.is_const()) {
    QOPT_DCHECK(r.type == VType::kTri);
    if (r.tri != 1) batch->mutable_selection()->clear();
    return;
  }
  QOPT_DCHECK(r.type == VType::kTri);
  Run(*batch, state);
  const std::vector<int8_t>& tri = state->regs[r.reg].tri;
  std::vector<uint32_t>& sel = *batch->mutable_selection();
  size_t kept = 0;
  for (size_t k = 0; k < sel.size(); ++k) {
    if (tri[k] == 1) sel[kept++] = sel[k];
  }
  sel.resize(kept);
}

void ExprProgram::EvalColumn(const RowBatch& batch, ExprExecState* state,
                             std::vector<Value>* out) const {
  const size_t n = batch.ActiveSize();
  out->clear();
  out->reserve(n);
  const Slot& r = result_;
  if (r.is_const()) {
    Value v;
    if (r.type == VType::kTri) {
      v = r.tri < 0 ? Value::Null() : Value::Bool(r.tri == 1);
    } else if (r.is_null) {
      v = Value::Null();
    } else if (r.type == VType::kI64) {
      v = Value::Int(r.i);
    } else if (r.type == VType::kF64) {
      v = Value::Double(r.d);
    } else {
      v = Value::String(str_pool_[r.str]);
    }
    out->assign(n, v);
    return;
  }
  Run(batch, state);
  const ExprExecState::Reg& reg = state->regs[r.reg];
  switch (r.type) {
    case VType::kI64:
      for (size_t k = 0; k < n; ++k) {
        if (reg.has_nulls && reg.null[k]) {
          out->push_back(Value::Null());
        } else {
          out->push_back(Value::Int(reg.i64[k]));
        }
      }
      break;
    case VType::kF64:
      for (size_t k = 0; k < n; ++k) {
        if (reg.has_nulls && reg.null[k]) {
          out->push_back(Value::Null());
        } else {
          out->push_back(Value::Double(reg.f64[k]));
        }
      }
      break;
    case VType::kStr:
      for (size_t k = 0; k < n; ++k) {
        if (reg.has_nulls && reg.null[k]) {
          out->push_back(Value::Null());
        } else {
          out->push_back(Value::String(*reg.str[k]));
        }
      }
      break;
    case VType::kTri:
      for (size_t k = 0; k < n; ++k) {
        const int8_t t = reg.tri[k];
        out->push_back(t < 0 ? Value::Null() : Value::Bool(t == 1));
      }
      break;
  }
}

std::shared_ptr<const ExprProgram> ResolveProgram(const PhysicalPlan* node,
                                                  int slot,
                                                  const plan::BoundExpr* e,
                                                  const CompileEnv& env,
                                                  bool as_predicate,
                                                  ExecContext* ctx) {
  if (node == nullptr || e == nullptr || ctx == nullptr ||
      !ctx->compile_expressions) {
    return nullptr;
  }
  bool compiled_now = false;
  uint64_t compile_ns = 0;
  auto entry = node->expr_cache.GetOrCompile(slot, [&] {
    const auto t0 = std::chrono::steady_clock::now();
    auto program = ExprProgram::Compile(*e, env, as_predicate);
    compile_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    compiled_now = true;
    return program;
  });
  if (compiled_now && ctx->expr_compile_ns != nullptr) {
    ctx->expr_compile_ns->Record(compile_ns);
  }
  if (entry->program != nullptr) {
    if (ctx->expr_compiled_metric != nullptr) {
      ctx->expr_compiled_metric->Add(1);
    }
  } else if (ctx->expr_fallback_metric != nullptr) {
    ctx->expr_fallback_metric->Add(1);
  }
  return entry->program;
}

}  // namespace qopt::exec::expr
