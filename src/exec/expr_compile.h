// Expression compiler for the vectorized execution path.
//
// Lowers a bound expression tree into an ExprProgram: a flat sequence of
// type-specialized instructions over virtual registers, where each register
// holds one column vector (int64 / double / string-ref / three-valued
// boolean) plus a null mask. Executing a program runs one monomorphic loop
// per instruction over the batch's live rows — no per-row tree walk, tag
// dispatch or Value allocation, the costs that dominate the interpreted
// EvalExprBatch path (EvalExpr once per live row). Literal-only operands
// are folded to immediates at compile time.
//
// The compiler intentionally does not cover every expression shape (see
// docs/EXPRESSIONS.md for the exact rules); Compile returns null for
// uncovered shapes and callers fall back to the interpreter, which remains
// the semantics oracle. Compiled and interpreted evaluation are
// byte-identical by construction and by the P6 parity property.
#ifndef QOPT_EXEC_EXPR_COMPILE_H_
#define QOPT_EXEC_EXPR_COMPILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "exec/expr_eval.h"
#include "exec/row_batch.h"
#include "plan/expr.h"

namespace qopt::exec {
struct ExecContext;
struct PhysicalPlan;
}  // namespace qopt::exec

namespace qopt::exec::expr {

/// Register / operand type. Strings are evaluated by reference: a kStr
/// register holds pointers into the batch's column storage (or the
/// program's constant pool), so string expressions never copy row data.
enum class VType : uint8_t {
  kI64,  // int64 vector + null mask
  kF64,  // double vector + null mask
  kStr,  // const std::string* vector + null mask
  kTri,  // three-valued logic: -1 = NULL, 0 = FALSE, 1 = TRUE
};

/// Static input description: column positions (via the operator's ColMap)
/// and the TypeId of each input position.
struct CompileEnv {
  const ColMap* colmap = nullptr;
  std::vector<TypeId> col_types;
};

/// Builds a CompileEnv from an operator's column map and the plan node's
/// output columns (positions in `cols` must match the colmap's positions).
template <typename OutputColVec>
CompileEnv MakeCompileEnv(const ColMap& colmap, const OutputColVec& cols) {
  CompileEnv env;
  env.colmap = &colmap;
  env.col_types.reserve(cols.size());
  for (const auto& c : cols) env.col_types.push_back(c.type);
  return env;
}

/// An operand: either a register or a compile-time constant (immediate).
struct Slot {
  VType type = VType::kI64;
  int reg = -1;         // >= 0: register id; -1: immediate constant
  bool is_null = false;  // immediate NULL (type gives static type when known)
  int64_t i = 0;         // kI64 immediate
  double d = 0;          // kF64 immediate
  int str = -1;          // kStr immediate: index into the string pool
  int8_t tri = 0;        // kTri immediate

  bool is_const() const { return reg < 0; }
};

/// Reusable per-executor (per-worker) register file. Programs are immutable
/// and shared; each concurrent evaluation owns one ExprExecState.
struct ExprExecState {
  struct Reg {
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<const std::string*> str;
    std::vector<int8_t> tri;
    std::vector<uint8_t> null;  // 1 = NULL (value registers only)
    bool has_nulls = false;
  };
  std::vector<Reg> regs;
};

/// A compiled, immutable expression program. Thread-safe to share: all
/// mutable evaluation state lives in the caller's ExprExecState.
class ExprProgram {
 public:
  enum class Op : uint8_t {
    kLoadI64,  // dst <- column[aux]
    kLoadF64,
    kLoadStr,
    kLoadTri,     // bool column -> tri register
    kCastI64F64,  // dst <- (double) a
    kAddI64,
    kSubI64,
    kMulI64,
    kNegI64,
    kAddF64,
    kSubF64,
    kMulF64,
    kDivF64,  // divisor 0 -> NULL (SQL semantics)
    kNegF64,
    kCmpI64,  // aux = plan::BinaryOp comparison; dst is kTri
    kCmpF64,
    kCmpStr,
    kAnd,  // total Kleene AND over tri operands
    kOr,
    kNot,
    kIsNull,  // flag = negated (IS NOT NULL); dst is kTri, never NULL
    kLike,    // aux = like-pattern pool index; dst is kTri
    kInI64,   // aux = in-list pool index; flag = negated; dst is kTri
    kInF64,
    kInStr,
  };

  struct Instr {
    Op op;
    int dst = -1;
    Slot a, b;
    int aux = 0;
    bool flag = false;
  };

  /// Compiles `e` against `env`. With `as_predicate`, the result must be
  /// three-valued (suitable for FilterBatch). Returns null when the
  /// expression uses an unsupported shape: an unresolvable (correlated)
  /// column, a column of unknown type, CASE, bool-vs-bool comparison,
  /// an IN list with non-literal items, or a non-boolean predicate root.
  static std::shared_ptr<const ExprProgram> Compile(const plan::BoundExpr& e,
                                                    const CompileEnv& env,
                                                    bool as_predicate);

  /// Refines `batch`'s selection vector in place, keeping exactly the live
  /// rows where the (predicate) program evaluates to TRUE. Matches
  /// EvalPredicateBatch byte-for-byte.
  void FilterBatch(RowBatch* batch, ExprExecState* state) const;

  /// Evaluates the program once per live row into `out` (one Value per
  /// live row, indexed by active position). Matches EvalExprBatch.
  void EvalColumn(const RowBatch& batch, ExprExecState* state,
                  std::vector<Value>* out) const;

  /// Input column positions the program reads (deduplicated). Callers that
  /// stage rows into a scratch batch (hash-join residuals) only need to
  /// populate these columns.
  const std::vector<int>& referenced_cols() const { return referenced_cols_; }

  size_t num_instrs() const { return code_.size(); }
  size_t num_regs() const { return static_cast<size_t>(num_regs_); }

 private:
  friend class Compiler;
  ExprProgram() = default;

  /// Runs every instruction over the batch's live rows.
  void Run(const RowBatch& batch, ExprExecState* state) const;

  struct InListPool {
    std::vector<int64_t> i64;      // int items, compared in the int domain
    std::vector<double> f64;       // double items (and the all-double view)
    std::vector<std::string> str;  // string items
    bool has_null = false;
  };

  std::vector<Instr> code_;
  Slot result_;
  int num_regs_ = 0;
  std::vector<std::string> str_pool_;
  std::vector<LikePattern> like_pool_;
  std::vector<InListPool> in_pool_;
  std::vector<int> referenced_cols_;
};

/// Resolves the compiled program for (`node`, `slot`) through the node's
/// PlanExprCache, compiling on first use. Returns null — meaning "use the
/// interpreter" — when compilation is disabled in `ctx`, the expression is
/// null, or the shape is uncovered. Bumps the expr.compiled/expr.fallback
/// counters and records compile time in the expr.compile_ns histogram
/// (first compile only) when `ctx` carries metric handles.
std::shared_ptr<const ExprProgram> ResolveProgram(const PhysicalPlan* node,
                                                  int slot,
                                                  const plan::BoundExpr* e,
                                                  const CompileEnv& env,
                                                  bool as_predicate,
                                                  ExecContext* ctx);

}  // namespace qopt::exec::expr

#endif  // QOPT_EXEC_EXPR_COMPILE_H_
