// Runtime expression evaluation with SQL three-valued logic.
//
// One interpreter, EvalExpr / EvalPredicate, evaluates an expression for
// one row. The row is either a whole `Row` (Apply, the streaming
// aggregate, the index nested-loop join's inner predicate on storage rows,
// a join residual that does not compile) or one physical row of a
// RowBatch. EvalExprBatch / EvalPredicateBatch are the vectorized
// operators' fallback when an expression does not compile (or
// compile_expressions is off): they loop over a batch's live rows and call
// EvalExpr / EvalPredicate on each. The interpreter is also the oracle the
// compiled programs (exec/expr_compile.h) are tested against.
#ifndef QOPT_EXEC_EXPR_EVAL_H_
#define QOPT_EXEC_EXPR_EVAL_H_

#include <unordered_map>
#include <vector>

#include "common/column_id.h"
#include "common/value.h"
#include "exec/row_batch.h"
#include "plan/expr.h"

namespace qopt::exec {

/// Maps ColumnId -> position in an operator's output row.
using ColMap = std::unordered_map<ColumnId, int, ColumnIdHash>;

/// Correlated parameter bindings (outer-row values) for Apply subtrees.
using ParamMap = std::unordered_map<ColumnId, Value, ColumnIdHash>;

/// Evaluation context: the current row with its column map, plus optional
/// correlated parameters consulted when a column is not in the map. The
/// row's cells come from `row` or, when `batch` is set, from physical row
/// `batch_row` of `batch`.
struct EvalContext {
  const ColMap* colmap = nullptr;
  const Row* row = nullptr;
  const ParamMap* params = nullptr;
  const RowBatch* batch = nullptr;
  uint32_t batch_row = 0;
};

/// Evaluates `e` under `ctx`. Comparisons/arithmetic over NULL yield NULL;
/// AND/OR follow Kleene logic. Aborts (DCHECK) on unresolvable columns —
/// that indicates a planner bug, not a user error.
Value EvalExpr(const plan::BoundExpr& e, const EvalContext& ctx);

/// True iff `pred` evaluates to TRUE (NULL and FALSE both reject).
bool EvalPredicate(const plan::BExpr& pred, const EvalContext& ctx);

/// SQL LIKE with % and _ wildcards: the general backtracking matcher,
/// sharing no code with the LikePattern fast paths below.
bool LikeMatch(const std::string& text, const std::string& pattern);

/// A LIKE pattern classified once so repeated matching (compiled
/// programs) can use direct string comparisons instead of the
/// general wildcard matcher. Patterns containing '_' or more '%' structure
/// than prefix/suffix/contains stay generic.
struct LikePattern {
  enum class Kind : uint8_t {
    kExact,         // no wildcards : text == pattern
    kPrefix,        // 'abc%'       : text starts with pre
    kSuffix,        // '%abc'       : text ends with suf
    kContains,      // '%abc%'      : text contains pre
    kPrefixSuffix,  // 'ab%cd'      : starts with pre and ends with suf
    kGeneric,       // anything else: full wildcard matcher
  };
  Kind kind = Kind::kGeneric;
  std::string pattern;   // original pattern, used for generic matching
  std::string pre, suf;  // literal pieces for the fast kinds
};

/// Classifies `pattern` for repeated matching (runs of '%' collapse first).
LikePattern CompileLikePattern(const std::string& pattern);

/// Matches `text` against a pre-classified pattern.
bool LikeMatch(const std::string& text, const LikePattern& pattern);

/// Evaluates `e` with EvalExpr once per live row of `ctx.batch` (its
/// `batch_row` is ignored); on return `out` holds one Value per live row
/// (indexed by active position, not physical row).
void EvalExprBatch(const plan::BoundExpr& e, const EvalContext& ctx,
                   std::vector<Value>* out);

/// Refines `batch`'s selection vector in place, keeping exactly the live
/// rows for which `pred` evaluates to TRUE (NULL and FALSE both reject).
/// `ctx.batch` must point at `batch`. A null `pred` keeps every row.
void EvalPredicateBatch(const plan::BExpr& pred, const EvalContext& ctx,
                        RowBatch* batch);

}  // namespace qopt::exec

#endif  // QOPT_EXEC_EXPR_EVAL_H_
