#include "exec/expr_compile.h"

#include <gtest/gtest.h>

#include <random>

#include "exec/expr_eval.h"

namespace qopt::exec::expr {
namespace {

using ast::BinaryOp;
using plan::BExpr;
using plan::MakeBinary;
using plan::MakeColumn;
using plan::MakeIsNull;
using plan::MakeLiteral;
using plan::MakeNot;

// Columns: 0 = INT (with NULLs), 1 = DOUBLE (with NULLs), 2 = STRING
// (with NULLs), 3 = INT (dense).
class ExprCompileTest : public ::testing::Test {
 protected:
  ExprCompileTest() {
    colmap_[{0, 0}] = 0;
    colmap_[{0, 1}] = 1;
    colmap_[{0, 2}] = 2;
    colmap_[{0, 3}] = 3;
    env_.colmap = &colmap_;
    env_.col_types = {TypeId::kInt64, TypeId::kDouble, TypeId::kString,
                      TypeId::kInt64};
    FillBatch(&batch_, 64, 42);
  }

  static void FillBatch(RowBatch* b, size_t n, uint64_t seed) {
    std::mt19937_64 rng(seed);
    b->Reset(4, n);
    for (size_t r = 0; r < n; ++r) {
      b->column(0).push_back(rng() % 5 == 0
                                 ? Value::Null()
                                 : Value::Int(static_cast<int64_t>(rng() % 100)));
      b->column(1).push_back(rng() % 5 == 0
                                 ? Value::Null()
                                 : Value::Double((rng() % 1000) / 10.0));
      b->column(2).push_back(rng() % 6 == 0
                                 ? Value::Null()
                                 : Value::String("v" + std::to_string(rng() % 30)));
      b->column(3).push_back(Value::Int(static_cast<int64_t>(rng() % 100)));
      b->CommitRow();
    }
  }

  BExpr Col(int i, TypeId t = TypeId::kInt64) {
    return MakeColumn({0, i}, t, "c");
  }
  BExpr Lit(int64_t v) { return MakeLiteral(Value::Int(v)); }

  /// Compiled FilterBatch == interpreted EvalPredicateBatch, on identical
  /// fresh batches.
  void ExpectFilterParity(const BExpr& pred) {
    auto prog = ExprProgram::Compile(*pred, env_, /*as_predicate=*/true);
    ASSERT_NE(prog, nullptr) << pred->ToString();
    RowBatch compiled, interpreted;
    FillBatch(&compiled, 64, 42);
    FillBatch(&interpreted, 64, 42);
    ExprExecState state;
    prog->FilterBatch(&compiled, &state);
    EvalContext bev{.colmap = &colmap_, .batch = &interpreted};
    EvalPredicateBatch(pred, bev, &interpreted);
    EXPECT_EQ(compiled.selection(), interpreted.selection())
        << pred->ToString();
  }

  /// Compiled EvalColumn == interpreted EvalExprBatch, value by value.
  void ExpectEvalParity(const BExpr& e) {
    auto prog = ExprProgram::Compile(*e, env_, /*as_predicate=*/false);
    ASSERT_NE(prog, nullptr) << e->ToString();
    ExprExecState state;
    std::vector<Value> compiled, interpreted;
    prog->EvalColumn(batch_, &state, &compiled);
    EvalContext bev{.colmap = &colmap_, .batch = &batch_};
    EvalExprBatch(*e, bev, &interpreted);
    ASSERT_EQ(compiled.size(), interpreted.size()) << e->ToString();
    for (size_t k = 0; k < compiled.size(); ++k) {
      EXPECT_EQ(compiled[k], interpreted[k])
          << e->ToString() << " row " << k;
    }
  }

  ColMap colmap_;
  CompileEnv env_;
  RowBatch batch_;
};

TEST_F(ExprCompileTest, ComparisonAndArithmeticParity) {
  ExpectFilterParity(MakeBinary(BinaryOp::kLt, Col(0), Lit(50)));
  ExpectFilterParity(MakeBinary(
      BinaryOp::kGe,
      MakeBinary(BinaryOp::kMul,
                 MakeBinary(BinaryOp::kAdd, Col(0), Lit(3)), Lit(2)),
      Col(3)));
  ExpectFilterParity(MakeBinary(BinaryOp::kLe,
                                MakeBinary(BinaryOp::kDiv, Col(0), Lit(4)),
                                MakeLiteral(Value::Double(12.5))));
  ExpectEvalParity(MakeBinary(BinaryOp::kSub, Col(3), Col(0)));
  ExpectEvalParity(MakeBinary(BinaryOp::kMul, Col(1),
                              MakeLiteral(Value::Double(1.5))));
}

TEST_F(ExprCompileTest, DivisionByZeroYieldsNull) {
  // x / (x - x) on the dense column: divisor is 0 everywhere -> all NULL.
  BExpr div = MakeBinary(BinaryOp::kDiv, Col(3),
                         MakeBinary(BinaryOp::kSub, Col(3), Col(3)));
  ExpectEvalParity(div);
  auto prog = ExprProgram::Compile(*div, env_, /*as_predicate=*/false);
  ASSERT_NE(prog, nullptr);
  ExprExecState state;
  std::vector<Value> out;
  prog->EvalColumn(batch_, &state, &out);
  for (const Value& v : out) EXPECT_TRUE(v.is_null());
}

TEST_F(ExprCompileTest, KleeneLogicParity) {
  BExpr a = MakeBinary(BinaryOp::kLt, Col(0), Lit(40));
  BExpr b = MakeBinary(BinaryOp::kGt, Col(1), MakeLiteral(Value::Double(30)));
  ExpectFilterParity(MakeBinary(BinaryOp::kAnd, a, b));
  ExpectFilterParity(MakeBinary(BinaryOp::kOr, a, b));
  ExpectFilterParity(MakeNot(MakeBinary(BinaryOp::kAnd, a, MakeNot(b))));
  ExpectFilterParity(MakeIsNull(Col(0), /*negated=*/false));
  ExpectFilterParity(MakeIsNull(Col(1), /*negated=*/true));
}

TEST_F(ExprCompileTest, StringPredicateParity) {
  ExpectFilterParity(MakeBinary(BinaryOp::kEq, Col(2, TypeId::kString),
                                MakeLiteral(Value::String("v7"))));
  ExpectFilterParity(MakeBinary(BinaryOp::kLt, Col(2, TypeId::kString),
                                MakeLiteral(Value::String("v2"))));
  for (const char* pat : {"v1%", "%3", "v%2", "%1%", "v17", "v_%"}) {
    auto like = std::make_shared<plan::BoundExpr>();
    like->kind = plan::BoundKind::kLike;
    like->type = TypeId::kBool;
    like->children = {Col(2, TypeId::kString),
                      MakeLiteral(Value::String(pat))};
    ExpectFilterParity(like);
  }
}

TEST_F(ExprCompileTest, InListParity) {
  for (bool negated : {false, true}) {
    auto in = std::make_shared<plan::BoundExpr>();
    in->kind = plan::BoundKind::kInList;
    in->type = TypeId::kBool;
    in->negated = negated;
    in->children = {Col(0), Lit(7), MakeLiteral(Value::Double(8)), Lit(9),
                    MakeLiteral(Value::Null())};
    ExpectFilterParity(in);
  }
}

TEST_F(ExprCompileTest, ConstantFoldsToImmediate) {
  // (1 + 2) < 4 is literal-only: the program should be constant (no
  // instructions, no referenced columns) and keep every row.
  BExpr pred = MakeBinary(BinaryOp::kLt,
                          MakeBinary(BinaryOp::kAdd, Lit(1), Lit(2)), Lit(4));
  auto prog = ExprProgram::Compile(*pred, env_, /*as_predicate=*/true);
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->num_instrs(), 0u);
  EXPECT_TRUE(prog->referenced_cols().empty());
  ExpectFilterParity(pred);
  // FALSE constant drops every row.
  ExpectFilterParity(MakeBinary(BinaryOp::kGt, Lit(1), Lit(2)));
}

TEST_F(ExprCompileTest, ColumnLoadsAreMemoized) {
  // x > 10 AND x < 90 loads column 0 once.
  BExpr pred = MakeBinary(BinaryOp::kAnd,
                          MakeBinary(BinaryOp::kGt, Col(0), Lit(10)),
                          MakeBinary(BinaryOp::kLt, Col(0), Lit(90)));
  auto prog = ExprProgram::Compile(*pred, env_, /*as_predicate=*/true);
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->referenced_cols().size(), 1u);
  ExpectFilterParity(pred);
}

TEST_F(ExprCompileTest, UncoveredShapesFallBack) {
  // CASE is interpreter-only.
  auto kase = std::make_shared<plan::BoundExpr>();
  kase->kind = plan::BoundKind::kCase;
  kase->type = TypeId::kInt64;
  kase->children = {MakeBinary(BinaryOp::kLt, Col(0), Lit(50)), Lit(1),
                    Lit(0)};
  EXPECT_EQ(ExprProgram::Compile(*kase, env_, false), nullptr);
  // Unresolvable (correlated) column.
  BExpr corr = MakeBinary(BinaryOp::kEq, MakeColumn({9, 9}, TypeId::kInt64, "o"),
                          Lit(1));
  EXPECT_EQ(ExprProgram::Compile(*corr, env_, true), nullptr);
  // IN with a non-literal item.
  auto in = std::make_shared<plan::BoundExpr>();
  in->kind = plan::BoundKind::kInList;
  in->type = TypeId::kBool;
  in->children = {Col(0), Col(3)};
  EXPECT_EQ(ExprProgram::Compile(*in, env_, true), nullptr);
  // Non-boolean predicate root.
  EXPECT_EQ(ExprProgram::Compile(
                *MakeBinary(BinaryOp::kAdd, Col(0), Lit(1)), env_, true),
            nullptr);
}

TEST_F(ExprCompileTest, SelectionVectorAware) {
  // Pre-filter the batch, then run a program over the survivors only.
  RowBatch b;
  FillBatch(&b, 64, 42);
  std::vector<uint32_t>* sel = b.mutable_selection();
  std::vector<uint32_t> odd;
  for (uint32_t r : *sel) {
    if (r % 2 == 1) odd.push_back(r);
  }
  *sel = odd;
  BExpr pred = MakeBinary(BinaryOp::kLt, Col(0), Lit(50));
  auto prog = ExprProgram::Compile(*pred, env_, true);
  ASSERT_NE(prog, nullptr);
  ExprExecState state;
  prog->FilterBatch(&b, &state);
  RowBatch ref;
  FillBatch(&ref, 64, 42);
  *ref.mutable_selection() = odd;
  EvalContext bev{.colmap = &colmap_, .batch = &ref};
  EvalPredicateBatch(pred, bev, &ref);
  EXPECT_EQ(b.selection(), ref.selection());
}

TEST_F(ExprCompileTest, RandomizedParity) {
  // Random nested predicates over all columns; compiled == interpreted on
  // every seed (the small-scale mirror of integration property P6).
  std::mt19937_64 rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    std::function<BExpr(int)> gen = [&](int depth) -> BExpr {
      if (depth >= 3 || rng() % 4 == 0) {
        switch (rng() % 4) {
          case 0:
            return MakeBinary(BinaryOp::kLt, Col(0),
                              Lit(static_cast<int64_t>(rng() % 100)));
          case 1:
            return MakeBinary(
                BinaryOp::kGe, Col(1, TypeId::kDouble),
                MakeLiteral(Value::Double((rng() % 1000) / 10.0)));
          case 2:
            return MakeIsNull(Col(rng() % 2 == 0 ? 0 : 1), rng() % 2 == 0);
          default:
            return MakeBinary(
                BinaryOp::kLe,
                MakeBinary(BinaryOp::kAdd, Col(3),
                           Lit(static_cast<int64_t>(rng() % 20))),
                Col(0));
        }
      }
      switch (rng() % 3) {
        case 0:
          return MakeBinary(BinaryOp::kAnd, gen(depth + 1), gen(depth + 1));
        case 1:
          return MakeBinary(BinaryOp::kOr, gen(depth + 1), gen(depth + 1));
        default:
          return MakeNot(gen(depth + 1));
      }
    };
    ExpectFilterParity(gen(0));
  }
}

TEST_F(ExprCompileTest, LikePatternClassification) {
  EXPECT_EQ(CompileLikePattern("abc").kind, LikePattern::Kind::kExact);
  EXPECT_EQ(CompileLikePattern("abc%").kind, LikePattern::Kind::kPrefix);
  EXPECT_EQ(CompileLikePattern("%abc").kind, LikePattern::Kind::kSuffix);
  EXPECT_EQ(CompileLikePattern("%abc%").kind, LikePattern::Kind::kContains);
  EXPECT_EQ(CompileLikePattern("ab%cd").kind,
            LikePattern::Kind::kPrefixSuffix);
  EXPECT_EQ(CompileLikePattern("a_c").kind, LikePattern::Kind::kGeneric);
  EXPECT_EQ(CompileLikePattern("a%b%c").kind, LikePattern::Kind::kGeneric);
  // Runs of '%' collapse before classification.
  EXPECT_EQ(CompileLikePattern("abc%%").kind, LikePattern::Kind::kPrefix);

  // Fast paths agree with the generic matcher on tricky overlaps.
  struct Case {
    const char* text;
    const char* pattern;
  };
  const Case cases[] = {
      {"abc", "abc"},     {"abcd", "abc%"},  {"ab", "abc%"},
      {"xabc", "%abc"},   {"abc", "%abc%"},  {"abcd", "ab%cd"},
      {"abcd", "abc%d"},  {"abd", "ab%cd"},  {"abc", "ab%bc"},
      {"", "%"},          {"", ""},          {"a", "%"},
      {"ab", "a%_b"},     {"aXb", "a%_b"},
  };
  for (const Case& c : cases) {
    LikePattern p = CompileLikePattern(c.pattern);
    EXPECT_EQ(LikeMatch(c.text, p), LikeMatch(c.text, std::string(c.pattern)))
        << c.text << " LIKE " << c.pattern;
  }
}

}  // namespace
}  // namespace qopt::exec::expr
